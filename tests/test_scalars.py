"""Ring axioms, series recurrences, quadratic extensions, gamma values,
seeded RNG derivation, and the scalar text grammar."""

import operator
from fractions import Fraction

import pytest

from hankelpf.errors import (ConstantTermNotOne, DivisionByZero,
                             IncompatibleTags, ParseError, PoleAtQEqualsOne,
                             UnsupportedArgument, ZeroConstantDenominator)
from hankelpf.scalars import (HalfGamma, QuadExt, RatFunc, TruncSeries,
                              UniPoly, check_combinable, derive_rng,
                              format_scalar, gamma_exact, omega, parse_scalar,
                              poly_gen, q_gamma_int, q_gamma_table, quadext,
                              ratfunc, sdiv, series_div, series_sqrt, sqrt2,
                              unipoly)
from hankelpf.scalars import poly


# ---------------------------------------------------------------- ring axioms

def _rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_unipoly(rng):
    return unipoly("a", [_rand_fraction(rng) for _ in range(rng.randint(1, 3))])


def _rand_laurent(rng):
    # A Laurent polynomial is a RatFunc whose denominator is q^k.
    lo = rng.randint(-2, 0)
    coeffs = [_rand_fraction(rng) for _ in range(rng.randint(1, 3))]
    return ratfunc("q", coeffs, [0] * (-lo) + [1])


def _rand_ratfunc(rng):
    den = []
    while not any(den):
        den = [_rand_fraction(rng) for _ in range(rng.randint(1, 2))]
    return ratfunc("a", [_rand_fraction(rng) for _ in range(rng.randint(1, 3))],
                   den)


def _rand_omega(rng):
    w = omega()
    return _rand_fraction(rng) + _rand_fraction(rng) * w


def _rand_sqrt2(rng):
    s = sqrt2()
    return _rand_fraction(rng) + _rand_fraction(rng) * s


def _rand_series(rng):
    return TruncSeries("z", 4, [_rand_fraction(rng) for _ in range(5)])


SCALAR_MAKERS = [
    ("rational", _rand_fraction),
    ("unipoly", _rand_unipoly),
    ("laurent", _rand_laurent),
    ("ratfunc", _rand_ratfunc),
    ("omega", _rand_omega),
    ("sqrt2", _rand_sqrt2),
    ("series", _rand_series),
]


@pytest.mark.parametrize("tag,maker", SCALAR_MAKERS, ids=[t for t, _ in SCALAR_MAKERS])
def test_ring_axioms_random_triples(tag, maker):
    rng = derive_rng("ring-axioms", tag)
    for _ in range(1000):
        a, b, c = maker(rng), maker(rng), maker(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert a + b - b == a


def test_rational_canonical_form():
    x = sdiv(4, -6)
    assert x == Fraction(-2, 3)
    assert x.denominator == 3 and x.numerator == -2


def test_scalar_arith_examples():
    assert Fraction(1, 2) * Fraction(2, 3) == Fraction(1, 3)
    assert Fraction(1, 2) - Fraction(2, 3) == Fraction(-1, 6)
    w = omega()
    assert w * w == -1 - w
    a = poly_gen("a")
    assert (a + 1) ** 2 == a * a + 2 * a + 1
    assert a + 1 == unipoly("a", [1, 1])
    assert sdiv(a * a - 1, a - 1) == a + 1


def test_incompatible_tags():
    a = poly_gen("a")
    q = poly_gen("q")
    with pytest.raises(IncompatibleTags):
        a + q
    with pytest.raises(IncompatibleTags):
        omega() * sqrt2()
    with pytest.raises(IncompatibleTags):
        sdiv(TruncSeries("z", 2, [1, 0, 0]), omega())
    # series in two variables name both, as polynomials do
    z, y = TruncSeries("z", 2, [1, 1]), TruncSeries("y", 2, [1, 0, 1])
    for op in (operator.add, operator.mul, operator.truediv):
        with pytest.raises(IncompatibleTags, match="'z' and 'y'"):
            op(z, y)
    # the divisor has no reciprocal and the operands do not combine
    # either: the quotient reports the mismatch, as the product does
    for x, y in ((omega(), QuadExt(0, 0, 0, 1, "w")),
                 (a, TruncSeries("z", 2, [0, 1]))):
        with pytest.raises(TypeError):
            x / y
        with pytest.raises(IncompatibleTags):
            sdiv(x, y)


def test_check_combinable_asks_the_operators():
    a = poly_gen("a")
    check_combinable([1, Fraction(1, 2), a, 1 / (a + 1), a * a])
    check_combinable([2, omega(), sqrt2() - sqrt2() + omega()])
    for values, names in (([1, a, omega()], "UniPoly and QuadExt"),
                          ([TruncSeries("z", 2, [1]), 1 / a],
                           "TruncSeries and RatFunc")):
        with pytest.raises(IncompatibleTags, match=names):
            check_combinable(values)


def test_quadext_letters_do_not_mix():
    # same (p, r), different letters: both orders raise
    t = QuadExt(-1, -1, 0, 1, "t")
    for x, y in ((omega(), t), (t, omega())):
        with pytest.raises(IncompatibleTags):
            x + y
        with pytest.raises(IncompatibleTags):
            x * y
    assert omega() != t


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        sdiv(1, 0)
    with pytest.raises(DivisionByZero):
        sdiv(Fraction(3, 2), Fraction(0))
    with pytest.raises(DivisionByZero):
        sdiv(poly_gen("a"), 0)


def test_promotion_rational_into_others():
    a = poly_gen("a")
    assert 2 + a == unipoly("a", [2, 1])
    r = (a + 1) / (a - 1)
    assert isinstance(r, RatFunc)
    assert Fraction(1, 2) * r == (Fraction(1, 2) * a + Fraction(1, 2)) / (a - 1)
    w = omega()
    assert 1 + w == QuadExt(-1, -1, 1, 1, "w")


def test_laurent_negative_powers():
    q = poly_gen("q")
    x = q ** -1 + 2 + q
    assert isinstance(x, RatFunc)
    assert x * q == 1 + 2 * q + q * q
    assert (q ** -3) * (q ** 3) == 1
    assert q ** -1 == ratfunc("q", [1], [0, 1])
    assert (q ** -2) ** -1 == q * q


_Q = poly_gen("q")

# x, y, r, then (type, text) of x - y, r - x, x - r, x ** 0, x ** 1,
# x ** -2, str(x), x / y, r / x and x / r; an error pins its class and
# message
_DERIVED = {
    "unipoly": (_Q * _Q - 2, _Q, Fraction(1, 2), [
        (UniPoly, "q^2 - q - 2"), (UniPoly, "-q^2 + 5/2"),
        (UniPoly, "q^2 - 5/2"), (Fraction, "1"), (UniPoly, "q^2 - 2"),
        (RatFunc, "(1)/(q^4 - 4*q^2 + 4)"), (str, "q^2 - 2"),
        (RatFunc, "(q^2 - 2)/(q)"), (RatFunc, "(1/2)/(q^2 - 2)"),
        (UniPoly, "2*q^2 - 4")]),
    "ratfunc": ((_Q + 1) / (_Q - 2), _Q, 2, [
        (RatFunc, "(-q^2 + 3*q + 1)/(q - 2)"), (RatFunc, "(q - 5)/(q - 2)"),
        (RatFunc, "(-q + 5)/(q - 2)"), (Fraction, "1"),
        (RatFunc, "(q + 1)/(q - 2)"),
        (RatFunc, "(q^2 - 4*q + 4)/(q^2 + 2*q + 1)"),
        (str, "(q + 1)/(q - 2)"), (RatFunc, "(q + 1)/(q^2 - 2*q)"),
        (RatFunc, "(2*q - 4)/(q + 1)"),
        (RatFunc, "(1/2*q + 1/2)/(q - 2)")]),
    "omega": (2 + 3 * omega(), omega(), 1, [
        (QuadExt, "2*w + 2"), (QuadExt, "-3*w - 1"), (QuadExt, "3*w + 1"),
        (Fraction, "1"), (QuadExt, "3*w + 2"),
        (QuadExt, "-3/49*w - 8/49"), (str, "3*w + 2"),
        (QuadExt, "-2*w + 1"), (QuadExt, "-3/7*w - 1/7"),
        (QuadExt, "3*w + 2")]),
    "sqrt2": (1 - sqrt2(), sqrt2(), Fraction(1, 2), [
        (QuadExt, "-2*w + 1"), (QuadExt, "w - 1/2"), (QuadExt, "-w + 1/2"),
        (Fraction, "1"), (QuadExt, "-w + 1"), (QuadExt, "2*w + 3"),
        (str, "-w + 1"), (QuadExt, "1/2*w - 1"),
        (QuadExt, "-1/2*w - 1/2"), (QuadExt, "-2*w + 2")]),
    "series": (TruncSeries("z", 3, [1, 2]),
               TruncSeries("z", 2, [0, 1, 1]), 3, [
        (TruncSeries, "[1, 1, -1] @z up to 2"),
        (TruncSeries, "[2, -2, 0, 0] @z up to 3"),
        (TruncSeries, "[-2, 2, 0, 0] @z up to 3"),
        (TruncSeries, "[1, 0, 0, 0] @z up to 3"),
        (TruncSeries, "[1, 2, 0, 0] @z up to 3"),
        (TruncSeries, "[1, -4, 12, -32] @z up to 3"),
        (str, "[1, 2, 0, 0] @z up to 3"),
        (ZeroConstantDenominator, "series division by constant term 0"),
        (TruncSeries, "[3, -6, 12, -24] @z up to 3"),
        (TruncSeries, "[1/3, 2/3, 0, 0] @z up to 3")]),
}


def _outcome(f):
    try:
        v = f()
    except Exception as exc:
        return type(exc), str(exc)
    return type(v), str(v)


@pytest.mark.parametrize("name", sorted(_DERIVED))
def test_derived_operators(name):
    # subtraction, quotients, powers and the text form every scalar
    # type shares
    x, y, r, want = _DERIVED[name]
    got = [lambda: x - y, lambda: r - x, lambda: x - r, lambda: x ** 0,
           lambda: x ** 1, lambda: x ** -2, lambda: str(x), lambda: x / y,
           lambda: r / x, lambda: x / r]
    assert [_outcome(f) for f in got] == want
    for foreign in ("1", 1.5, None):
        with pytest.raises(TypeError):
            x - foreign
        with pytest.raises(TypeError):
            foreign - x
    with pytest.raises(TypeError):
        x ** Fraction(1, 2)


def test_ratfunc_reduction():
    a = poly_gen("a")
    r = (a * a - 1) / (a - 1)
    # exact cancellation demotes to a polynomial
    assert r == a + 1
    assert isinstance(r, UniPoly)


def test_unipoly_evaluate():
    a = poly_gen("a")
    p = a ** 3 - 2 * a + 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 8) - 1 + 5


# --------------------------------------------- integer coefficient paths

def _rand_coeffs(rng, length):
    # zeros, both signs, small and 30-digit numerators, and denominators
    # up to a 21-digit prime
    out = []
    for _ in range(length):
        if rng.random() < 0.2:
            out.append(Fraction(0))
        else:
            num = rng.randint(-10 ** rng.choice((1, 30)), 10 ** 30)
            out.append(Fraction(num, rng.choice((1, 2, 3, 7, 10 ** 20 + 39))))
    return poly._trim(out)


def _schoolbook_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly._trim(out)


def _rem(a, b):
    # remainder of a by b by long division over the rationals
    a = list(a)
    while len(a) >= len(b):
        c, k = a[-1] / b[-1], len(a) - len(b)
        for i, cb in enumerate(b):
            a[k + i] -= c * cb
        poly._trim(a)
    return a


def _euclid_gcd(a, b):
    # monic gcd by the Euclidean algorithm over the rationals
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem(a, b)
    return [c / a[-1] for c in a] if a else []


def test_kronecker_product_matches_schoolbook():
    rng = derive_rng("kronecker-pmul")
    for _ in range(500):
        a = _rand_coeffs(rng, rng.randint(0, 7))
        b = _rand_coeffs(rng, rng.choice((1, 1, 2, 5, 9)))
        product = poly._pmul(a, b)
        assert product == _schoolbook_mul(a, b)
        assert all(type(c) is Fraction for c in product)
    neg = [Fraction(-(2 ** 70) + 1, 3)] * 6
    assert poly._pmul(neg, neg) == _schoolbook_mul(neg, neg)


def _num_den(r):
    """The numerator and denominator lists of a `ratfunc` result."""
    if isinstance(r, RatFunc):
        return list(r.num), list(r.den)
    return list(r.coeffs) if isinstance(r, UniPoly) else [r] if r else [], [1]


def test_integer_gcd_matches_euclid():
    rng = derive_rng("prs-gcd")
    for _ in range(300):
        g = _rand_coeffs(rng, rng.randint(0, 3))
        a = poly._pmul(_rand_coeffs(rng, rng.randint(0, 4)), g)
        b = poly._pmul(_rand_coeffs(rng, rng.randint(0, 4)), g)
        if rng.random() < 0.3:
            # a monomial c*q^k on one side, as every Laurent denominator is
            b = [Fraction(0)] * rng.randint(0, 4) + [Fraction(
                rng.randint(1, 9))]
            a, b = (b, a) if rng.random() < 0.5 else (a, b)
        if a and b:
            (ia, ib), _ = poly.scale_to_ints((a, b))
            gcd = poly._pgcd(ia, ib)
            assert all(type(c) is int for c in gcd)
            assert [Fraction(c, gcd[-1]) for c in gcd] == _euclid_gcd(a, b)
        if b:
            # ratfunc reduces zero and monomial sides without _pgcd
            num, den = _num_den(ratfunc("q", a, b))
            assert den[-1] == 1
            assert not num or _euclid_gcd(num, den) == [1]
            assert poly._pmul(num, b) == poly._pmul(a, den)
    assert ratfunc("q", [0, 0, 5, 1], [0, 0, 0, 2]) == RatFunc(
        "q", [Fraction(5, 2), Fraction(1, 2)], [0, 1])
    assert ratfunc("q", [3], [0, 1]) == RatFunc("q", [3], [0, 1])
    assert ratfunc("q", [0, 0, 4], [0, 2]) == unipoly("q", [0, 2])
    assert ratfunc("q", [], [0, 1]) == 0


def test_ratfunc_cancels_non_monomial_gcd():
    rng = derive_rng("ratfunc-exact-division")
    for _ in range(200):
        g = []
        while len(g) < 2 or not g[0]:
            g = _rand_coeffs(rng, rng.randint(2, 4))
        a = _rand_coeffs(rng, rng.randint(1, 4))
        b = _rand_coeffs(rng, rng.randint(2, 4))
        if not a or len(b) < 2:
            continue
        r = ratfunc("q", poly._pmul(a, g), poly._pmul(b, g))
        num, den = _num_den(r)
        # lowest terms with a monic denominator, and the same quotient
        assert den[-1] == 1 and _euclid_gcd(num, den) == [1]
        assert poly._pmul(num, b) == poly._pmul(a, den)
        assert all(type(c) is Fraction for c in num + den[:-1])


# -------------------------------------------------------------------- series

def test_series_sqrt_catalan_kernel():
    s = TruncSeries("z", 3, [1, -4, 0, 0])
    assert series_sqrt(s).coeffs == (1, -2, -2, -4)


def test_series_sqrt_trivial_cases():
    one = TruncSeries("z", 5, [1])
    assert series_sqrt(one) == one
    sq = TruncSeries("z", 4, [1, -2, 1, 0, 0])
    assert series_sqrt(sq).coeffs == (1, -1, 0, 0, 0)


def test_series_sqrt_needs_unit_constant():
    with pytest.raises(ConstantTermNotOne):
        series_sqrt(TruncSeries("z", 3, [2, 1, 0, 0]))


def test_series_sqrt_roundtrip_random():
    rng = derive_rng("series-sqrt-roundtrip")
    for _ in range(100):
        s = TruncSeries("z", 6, [1] + [_rand_fraction(rng) for _ in range(6)])
        t = series_sqrt(s)
        assert t * t == s
        assert t.coeffs[0] == 1


def test_series_div_examples():
    one = TruncSeries("z", 3, [1])
    geom = series_div(one, TruncSeries("z", 3, [1, -1]))
    assert geom.coeffs == (1, 1, 1, 1)
    q = series_div(TruncSeries("z", 3, [1, 0, -1, 0]),
                   TruncSeries("z", 3, [1, -1]))
    assert q.coeffs == (1, 1, 0, 0)


def test_series_div_roundtrip_random():
    rng = derive_rng("series-div-roundtrip")
    for _ in range(100):
        num = _rand_series(rng)
        den = _rand_series(rng)
        if den.coeffs[0] == 0:
            den = den + 1
        assert den * series_div(num, den) == num


def test_series_div_zero_constant_denominator():
    with pytest.raises(ZeroConstantDenominator):
        series_div(TruncSeries("z", 2, [1, 0, 0]),
                   TruncSeries("z", 2, [0, 1, 0]))


def _f21_series(a, b, c, scale, order):
    # Oracle: Taylor coefficients of 2F1(a,b;c;scale*x), hand recurrence.
    coeffs = []
    term = Fraction(1)
    for k in range(order + 1):
        coeffs.append(term)
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1)) * scale
    return TruncSeries("x", order, coeffs)


def test_series_div_hypergeometric_quotient():
    num = _f21_series(Fraction(2, 3), Fraction(4, 3), Fraction(3, 2),
                      Fraction(27, 4), 4)
    den = _f21_series(Fraction(2, 3), Fraction(1, 3), Fraction(1, 2),
                      Fraction(27, 4), 4)
    q = series_div(num, den)
    assert q[2] == 3
    assert q.coeffs == (1, 1, 3, 12, 55)


def test_series_negative_powers_divide():
    s = TruncSeries("z", 3, [1, 2])
    assert s ** -1 == series_div(TruncSeries("z", 3, [1]), s)
    assert s ** -3 * s ** 3 == 1
    with pytest.raises(ZeroConstantDenominator):
        TruncSeries("z", 3, [0, 1]) ** -1


def test_series_shift_down():
    s = TruncSeries("z", 4, [0, 0, 1, 2, 3])
    assert s.shift_down(2).coeffs == (1, 2, 3)
    with pytest.raises(ZeroConstantDenominator):
        s.shift_down(3)


# ------------------------------------------------------- quadratic extensions

def test_omega_is_primitive_cube_root():
    w = omega()
    assert w ** 3 == 1
    assert 1 + w + w ** 2 == 0


def test_sqrt2_squares_to_two():
    s = sqrt2()
    assert s * s == 2
    assert (3 * s - 1) * (3 * s + 1) == 17


def test_quadext_inverse_and_pow():
    w = omega()
    x = 2 + 3 * w
    assert x * x ** -1 == 1
    assert x ** -2 == (x * x) ** -1
    with pytest.raises(DivisionByZero):
        sdiv(1, 0 * w)
    # w^2 = 0: the square is the rational 0, and a negative power is
    # refused by the element's own inverse
    nil = QuadExt(0, 0, 0, 1, "w")
    assert nil ** 2 == 0 and nil ** 1 == nil
    with pytest.raises(DivisionByZero, match="norm 0"):
        nil ** -2


def test_quadext_generic_sqrt5():
    r5 = quadext(0, 5, 0, 1, "r")
    assert r5 * r5 == 5
    golden = (1 + r5) / 2
    assert golden * golden == golden + 1


def test_quadext_demotion():
    assert quadext(0, 2, Fraction(3, 4), 0, "s") == Fraction(3, 4)
    assert isinstance(quadext(0, 2, Fraction(3, 4), 0, "s"), Fraction)


# -------------------------------------------------------------------- gammas

def test_gamma_exact_values():
    assert gamma_exact(1) == HalfGamma(1, 0)
    assert gamma_exact(Fraction(1, 2)) == HalfGamma(1, 1)
    assert gamma_exact(Fraction(5, 2)) == HalfGamma(Fraction(3, 4), 1)
    assert gamma_exact(5) == HalfGamma(24, 0)


def test_gamma_exact_recurrence_up_to_20():
    x = Fraction(1, 2)
    while x <= 20:
        assert gamma_exact(x + 1) == x * gamma_exact(x)
        x += Fraction(1, 2)


def test_gamma_exact_rejects_bad_arguments():
    with pytest.raises(UnsupportedArgument):
        gamma_exact(Fraction(1, 3))
    with pytest.raises(UnsupportedArgument):
        gamma_exact(0)
    with pytest.raises(UnsupportedArgument):
        gamma_exact(Fraction(-3, 2))


def test_q_gamma_int_values_polynomial_q():
    q = poly_gen("q")
    assert q_gamma_int(0, q) == 1
    assert q_gamma_int(2, q) == 1 + q
    assert q_gamma_int(3, q) == (1 + q) * (1 + q + q ** 2)


def test_q_gamma_int_recurrence():
    q = Fraction(2, 3)
    for n in range(1, 8):
        bracket = (1 - q ** n) / (1 - q)
        assert q_gamma_int(n, q) == bracket * q_gamma_int(n - 1, q)


def test_q_gamma_int_matches_pochhammer_quotient():
    q = Fraction(1, 5)
    for n in range(6):
        poch = 1
        for j in range(1, n + 1):
            poch *= 1 - q ** j
        assert q_gamma_int(n, q) == poch / (1 - q) ** n


def test_q_gamma_int_errors():
    with pytest.raises(PoleAtQEqualsOne):
        q_gamma_int(3, 1)
    with pytest.raises(PoleAtQEqualsOne):
        q_gamma_int(2, Fraction(1))
    with pytest.raises(UnsupportedArgument):
        q_gamma_int(-1, Fraction(1, 2))


def _q_gamma_loop(n, q):
    # the bracket product written out for one n: the reference for
    # q_gamma_table's running product
    total, bracket, power = Fraction(1), Fraction(0), Fraction(1)
    for _ in range(n):
        bracket = bracket + power
        power = power * q
        total = total * bracket
    return total


@pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(-3, 7), 2,
                               poly_gen("q"), 1 + poly_gen("q") ** -1],
                         ids=str)
def test_q_gamma_table_matches_q_gamma_int_at_every_index(q):
    table = q_gamma_table(12, q)
    assert len(table) == 13
    for k, v in enumerate(table):
        for want in (q_gamma_int(k, q), _q_gamma_loop(k, q)):
            assert v == want and type(v) is type(want), k
    assert q_gamma_table(0, q) == [1]
    with pytest.raises(UnsupportedArgument):
        q_gamma_table(-1, q)
    with pytest.raises(PoleAtQEqualsOne):
        q_gamma_table(4, Fraction(1))


def test_half_gamma_arithmetic():
    g = gamma_exact(Fraction(5, 2)) * gamma_exact(Fraction(3, 2))
    # (3/4)sqrt(pi) * (1/2)sqrt(pi) carries pi^1
    assert g == HalfGamma(Fraction(3, 8), 2)
    assert (g / gamma_exact(Fraction(1, 2)) / gamma_exact(Fraction(1, 2))
            == Fraction(3, 8))
    assert gamma_exact(Fraction(1, 2)) != 1


# ------------------------------------------------------------------ sampling

def test_derive_rng_stable_streams():
    a = derive_rng("stream", "one")
    b = derive_rng("stream", "one")
    assert [a.randint(0, 10 ** 9) for _ in range(5)] == \
           [b.randint(0, 10 ** 9) for _ in range(5)]


# ------------------------------------------------------------------- grammar

def test_format_and_parse_roundtrip():
    a = poly_gen("a")
    cases = [
        Fraction(7),
        Fraction(-3, 4),
        a ** 2 + 2 * a - Fraction(1, 2),
        poly_gen("q") ** -1,
        poly_gen("q") ** -2 + 1,
        TruncSeries("z", 3, [1, -2, -2, -4]),
        (a ** 2 - 1) / (a + 2),
    ]
    for x in cases:
        text = format_scalar(x)
        assert parse_scalar(text) == x


def test_parse_scalar_examples():
    assert parse_scalar("7") == 7
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    p = parse_scalar("a^2 + 2*a - 1/2")
    a = poly_gen("a")
    assert p == a ** 2 + 2 * a - Fraction(1, 2)
    assert parse_scalar("q^-1") == poly_gen("q") ** -1
    assert format_scalar(parse_scalar("q^-1")) == "(1)/(q)"
    x = parse_scalar("q^-2 + 1")
    assert isinstance(x, RatFunc) and x == poly_gen("q") ** -2 + 1
    assert format_scalar(x) == "(q^2 + 1)/(q^2)"
    s = parse_scalar("[1, -2, -2, -4] @z up to 3")
    assert s == TruncSeries("z", 3, [1, -2, -2, -4])


def test_parse_scalar_quadratic_context():
    from hankelpf.scalars import QuadContext
    ctx = QuadContext("w", -1, -1)
    x = parse_scalar("1 + 2*w", ctx)
    assert x == 1 + 2 * omega()
    assert parse_scalar("w^2", ctx) == omega() ** 2
    # without the context the same text is a polynomial
    assert isinstance(parse_scalar("1 + 2*w"), UniPoly)


def test_parse_scalar_rejects_garbage():
    for bad in ["", "  ", "a + b", "1 +", "2**3", "[1, 2] @z up to 3",
                "(1)/(0)", "a^"]:
        with pytest.raises(ParseError):
            parse_scalar(bad)


def _parse_table():
    a, q, x = poly_gen("a"), poly_gen("q"), poly_gen("x")
    w, s = omega(), sqrt2()
    F = Fraction
    return [
        # (text, context, exact value); expected values come from the
        # operators, not from the parser
        ("7", None, F(7)),
        ("-3/4", None, F(-3, 4)),
        ("6/8", None, F(3, 4)),
        ("0/5", None, F(0)),
        ("1/2 + 1/3 - 5/6", None, F(0)),
        ("007 - 1/6", None, F(41, 6)),
        ("a^2 + 2*a - 1/2", None, a ** 2 + 2 * a - F(1, 2)),
        ("1/2*a + 1/3*a^2 - 1/6*a^2", None, a / 2 + a ** 2 / 6),
        ("x - x + 3/2", None, F(3, 2)),
        ("x^0 + 2", None, F(3)),
        ("q^-1", None, q ** -1),
        ("q^-2 + 1/2*q", None, q ** -2 + q / 2),
        ("w^3", "omega", F(1)),
        ("w^-1", "omega", w ** 2),
        ("w^2 + w + 1", "omega", F(0)),
        ("1 + 2*w", "omega", 1 + 2 * w),
        ("1/2*w^-2 - 3*w^4", "omega", w / 2 - 3 * w),
        ("0*w^-1 + 2", "omega", F(2)),
        ("w^3", "sqrt2", 2 * s),
        ("w^-1", "sqrt2", s / 2),
        ("w^2", "sqrt2", F(2)),
        ("w^-2 - 1/2", "sqrt2", F(0)),
        ("3/4*w^-3 + w", "sqrt2", F(3, 16) * s + s),
        ("x^2 + 1", "omega", x ** 2 + 1),
        ("(1 + w)/(w)", "omega", -w),
        ("(1)/(w)", "sqrt2", s / 2),
        ("(a^2 - 1)/(a + 1)", None, a - 1),
        ("(1)/(a + 2)", None, 1 / (a + 2)),
        ("(3/4)/(1/2)", None, F(3, 2)),
    ]


def test_parse_scalar_table():
    from hankelpf.scalars import QuadContext
    contexts = {None: None, "omega": QuadContext("w", -1, -1),
                "sqrt2": QuadContext("w", 0, 2)}
    for text, ctx, expected in _parse_table():
        value = parse_scalar(text, contexts[ctx])
        assert value == expected, text
        assert type(value) is type(expected), text


@pytest.mark.parametrize("text,message", [
    ("1/0", "bad rational '1/0'"),
    ("x + 2/0*x", "bad rational '2/0'"),
    pytest.param("1/" + "7" * 5000, f"bad rational {'1/' + '7' * 5000!r}",
                 id="more-digits-than-int-reads"),
    ("a + b", "more than one variable in 'a + b': ['a', 'b']"),
    ("c + a + b + a",
     "more than one variable in 'c + a + b + a': ['a', 'b', 'c']"),
    ("1 2", "missing +/- between terms in '1 2'"),
    ("a + b 1", "missing +/- between terms in 'a + b 1'"),
    ("1 +", "cannot parse scalar '1 +' at offset 2"),
    ("2**3", "cannot parse scalar '2**3' at offset 1"),
    ("a + b + @", "cannot parse scalar 'a + b + @' at offset 6"),
])
def test_parse_scalar_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    assert str(exc.value) == message


def test_parse_scalar_bounds_exponents():
    assert len(parse_scalar("a^10000").coeffs) == 10001
    assert parse_scalar("q^-10000").den[-1] == 1
    for text, term in (("a^10001 + 1", "a^10001"),
                       ("1 - 2*q^-10001", "- 2*q^-10001"),
                       ("a^999999999", "a^999999999"),
                       ("a^" + "9" * 5000, "a^" + "9" * 5000)):
        with pytest.raises(ParseError) as exc:
            parse_scalar(text)
        assert str(exc.value) == (f"exponent of term {term!r} exceeds "
                                  "10000 in absolute value")


def test_parse_format_round_trip_seeded():
    from hankelpf.scalars import QuadContext
    rng = derive_rng("parse-round-trip")
    makers = [(_rand_fraction, None), (_rand_unipoly, None),
              (_rand_laurent, None), (_rand_ratfunc, None),
              (_rand_omega, QuadContext("w", -1, -1)),
              (_rand_sqrt2, QuadContext("w", 0, 2))]
    for _ in range(60):
        for make, ctx in makers:
            x = make(rng)
            y = parse_scalar(format_scalar(x), ctx)
            assert y == x and type(y) is type(x), format_scalar(x)


def test_format_scalar_negative_leading():
    a = poly_gen("a")
    assert format_scalar(-a + 1) == "-a + 1"
    assert format_scalar(0 * a) == "0"

"""q-series primitives, Jackson integration, Delta products, measures,
and the beta-type integral closed forms against brute-force oracles."""

import itertools
import math

import pytest
from fractions import Fraction as F

from hankelpf.engines import (det_matrix, hyperhafnian, hyperpfaffian,
                              msf_build_Q, pfaffian)
from hankelpf.errors import (GeometricPole, MomentPole, PoleInNegativeRange,
                             ShapeMismatch, SizeBudgetExceeded,
                             UnsupportedArgument, ZeroCoordinate)
from hankelpf.qcalc import (DiscreteMeasure, QJacobiParams, SelbergParams,
                            _linear_product, _pair_integral,
                            aomoto_bruteforce, aomoto_closed,
                            askey_A_n, askey_lhs_exact, debruijn_kernel,
                            debruijn_ordered_integral, delta_product,
                            discrete_cube_integral, discrete_moment,
                            discrete_ordered_integral, jackson_monomial,
                            lqj_moment, q_binomial_row, q_pochhammer, q_powers,
                            selberg_bruteforce, selberg_closed,
                            selberg_phi_bridge)
from hankelpf.scalars import (HalfGamma, RatFunc, UniPoly, derive_rng,
                              gamma_exact, poly_gen, q_gamma_int, sdiv,
                              unipoly)
from hankelpf.scalars.poly import num_den
from hankelpf.tensors import BlockArray, Tensor

Q = poly_gen("q")
A = poly_gen("a")


def _rand_points(rng, n, den=6):
    pts = []
    while len(pts) < n:
        v = F(rng.randint(1, 12), rng.randint(1, den))
        if all(v != p for p in pts):
            pts.append(v)
    return pts


def _rand_measure(rng, natoms):
    return DiscreteMeasure(tuple(
        (x, F(rng.randint(1, 4))) for x in _rand_points(rng, natoms)))


# ---------------------------------------------------------- shifted factorial

def test_q_pochhammer_basic():
    assert q_pochhammer(A, F(1, 2), 0) == 1
    assert q_pochhammer(A, F(3), 2) == (1 - A) * (1 - 3 * A)
    assert q_pochhammer(Q, Q, 2) == (1 - Q) * (1 - Q ** 2)


def test_q_pochhammer_negative_index():
    # (a;q)_{-1} = 1/(1 - a/q)
    assert q_pochhammer(F(3), F(1, 2), -1) == F(1) / (1 - F(3) / F(1, 2))
    # inverse of the forward product one step down
    a, q = F(2, 7), F(3, 5)
    assert q_pochhammer(a, q, -1) * q_pochhammer(a / q, q, 1) == 1
    with pytest.raises(PoleInNegativeRange):
        q_pochhammer(F(1, 2), F(1, 2), -1)


def test_q_pochhammer_shift_law():
    rng = derive_rng("poch-shift")
    checked = 0
    while checked < 60:
        a = F(rng.randint(-9, 9), rng.randint(1, 9))
        q = F(rng.randint(-9, 9), rng.randint(1, 9))
        if q == 0:
            continue
        m = rng.randint(-3, 3)
        n = rng.randint(-3, 3)
        try:
            lhs = q_pochhammer(a, q, m + n)
            rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q ** m, q, n)
        except ZeroDivisionError:
            continue
        assert lhs == rhs
        checked += 1


def test_q_binomial_values():
    assert q_binomial_row(2, Q)[1] == 1 + Q
    assert q_binomial_row(4, Q)[2] == (1 + Q ** 2) * (1 + Q + Q ** 2)
    assert q_binomial_row(7, Q)[0] == 1
    assert q_binomial_row(0, Q) == [1]
    assert len(q_binomial_row(3, Q)) == 4


def test_q_binomial_symmetry_and_quotient():
    for n in range(8):
        row = q_binomial_row(n, Q)
        assert row == row[::-1]
    q = F(2, 3)
    for n in range(7):
        row = q_binomial_row(n, q)
        for k in range(n + 1):
            quotient = q_pochhammer(q, q, n) / (
                q_pochhammer(q, q, k) * q_pochhammer(q, q, n - k))
            assert row[k] == quotient


def test_q_binomial_reduces_to_binomial_at_one():
    for n in range(7):
        assert q_binomial_row(n, 1) == [math.comb(n, k)
                                        for k in range(n + 1)]


# ----------------------------------------------------------------- Jackson

def test_jackson_monomial_examples():
    assert jackson_monomial(Q, 0) == 1
    assert jackson_monomial(Q, 1) == sdiv(1, 1 + Q)
    assert jackson_monomial(Q, 2) == sdiv(1 - Q, 1 - Q ** 3)
    for q in (F(1, 2), F(-3, 7), 2, -2):
        for m in range(6):
            got = jackson_monomial(q, m)
            want = sdiv(1 - q, 1 - F(q) ** (m + 1))
            assert got == want and type(got) is F, (q, m)
    with pytest.raises(UnsupportedArgument):
        jackson_monomial(F(1, 2), -1)


def test_jackson_monomial_pole():
    with pytest.raises(GeometricPole):
        jackson_monomial(1, 3)
    with pytest.raises(GeometricPole):
        jackson_monomial(-1, 1)  # q^2 = 1


# ----------------------------------------------------------------- measures

def test_discrete_measure_moments():
    mu = DiscreteMeasure(((F(2), F(1)), (F(3), F(1))))
    assert discrete_moment(mu, 0) == 2
    assert discrete_moment(mu, 1) == 5
    assert discrete_moment(mu, 4) == 97
    assert discrete_moment(DiscreteMeasure(()), 3) == 0


def test_discrete_measure_rejects_repeats():
    with pytest.raises(UnsupportedArgument):
        DiscreteMeasure(((F(2), F(1)), (F(2), F(5))))


def test_cube_vs_ordered_decomposition():
    # for distinct atoms, the square splits into two ordered triangles
    # plus the diagonal
    mu = DiscreteMeasure(((F(1), F(2)), (F(3), F(5)), (F(4), F(1))))

    def f(xs):
        return xs[0] + 2 * xs[1] ** 2

    def f_swapped(xs):
        return f((xs[1], xs[0]))

    cube = discrete_cube_integral(mu, 2, f)
    diag = sum(w * w * f((x, x)) for x, w in mu.atoms)
    assert cube == (discrete_ordered_integral(mu, 2, f)
                    + discrete_ordered_integral(mu, 2, f_swapped) + diag)


# ----------------------------------------------------------- Delta products

def test_delta_basic_values():
    assert delta_product([F(3), F(5)], F(1, 2), 1, "D1") == 4
    assert delta_product([F(1), F(1)], F(1, 3), 2, "D2") == 0
    assert delta_product([F(2)], Q, 3, "D0") == 1  # no pairs
    with pytest.raises(ZeroCoordinate):
        delta_product([F(0), F(1)], F(1, 2), 1, "D0")
    with pytest.raises(UnsupportedArgument):
        delta_product([F(1), F(2)], F(1, 2), 1, "D7")


def test_q_powers_table():
    assert q_powers(F(2, 3), -2, 3) == {-2: F(9, 4), -1: F(3, 2), 0: 1,
                                        1: F(2, 3), 2: F(4, 9)}
    assert q_powers(Q, 1, 1) == {}


def test_delta_d1_d2_literal_products():
    # the docstring's products written out, on Fraction, UniPoly and
    # float points, k = 0 included
    cases = [([F(3), F(5, 2), F(-1, 3)], F(2, 7)),
             ([Q, 2 * Q + 1, Q ** 2], Q),
             ([0.75, -0.5, 0.125], 0.5)]
    for xs, q in cases:
        for k in (0, 1, 2):
            d1 = d2 = 1
            for i, j in itertools.combinations(range(3), 2):
                for v in range(k):
                    d1 = d1 * (xs[j] - q ** v * xs[i])
                    d1 = d1 * (xs[j] - sdiv(1, q ** v) * xs[i])
                for v in range(-k + 1, k + 1):
                    qv = q ** v if v >= 0 else sdiv(1, q ** -v)
                    d2 = d2 * (xs[i] - qv * xs[j])
            assert delta_product(xs, q, k, "D1") == d1
            assert delta_product(xs, q, k, "D2") == d2


def test_delta_symmetrization_closed_form():
    # the symmetrized product collapses to a q-factorial multiple of the
    # unordered pair product
    rng = derive_rng("delta-sym")
    for n in (2, 3):
        for k in (1, 2, 3):
            for _ in range(2):
                xs = _rand_points(rng, n)
                q = F(rng.randint(2, 9), rng.randint(10, 13))
                dsym = delta_product(xs, q, k, "Dsym")
                prod = 1
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            prod *= q_pochhammer(xs[i] / xs[j], q, k)
                assert dsym == sdiv(q_gamma_int(n, q ** k),
                                    math.factorial(n)) * prod


def test_delta_sym_vs_d1_rewrite():
    rng = derive_rng("delta-d1")
    for n in (2, 3):
        for k in (1, 2, 3):
            xs = _rand_points(rng, n)
            q = F(rng.randint(2, 7), rng.randint(8, 11))
            pref = (F(-1) ** (k * math.comb(n, 2))
                    * q ** (math.comb(k, 2) * math.comb(n, 2))
                    * sdiv(q_gamma_int(n, q ** k), math.factorial(n)))
            for xi in xs:
                pref *= xi ** (-k * (n - 1))
            assert delta_product(xs, q, k, "Dsym") == pref * delta_product(
                xs, q, k, "D1")


def test_delta0_rewrite_and_d2_pochhammer_form():
    rng = derive_rng("delta-prod0")
    for n in (2, 3):
        for k in (1, 2):
            xs = _rand_points(rng, n)
            q = F(rng.randint(2, 7), rng.randint(8, 11))
            pair = 1
            for i in range(n):
                for j in range(i + 1, n):
                    pair *= xs[i] ** (2 * k) * q_pochhammer(
                        q ** (1 - k) * xs[j] / xs[i], q, 2 * k)
            assert delta_product(xs, q, k, "D2") == pair
            pref = (F(-1) ** (k * math.comb(n, 2))
                    * q ** (math.comb(k, 2) * math.comb(n, 2)))
            for xi in xs:
                pref *= xi ** (-k * (n - 1))
            assert delta_product(xs, q, k, "D0") == pref * pair


def test_delta_integral_relation():
    # cube integral of D1 x^(r+1) equals n!/Gamma_{q^k}(n+1) times the
    # same integral with D2, for any finite measure
    rng = derive_rng("delta-int")
    for n in (2, 3):
        for k in (1, 2):
            mu = _rand_measure(rng, 4)
            q = F(rng.randint(2, 7), rng.randint(8, 11))
            r = rng.randint(0, 2)

            def with_power(variant):
                def f(xs):
                    t = delta_product(xs, q, k, variant)
                    for x in xs:
                        t *= x ** (r + 1)
                    return t
                return f

            lhs = discrete_cube_integral(mu, n, with_power("D1"))
            rhs = discrete_cube_integral(mu, n, with_power("D2"))
            assert lhs == sdiv(math.factorial(n), q_gamma_int(n, q ** k)) * rhs


def test_pfaffian_from_delta2_integral():
    # Pf of the coupled moment matrix equals the weighted cube integral
    # of D2 at k=2
    rng = derive_rng("pf-delta2")
    for n in (1, 2, 3):
        for r in (0, 1, 2):
            mu = _rand_measure(rng, max(2, n))
            q = F(rng.randint(2, 5), rng.randint(6, 9))
            entries = {}
            for i in range(1, 2 * n + 1):
                for j in range(i + 1, 2 * n + 1):
                    v = (q ** (i - 1) - q ** (j - 1)) * discrete_moment(
                        mu, i + j + r - 2)
                    if v:
                        entries[(i, j)] = v
            lhs = pfaffian(entries, size=2 * n)

            def f(xs):
                t = delta_product(xs, q, 2, "D2")
                for x in xs:
                    t *= x ** (r + 1)
                return t

            rhs = (q ** (n * (n - 1)) * (1 - q) ** n
                   * sdiv(discrete_cube_integral(mu, n, f),
                          q_gamma_int(n, q ** 2)))
            assert lhs == rhs


# ------------------------------------------------------- classical integrals

def test_selberg_closed_examples():
    assert selberg_closed(SelbergParams(2, 1, 1, 1)) == HalfGamma(F(1, 6), 0)
    p = SelbergParams(1, 3, 2, 5)
    assert selberg_closed(p) == gamma_exact(3) * gamma_exact(2) / gamma_exact(5)
    half = selberg_closed(SelbergParams(1, F(3, 2), F(3, 2), 7))
    assert half == HalfGamma(F(1, 8), 2)


def test_selberg_params_validation():
    with pytest.raises(UnsupportedArgument):
        SelbergParams(2, F(1, 3), 1, 1)
    with pytest.raises(UnsupportedArgument):
        SelbergParams(2, 0, 1, 1)
    with pytest.raises(UnsupportedArgument):
        SelbergParams(2, 1, 1, -1)


def test_selberg_bruteforce_guards():
    assert selberg_bruteforce(1, 2, 3, 0) == F(1, 12)  # plain Beta(2,3)
    with pytest.raises(SizeBudgetExceeded):
        selberg_bruteforce(4, 1, 1, 1)
    with pytest.raises(UnsupportedArgument):
        selberg_bruteforce(2, F(3, 2), 1, 1)


def test_pair_integral_keeps_value_and_type():
    # (t1 - t2)^2 against t^e -> [1, 2, 3]: 3 - 2 * 2 * 2 + 3; each
    # monomial takes one pair entry and two table entries, so the sum is
    # divided by pair_den * table_den^2
    pair = [1, -2, 1]
    for p, p_den, tables, t_den, want in (
            (pair, 1, [[1, 2, 3]] * 2, 1, -2),
            ([3, -6, 3], 3, [[1, 2, 3]] * 2, 1, -2),
            (pair, 1, [[2, 4, 6]] * 2, 2, -2),
            (pair, 1, [[2, 1, 6]] * 2, 2, F(11, 2)),
            (pair, 5, [[1, 2, 3]] * 2, 7, F(-2, 5 * 49))):
        got = _pair_integral(2, p, p_den, tables, t_den)
        assert got == want and type(got) is F, (p, p_den, tables, t_den)
    got = _pair_integral(2, pair, 1, [[1, Q, 3]] * 2, 1)
    assert got == 6 - 2 * Q ** 2 and type(got) is UniPoly
    got = _pair_integral(2, pair, Q, [[1, 2, 3]] * 2, 1)
    assert got == sdiv(-2, Q) and type(got) is RatFunc


# (1+q) (1+q^2) (1+q+q^2)^2: the q-gamma denominator of askey_A_n(2, 1, 2, 1)
_ASKEY_DEN = unipoly("q", [1, 3, 6, 8, 8, 6, 3, 1])


@pytest.mark.parametrize("call, q, want, kinds", [
    # (1 - t)(1 - q t)(1 - q^2 t): ints over D^3 at q = a/D
    (lambda q: _linear_product(*num_den(q), range(3)), 2,
     ([1, -7, 14, -8], 1), [int] * 5),
    (lambda q: _linear_product(*num_den(q), range(3)), F(1, 2),
     ([8, -14, 7, -1], 8), [int] * 5),
    (lambda q: _linear_product(*num_den(q), range(3)), Q,
     ([1, -1 - Q - Q ** 2, Q + Q ** 2 + Q ** 3, -Q ** 3], 1),
     [F, UniPoly, UniPoly, UniPoly, int]),
    (lambda q: askey_A_n(2, 1, 2, 1, q), 2, F(1, 735), F),
    (lambda q: askey_A_n(2, 1, 2, 1, q), F(1, 2), F(128, 735), F),
    (lambda q: askey_A_n(2, 1, 2, 1, q), Q, sdiv(1, _ASKEY_DEN), RatFunc),
    (lambda q: askey_lhs_exact(2, 1, 2, 1, q), 2, F(2, 735), F),
    (lambda q: askey_lhs_exact(2, 1, 2, 1, q), F(1, 2), F(64, 735), F),
    (lambda q: askey_lhs_exact(2, 1, 2, 1, q), Q, sdiv(Q, _ASKEY_DEN),
     RatFunc),
    # a factor (1 - q^v t) with v < 0 is (a^-v - D^-v t) over a^-v
    (lambda q: _linear_product(*num_den(q), range(-1, 3)), F(3, 5),
     ([375, -1360, 1666, -816, 135], 375), [int] * 6),
    (lambda q: _linear_product(*num_den(q), range(-1, 3)), Q,
     ([Q, -1 - Q - Q ** 2 - Q ** 3, 1 + Q + 2 * Q ** 2 + Q ** 3 + Q ** 4,
       -Q - Q ** 2 - Q ** 3 - Q ** 4, Q ** 3], Q), [UniPoly] * 6),
    # n = 3, k = 2: P has negative powers of q, and u, J, L and P all
    # carry a denominator; the value is the q-Selberg identity's
    (lambda q: askey_lhs_exact(3, 2, 2, 2, q), 2,
     F(1048576, 18728425401915979816605), F),
    (lambda q: askey_lhs_exact(3, 2, 2, 2, q), F(3, 5),
     F(3, 5) ** 20 * askey_A_n(3, 2, 2, 2, F(3, 5)), F),
    (lambda q: askey_lhs_exact(3, 2, 2, 2, q), F(-3, 7),
     F(-3, 7) ** 20 * askey_A_n(3, 2, 2, 2, F(-3, 7)), F),
    (lambda q: askey_lhs_exact(3, 2, 2, 2, q), Q,
     Q ** 20 * askey_A_n(3, 2, 2, 2, Q), RatFunc),
    # the beta table is ints over one factorial
    (lambda q: aomoto_bruteforce(3, 1, 2, 3, 2), None,
     F(1, 1412611200), F),
])
def test_int_scaling_keeps_value_and_type(call, q, want, kinds):
    got = call(q)
    assert got == want
    if isinstance(got, tuple):
        cs, den = got
        assert [type(c) for c in cs + [den]] == kinds
    else:
        assert type(got) is kinds


def test_selberg_closed_equals_bruteforce():
    for n in (1, 2, 3):
        for alpha in (1, 2):
            for beta in (1, 2):
                for gamma in (1, 2):
                    closed = selberg_closed(SelbergParams(n, alpha, beta,
                                                          gamma))
                    brute = selberg_bruteforce(n, alpha, beta, gamma)
                    assert closed == HalfGamma(brute, 0)
                    assert type(brute) is F


def test_aomoto_closed_examples():
    assert aomoto_closed(2, 0, 1, 1, 1) == selberg_closed(
        SelbergParams(2, 1, 1, 1))
    expect = gamma_exact(3) * gamma_exact(2) / gamma_exact(5) * F(3, 5)
    assert aomoto_closed(1, 1, 3, 2, 4) == expect
    with pytest.raises(UnsupportedArgument):
        aomoto_closed(2, 3, 1, 1, 1)


def test_aomoto_closed_equals_bruteforce():
    for n in (1, 2, 3):
        for k in range(n + 1):
            for alpha in (1, 2):
                for gamma in (1, 2):
                    closed = aomoto_closed(n, k, alpha, 2, gamma)
                    brute = aomoto_bruteforce(n, k, alpha, 2, gamma)
                    assert closed == HalfGamma(brute, 0)
                    assert type(brute) is F


def test_selberg_phi_bridge():
    lhs, rhs = selberg_phi_bridge(1, 1, 1, 2)
    assert lhs == rhs == HalfGamma(F(1, 8), 2)
    lhs, rhs = selberg_phi_bridge(1, 0, 0, 3)
    assert lhs == rhs == HalfGamma(1, 2)
    for n in (1, 2):
        for r in (0, 1, 2):
            for s in (0, 1, 2):
                for m in (1, 2):
                    lhs, rhs = selberg_phi_bridge(n, r, s, m)
                    assert lhs == rhs
                    assert lhs.pi_half_power == 2 * n
    with pytest.raises(UnsupportedArgument):
        selberg_phi_bridge(1, -1, 0, 2)


# --------------------------------------------------------------- q integrals

def test_askey_A_n_examples():
    assert askey_A_n(1, 2, 2, 1, Q) == sdiv(
        q_gamma_int(1, Q) ** 2, q_gamma_int(3, Q))
    assert askey_A_n(2, 1, 1, 1, Q) == sdiv(1, (1 + Q) * (1 + Q + Q ** 2))
    with pytest.raises(UnsupportedArgument):
        askey_A_n(2, 0, 1, 1, Q)


def _askey_A_n_per_factor(n, x, y, k, q):
    # the 5n factors as separate q_gamma_int calls: the reference for
    # askey_A_n's one table per call
    num = den = 1
    for j in range(1, n + 1):
        num = num * q_gamma_int(x + (j - 1) * k - 1, q)
        num = num * q_gamma_int(y + (j - 1) * k - 1, q)
        num = num * q_gamma_int(j * k, q)
        den = den * q_gamma_int(x + y + (n + j - 2) * k - 1, q)
        den = den * q_gamma_int(k, q)
    return sdiv(num, den)


def test_askey_A_n_table_matches_per_factor_gammas():
    for q in (F(1, 2), F(-3, 7), Q):
        for n, x, y, k in itertools.product((1, 2, 3), (1, 3), (1, 2),
                                            (1, 2, 3)):
            got = askey_A_n(n, x, y, k, q)
            want = _askey_A_n_per_factor(n, x, y, k, q)
            assert got == want and type(got) is type(want), (n, x, y, k, q)


def test_askey_lhs_examples():
    assert askey_lhs_exact(1, 1, 1, 1, Q) == 1
    assert askey_lhs_exact(1, 1, 1, 2, Q) == 1
    assert askey_lhs_exact(2, 1, 1, 1, Q) == sdiv(
        Q, (1 + Q) * (1 + Q + Q ** 2))
    with pytest.raises(SizeBudgetExceeded):
        askey_lhs_exact(4, 1, 1, 1, Q)
    with pytest.raises(SizeBudgetExceeded):
        askey_lhs_exact(2, 1, 1, 3, Q)


def test_askey_identity_symbolic_spot():
    lhs = askey_lhs_exact(2, 1, 2, 1, Q)
    assert lhs == Q * askey_A_n(2, 1, 2, 1, Q)


def test_askey_identity_rational_grid():
    rng = derive_rng("ahk-grid")
    for n in (1, 2, 3):
        for k in (1, 2):
            for x in (1, 2):
                for y in (1, 2):
                    q = F(rng.randint(1, 8), rng.randint(9, 13))
                    lhs = askey_lhs_exact(n, x, y, k, q)
                    pref = q ** (k * x * math.comb(n, 2)
                                 + 2 * k * k * math.comb(n, 3))
                    assert lhs == pref * askey_A_n(n, x, y, k, q)


def _poly_mul(p, r):
    """Product of two polynomials given as {exponent tuple: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _askey_full_expansion(n, x, y, k, q):
    """The q-Selberg integral with the whole integrand multiplied out,
    then integrated monomial by monomial against (1-q)/(1-q^(m+1))."""
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    zero = (0,) * n
    poly = {zero: 1}
    for i in range(n):
        for j in range(i + 1, n):
            for v in range(-k + 1, k + 1):
                qv = q ** v if v >= 0 else sdiv(1, q ** -v)
                poly = _poly_mul(poly, {unit[i]: 1, unit[j]: -qv})
    for i in range(n):
        poly = _poly_mul(poly, {tuple((x - 1) * e for e in unit[i]): 1})
        for s in range(1, y):
            poly = _poly_mul(poly, {zero: 1, unit[i]: -(q ** s)})
    total = 0
    for exps, c in poly.items():
        for m in exps:
            c = c * sdiv(1 - q, 1 - q ** (m + 1))
        total = total + c
    return total


def test_askey_lhs_matches_full_expansion():
    for q in (F(1, 2), F(3, 7), F(8, 13), F(-3, 7), 2, -2, Q):
        for n, k, x, y in itertools.product((1, 2, 3), (1, 2), (1, 2, 3),
                                            (1, 2, 3)):
            if q is Q and n > 2:
                continue
            got = askey_lhs_exact(n, x, y, k, q)
            want = _askey_full_expansion(n, x, y, k, q)
            assert got == want and type(got) is type(want), (n, k, x, y, q)


def test_lqj_moment_values():
    p = QJacobiParams(F(2, 3), F(1, 5), F(1, 2))
    assert lqj_moment(0, p) == 1
    assert lqj_moment(1, p) == (1 - p.a * p.q) / (1 - p.a * p.b * p.q ** 2)
    expect2 = ((1 - p.a * p.q) * (1 - p.a * p.q ** 2)
               / ((1 - p.a * p.b * p.q ** 2) * (1 - p.a * p.b * p.q ** 3)))
    assert lqj_moment(2, p) == expect2


def test_lqj_moment_pole():
    with pytest.raises(MomentPole):
        lqj_moment(1, QJacobiParams(F(4), F(1), F(1, 2)))  # abq^2 = 1


# ----------------------------------------------------- determinant families

def _poly_family(rng, rows, l, deg=2):
    fam = []
    for _ in range(rows):
        row = []
        for _ in range(l):
            cs = [F(rng.randint(-2, 2)) for _ in range(deg + 1)]
            row.append(lambda x, cs=cs: sum(
                c * x ** k for k, c in enumerate(cs)))
        fam.append(row)
    return fam


def test_debruijn_kernel_entries():
    mu = DiscreteMeasure(((F(1), F(2)), (F(3), F(1))))
    fam = [[lambda x: 1, lambda x: x],
           [lambda x: x, lambda x: x ** 2],
           [lambda x: 1, lambda x: 1],
           [lambda x: x ** 2, lambda x: x ** 3]]
    Qk = debruijn_kernel([fam], mu)
    assert Qk.l == 2 and Qk.m == 1 and Qk.size == 4
    # entry at {1,2}: integral of det [[1, x], [x, x^2]] which is 0
    assert Qk.get(((1, 2),)) == 0
    # entry at {1,3}: integral of det [[1, x], [1, 1]] = 1 - x
    assert Qk.get(((1, 3),)) == 2 * (1 - 1) + 1 * (1 - 3)


def _det_matrix_kernel(families, mu):
    # the kernel with one det_matrix call per (subset, atom, family)
    r, rows, l = len(families), len(families[0]), len(families[0][0])
    entries = {}
    for key in itertools.product(
            itertools.combinations(range(1, rows + 1), l), repeat=r):
        total = 0
        for x, w in mu.atoms:
            prod = w
            for fam, subset in zip(families, key):
                prod = prod * det_matrix([[f(x) for f in fam[i - 1]]
                                          for i in subset])
            total = total + prod
        if total != 0:
            entries[key] = total
    return entries


@pytest.mark.parametrize("kind", ["int", "fraction", "unipoly"])
def test_debruijn_kernel_minors_match_det_matrix(kind):
    # the kernel reads its l x l minors from one row_minors pass per
    # atom and family; the families here take int, Fraction and
    # UniPoly values
    rng = derive_rng("debruijn-minors", kind)
    t = poly_gen("t")
    for r, l, rows in [(1, 2, 4), (2, 2, 4), (1, 3, 5), (1, 1, 3)]:
        fams = []
        for _ in range(r):
            fam = []
            for _ in range(rows):
                row = []
                for _ in range(l):
                    c0, c1 = rng.randint(-3, 3), rng.randint(-3, 3)
                    if kind == "int":
                        row.append(lambda x, c0=c0, c1=c1:
                                   c0 + c1 * x.numerator)
                    elif kind == "fraction":
                        row.append(lambda x, c0=c0, c1=c1: c0 + c1 * x)
                    else:
                        row.append(lambda x, c0=c0, c1=c1: c0 * t + c1 * x)
                fam.append(row)
            fams.append(fam)
        mu = DiscreteMeasure(tuple((x, rng.randint(1, 4))
                                   for x in _rand_points(rng, 3)))
        Qk = debruijn_kernel(fams, mu)
        expected = _det_matrix_kernel(fams, mu)
        assert set(Qk.entries) == set(expected)
        for key, v in expected.items():
            assert Qk.entries[key] == v
            assert type(Qk.entries[key]) is type(v)


def test_debruijn_ordered_equals_pf_of_kernel():
    # the kernel functional is the signed block sum for every r; the
    # unsigned sum does not reproduce the even-r case (see the witness
    # test below)
    rng = derive_rng("debruijn")
    for r, l, n in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (3, 2, 1), (1, 4, 1),
                    (2, 2, 1)]:
        for _ in range(2):
            fams = [_poly_family(rng, l * n, l) for _ in range(r)]
            mu = _rand_measure(rng, n + rng.randint(0, 2))
            Qk = debruijn_kernel(fams, mu)
            assert debruijn_ordered_integral(fams, mu, n) == hyperpfaffian(Qk)


def _ordered_per_tuple(families, mu, n):
    # every function evaluated afresh for every increasing tuple: the
    # reference for debruijn_ordered_integral's per-atom table
    def integrand(xs):
        prod = 1
        for fam in families:
            prod = prod * det_matrix([[f(xv) for xv in xs for f in row]
                                      for row in fam])
        return prod
    return discrete_ordered_integral(mu, n, integrand)


def test_debruijn_ordered_integral_table_matches_per_tuple():
    rng = derive_rng("debruijn-table")
    q = poly_gen("q")
    for r, l, n in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (3, 2, 1), (1, 4, 1),
                    (1, 1, 3)]:
        fams = [_poly_family(rng, l * n, l) for _ in range(r)]
        # polynomial families keep any UniPoly/Fraction type change visible
        fams[0][0][0] = lambda x: q * x + 1
        mu = _rand_measure(rng, n + rng.randint(0, 2))
        calls = []

        def counted(f):
            return lambda x: calls.append(x) or f(x)
        counted_fams = [[[counted(f) for f in row] for row in fam]
                        for fam in fams]
        got = debruijn_ordered_integral(counted_fams, mu, n)
        want = _ordered_per_tuple(fams, mu, n)
        assert got == want and type(got) is type(want)
        assert type(got) is UniPoly
        # each function once per atom
        assert len(calls) == r * l * n * l * len(mu.atoms)


def test_debruijn_even_r_unsigned_witness():
    # fixed instance where the signed kernel sum matches the ordered
    # integral and the unsigned one visibly does not
    rng = derive_rng("debruijn-witness")
    fams = [_poly_family(rng, 4, 2) for _ in range(2)]
    mu = _rand_measure(rng, 3)
    Qk = debruijn_kernel(fams, mu)
    ordered = debruijn_ordered_integral(fams, mu, 2)
    assert ordered == hyperpfaffian(Qk)
    assert ordered != hyperhafnian(Qk)


def test_debruijn_pfaffian_special_case():
    # l=2, one family (phi | psi): the kernel is the plain antisymmetric
    # matrix of 2x2 Wronskian-style integrals and the identity is the
    # ordinary Pfaffian one
    rng = derive_rng("debruijn-2x2")
    n = 2
    phi = [_poly_family(rng, 2 * n, 1)[i][0] for i in range(2 * n)]
    psi = [_poly_family(rng, 2 * n, 1)[i][0] for i in range(2 * n)]
    mu = _rand_measure(rng, 3)
    fam = [[phi[i], psi[i]] for i in range(2 * n)]
    entries = {}
    for i, j in itertools.combinations(range(1, 2 * n + 1), 2):
        v = sum(w * (phi[i - 1](x) * psi[j - 1](x)
                     - phi[j - 1](x) * psi[i - 1](x)) for x, w in mu.atoms)
        if v:
            entries[(i, j)] = v
    assert debruijn_ordered_integral([fam], mu, n) == pfaffian(
        entries, size=2 * n)


@pytest.mark.parametrize("r", [1, 2])
def test_debruijn_kernel_matches_minor_summation(r):
    # encode the atoms into rectangular tensors: column l(v-1)+t holds
    # the t-th function value at atom v, with the weight attached to
    # column t=1 of the first family; the aligned-block indicator array
    # then reproduces the kernel
    rng = derive_rng("debruijn-msf", str(r))
    l, n = 2, 2
    fams = [_poly_family(rng, l * n, l) for _ in range(r)]
    mu = _rand_measure(rng, 3)
    N = l * len(mu.atoms)
    A = BlockArray(l, r, N, {(tuple(range(l * v + 1, l * v + l + 1)),) * r: 1
                             for v in range(len(mu.atoms))})
    H = []
    for s, fam in enumerate(fams):
        entries = {}
        for i in range(1, l * n + 1):
            for v, (x, w) in enumerate(mu.atoms):
                for t in range(l):
                    val = fam[i - 1][t](x)
                    if s == 0 and t == 0:
                        val = val * w
                    if val:
                        entries[(i, l * v + t + 1)] = val
        H.append(Tensor((l * n, N), entries))
    Q = debruijn_kernel(fams, mu)
    assert Q.entries and msf_build_Q(A, H) == Q


def test_debruijn_shape_errors():
    mu = DiscreteMeasure(((F(1), F(1)),))
    with pytest.raises(ShapeMismatch):
        debruijn_kernel([], mu)
    fam = [[lambda x: 1, lambda x: x], [lambda x: x]]
    with pytest.raises(ShapeMismatch):
        debruijn_kernel([fam], mu)
    good = [[lambda x: 1, lambda x: x] for _ in range(4)]
    with pytest.raises(ShapeMismatch):
        debruijn_ordered_integral([good], mu, 3)


# ------------------------------------------------- moment-matrix bridges

def _moment_block_array(mu, l, ln, u, prefactor):
    entries = {}
    for I in itertools.combinations(range(1, ln + 1), l):
        pref = prefactor(I)
        v = pref * discrete_moment(mu, sum(I) + u - l)
        if v:
            entries[(I,)] = v
    return BlockArray(l, 1, ln, entries)


def test_q_moment_bridge():
    # hyperpfaffian of coupled q-moments equals a weighted cube integral
    # of the cancelled pair product
    rng = derive_rng("q-moment-bridge")
    for l, n, u in [(2, 1, 0), (2, 2, 0), (2, 2, 1), (2, 3, 0), (4, 1, 0)]:
        q = F(rng.randint(2, 5), rng.randint(6, 9))
        mu = _rand_measure(rng, max(n, 2))

        def qpref(I, q=q):
            pref = 1
            for a in range(l):
                for b in range(a + 1, l):
                    pref *= q ** (I[a] - 1) - q ** (I[b] - 1)
            return pref

        lhs = hyperpfaffian(_moment_block_array(mu, l, l * n, u, qpref))
        scale = q ** (math.comb(l, 3) * math.comb(n + 1, 2)
                      + 2 * math.comb(l + 1, 3) * math.comb(n, 2))
        for k in range(1, l + 1):
            scale *= q_pochhammer(q, q, k - 1) ** n

        def integrand(xs, q=q):
            t = 1
            for x in xs:
                t *= x ** (u + math.comb(l, 2))
            for i in range(n):
                for j in range(i + 1, n):
                    t *= (xs[j] - xs[i]) ** l
                    for v in range(1, l):
                        t *= ((xs[j] - q ** v * xs[i])
                              * (xs[j] - sdiv(1, q ** v) * xs[i])) ** (l - v)
            return t

        rhs = sdiv(scale * discrete_cube_integral(mu, n, integrand),
                   math.factorial(n))
        assert lhs == rhs


def test_classical_moment_bridge():
    rng = derive_rng("classical-moment-bridge")

    def gap_pref(I):
        pref = 1
        for a in range(len(I)):
            for b in range(a + 1, len(I)):
                pref *= I[b] - I[a]
        return pref

    mu0 = DiscreteMeasure(((F(2), F(1)), (F(3), F(1))))
    spot = hyperpfaffian(_moment_block_array(mu0, 2, 4, 0, gap_pref))
    assert spot == 6

    for l, n, u in [(2, 2, 0), (2, 3, 1), (4, 1, 0), (4, 2, 0)]:
        mu = _rand_measure(rng, max(n, 2) + 1)
        lhs = hyperpfaffian(_moment_block_array(mu, l, l * n, u, gap_pref))
        scale = F(1)
        for k in range(1, l + 1):
            scale *= F(math.factorial(k - 1)) ** n

        def integrand(xs):
            t = 1
            for x in xs:
                t *= x ** (u + math.comb(l, 2))
            for i in range(n):
                for j in range(i + 1, n):
                    t *= (xs[j] - xs[i]) ** (l * l)
            return t

        rhs = sdiv(scale * discrete_cube_integral(mu, n, integrand),
                   math.factorial(n))
        assert lhs == rhs

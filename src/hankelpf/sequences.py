"""Combinatorial number families used by the identity checks.

Narayana polynomials of Coxeter types A, B and D together with the
classical sequences they specialize to (Catalan, Motzkin, Schroeder,
Delannoy, central binomial and trinomial coefficients), the binomial
product that evaluates half-integer Selberg integrals, Rogers-Szego
style q-polynomials and their shifted companions, five ternary-tree
sequences with hypergeometric quotient generating functions, and small
exact hypergeometric evaluators.
"""

import math
from fractions import Fraction

from .errors import (NegativeIndex, NonTerminating, PochhammerPoleInC,
                     UnsupportedArgument, ZeroDenominatorBinomial, ZeroQForG)
from .qcalc import q_binomial_row
from .scalars import (RATIONAL_TYPES, TruncSeries, omega, poly_at, poly_gen,
                      series_div, series_sqrt, unipoly)


def binomial(x: int, k: int) -> int:
    """Binomial coefficient on all integer arguments.

    Zero for k < 0 and for k > x when x is nonnegative; C(x, 0) = 1 for
    every integer x, which keeps the first factor of the binomial
    product below well defined when its top goes negative.  A negative
    top with positive k falls back to the falling-factorial value.
    """
    if k < 0:
        return 0
    if x >= 0:
        return math.comb(x, k) if k <= x else 0
    if k == 0:
        return 1
    num = 1
    for i in range(k):
        num *= x - i
    return num // math.factorial(k)


def _int_or_fraction(v: Fraction):
    return int(v) if v.denominator == 1 else v


def narayana_number(X, n: int, k: int):
    """Rank-k coefficient of the type "A", "B" or "D" Narayana
    polynomial."""
    if X not in ("A", "B", "D"):
        raise UnsupportedArgument(f"unknown Coxeter type {X!r}")
    if n < 0:
        raise NegativeIndex(f"rank must be nonnegative, got {n}")
    if X == "A":
        if n == 0:
            return 1 if k == 0 else 0
        return _int_or_fraction(
            Fraction(binomial(n, k) * binomial(n, k - 1), n))
    if X == "B":
        return binomial(n, k) ** 2
    if n == 0:
        return 1 if k == 0 else 0
    if n == 1:
        return Fraction(1, 2) if k in (0, 1) else 0
    return binomial(n, k) * (binomial(n - 1, k) + binomial(n - 2, k - 2))


def narayana_poly(X, n: int):
    """Narayana polynomial in the variable a (rank generating function)."""
    if n < 0:
        raise NegativeIndex(f"rank must be nonnegative, got {n}")
    return unipoly("a", [narayana_number(X, n, k) for k in range(n + 1)])


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


_GX_CLOSED = {
    "gx1": lambda n: Fraction(math.comb(3 * n + 1, n), 3 * n + 1),
    "gx2": lambda n: Fraction(math.comb(3 * n + 2, n + 1), 3 * n + 2),
    "gx3": lambda n: Fraction(2 * math.comb(3 * n + 1, n + 1), 3 * n + 1),
    "gx4": lambda n: Fraction(2 * math.comb(3 * n + 2, n + 1),
                               (3 * n + 1) * (3 * n + 2)),
    "gx5": lambda n: Fraction((9 * n + 5) * math.comb(3 * n + 2, n + 1),
                               (3 * n + 1) * (3 * n + 2)),
}

# numerator and denominator parameters of the hypergeometric quotient
# generating each sequence, plus the constant in front of the quotient
_GX_HYP = {
    1: ((Fraction(2, 3), Fraction(4, 3), Fraction(3, 2)),
        (Fraction(2, 3), Fraction(1, 3), Fraction(1, 2)), 1),
    2: ((Fraction(4, 3), Fraction(5, 3), Fraction(5, 2)),
        (Fraction(4, 3), Fraction(2, 3), Fraction(3, 2)), 1),
    3: ((Fraction(5, 3), Fraction(7, 3), Fraction(7, 2)),
        (Fraction(5, 3), Fraction(4, 3), Fraction(5, 2)), 2),
    4: ((Fraction(5, 3), Fraction(7, 3), Fraction(5, 2)),
        (Fraction(5, 3), Fraction(4, 3), Fraction(3, 2)), 2),
    5: ((Fraction(2, 3), Fraction(4, 3), Fraction(5, 2)),
        (Fraction(2, 3), Fraction(1, 3), Fraction(3, 2)), 5),
}


def sequence_value(seq, n: int):
    """Exact value of the named sequence at index n."""
    if n < 0:
        raise NegativeIndex(f"sequence index must be nonnegative, got {n}")
    if seq == "catalan":
        return _catalan(n)
    if seq == "motzkin":
        return sum(math.comb(n, 2 * k) * _catalan(k)
                   for k in range(n // 2 + 1))
    if seq == "schroeder":
        return sum(math.comb(n + k, 2 * k) * _catalan(k)
                   for k in range(n + 1))
    if seq == "delannoy":
        return sum(math.comb(n, k) * math.comb(n + k, k)
                   for k in range(n + 1))
    if seq == "cbc":
        return math.comb(2 * n, n)
    if seq == "ctc":
        x = poly_gen("x")
        p = (1 + x + x ** 2) ** n
        return 1 if n == 0 else int(p.coefficient(n))
    if seq == "motzkinD":
        if n == 0:
            return 1
        if n == 1:
            return Fraction(1, 2)
        first = hyp2f1_terminating(
            Fraction(1 - n, 2), Fraction(2 - n, 2), 1, 4)
        second = hyp2f1_terminating(
            Fraction(2 - n, 2), Fraction(3 - n, 2), 2, 4)
        return _int_or_fraction(first + (n - 2) * second)
    if seq in _GX_CLOSED:
        return _int_or_fraction(_GX_CLOSED[seq](n))
    raise UnsupportedArgument(f"unknown sequence {seq!r}")


def phi_product(n: int, r: int, s: int, m: int) -> Fraction:
    """Product of binomial ratios evaluating half-integer beta-type
    integrals; factor j couples the shifts r and s through step m."""
    if n < 1:
        raise NegativeIndex(f"need n >= 1, got {n}")
    total = Fraction(1)
    for j in range(1, n + 1):
        num = (binomial(2 * m * (j - 1) + 2 * r, m * (j - 1) + r)
               * binomial(2 * m * (j - 1) + 2 * s, m * (j - 1) + s)
               * binomial(m * j, m))
        den = (binomial(2 * m * (j - 1) + r + s, m * (j - 1) + r)
               * binomial(m * (2 * j - 3) + r + s, m * (j - 1)))
        if den == 0:
            raise ZeroDenominatorBinomial(
                f"vanishing denominator at factor j={j} of "
                f"phi_product({n}, {r}, {s}, {m})")
        total *= Fraction(num, den)
    return total


def _require_rational(v, what):
    if not isinstance(v, RATIONAL_TYPES):
        raise UnsupportedArgument(
            f"{what} must be rational here; sample symbolic parameters")
    return Fraction(v)


def rogers_szego(kind: str, n: int, q):
    """q-binomial generating polynomial in a; the G variant carries the
    extra weight q^(k(k-n)) and so needs q invertible."""
    if kind not in ("F", "G"):
        raise UnsupportedArgument(f"kind must be F or G, got {kind!r}")
    if n < 0:
        raise NegativeIndex(f"degree must be nonnegative, got {n}")
    q = _require_rational(q, "q")
    if kind == "G" and q == 0:
        raise ZeroQForG("the shifted variant needs q != 0")
    coeffs = q_binomial_row(n, q)
    if kind == "G":
        coeffs = [c * q ** (k * (k - n)) for k, c in enumerate(coeffs)]
    return unipoly("a", coeffs)


def ftilde(i: int, t):
    """Moment polynomial in a with parameter t, in closed form."""
    if i < 0:
        raise NegativeIndex(f"index must be nonnegative, got {i}")
    t = _require_rational(t, "t")
    coeffs = []
    for j, c in enumerate(q_binomial_row(i, t)):
        e = j * (j - 1) // 2 + (i - j) * (i - j - 1) // 2
        coeffs.append(c * t ** e)
    return unipoly("a", coeffs)


def ftilde_recurrence(i: int, t):
    """Same polynomial family built from the three-term recurrence;
    kept as an independent oracle for the closed form."""
    if i < 0:
        raise NegativeIndex(f"index must be nonnegative, got {i}")
    t = _require_rational(t, "t")
    a = poly_gen("a")
    prev, cur = unipoly("a", [1]), 1 + a
    if i == 0:
        return prev
    for k in range(2, i + 1):
        prev, cur = cur, ((1 + a) * t ** (k - 1) * cur
                          + a * t ** (k - 2) * (1 - t ** (k - 1)) * prev)
    return cur


def hyp2f1_terminating(p1, p2, c, z) -> Fraction:
    """Exact finite hypergeometric sum; one top parameter must be a
    nonpositive integer. The sum of the terms of `hyp2f1_series` at
    scale z, up to where they stop."""
    p1, p2 = Fraction(p1), Fraction(p2)
    stops = [int(-p) for p in (p1, p2)
             if p.denominator == 1 and p <= 0]
    if not stops:
        raise NonTerminating(
            f"neither {p1} nor {p2} is a nonpositive integer")
    return sum(hyp2f1_series(p1, p2, c, z, min(stops)).coeffs)


def hyp2f1_series(p1, p2, c, scale, N: int) -> TruncSeries:
    """Hypergeometric series in scale*x truncated at order N >= 0."""
    if N < 0:
        raise NegativeIndex(f"order must be nonnegative, got {N}")
    p1, p2, c, scale = (Fraction(v) for v in (p1, p2, c, scale))
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(N):
        if c + k == 0:
            raise PochhammerPoleInC(
                f"lower parameter {c} hits a pole at step {k}")
        term *= (p1 + k) * (p2 + k) * scale / ((k + 1) * (c + k))
        coeffs.append(term)
    return TruncSeries("x", N, coeffs)


def gx_hypergeometric_series(i: int, N: int) -> TruncSeries:
    """Quotient of hypergeometric series generating the i-th
    ternary-tree sequence, truncated at order N."""
    if i not in _GX_HYP:
        raise UnsupportedArgument(f"sequence index must be 1..5, got {i}")
    (a1, b1, c1), (a2, b2, c2), factor = _GX_HYP[i]
    scale = Fraction(27, 4)
    num = hyp2f1_series(a1, b1, c1, scale, N)
    den = hyp2f1_series(a2, b2, c2, scale, N)
    return series_div(num, den) * factor


def narayana_gf_series(X, a, N: int) -> TruncSeries:
    """Series whose z^n coefficient is the type A/B/D Narayana
    polynomial at the point a."""
    if X not in ("A", "B", "D"):
        raise UnsupportedArgument(f"unknown Coxeter type {X!r}")
    a = _require_rational(a, "a")
    order = N + 1  # one guard term so the type A shift keeps order N
    z = TruncSeries("z", order, [0, 1])
    radicand = (a - 1) ** 2 * z * z - 2 * (a + 1) * z + 1
    root = series_sqrt(radicand)
    if X == "A":
        return ((1 - (a - 1) * z - root).shift_down(1)
                * Fraction(1, 2))
    if X == "B":
        inv = series_div(TruncSeries("z", order, [1]), root)
        return TruncSeries("z", N, inv.coeffs)
    inv = series_div(1 + (a + 1) * z, root)
    out = (root + inv) * Fraction(1, 2)
    return TruncSeries("z", N, out.coeffs)


def omega_specialization(seq, n: int):
    """Evaluate the Narayana polynomial route to the Motzkin-type
    numbers inside the quadratic extension by a primitive cube root of
    unity, returning an element of that extension."""
    if n < 0:
        raise NegativeIndex(f"sequence index must be nonnegative, got {n}")
    w = omega()
    sign = (-1) ** n
    if seq == "motzkin":
        return sign * w ** (n + 2) * narayana_poly("A", n + 1).evaluate(w)
    if seq == "ctc":
        return sign * w ** n * poly_at(narayana_poly("B", n), w)
    if seq == "motzkinD":
        return sign * w ** n * poly_at(narayana_poly("D", n), w)
    raise UnsupportedArgument(
        f"no cube-root specialization for {seq!r}")

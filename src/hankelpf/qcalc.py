"""q-series primitives, Jackson integrals, Delta products, discrete
measures, and beta-type integral closed forms.

Nothing here truncates an infinite q-grid: the float Jackson sums of
the two numeric checks live in harness.checks_qpoly. The exact
Aomoto/Selberg integral (aomoto_bruteforce) and the exact q-Selberg
integral (askey_lhs_exact) share one pair-product expansion: the
product over pairs i<j of one bivariate factor is multiplied out one
pair at a time, and each monomial integrates coordinate by coordinate
against a table of one-variable integrals. A q enters these exact
loops once, as (a, D) = num_den(q) with q = a/D (D = 1 for an int or a
polynomial q): every row is built over its own denominator, ints for a
rational q, and one quotient divides at the end, instead of paying a gcd
at every Fraction step. q_powers is the one table of q^v, v of either
sign, that delta_product and its fast float loops share. The de Bruijn kernel (debruijn_kernel) is the
minor summation kernel of its atom weights, built by the same
engines.contract_slots as engines.msf_build_Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .engines import contract_slots, det_matrix, row_minors
from .errors import (GeometricPole, MomentPole, PoleInNegativeRange,
                     ShapeMismatch, SizeBudgetExceeded, UnsupportedArgument,
                     ZeroCoordinate)
from .scalars import HalfGamma, format_scalar, gamma_exact, sdiv
from .scalars.gammas import q_brackets, scaled_q_factorials
from .scalars.poly import num_den
from .tensors import BlockArray, Tensor

__all__ = [
    "q_pochhammer", "q_binomial_row",
    "jackson_monomial",
    "DiscreteMeasure",
    "discrete_moment", "discrete_cube_integral", "discrete_ordered_integral",
    "q_powers", "delta_product",
    "SelbergParams", "selberg_closed", "selberg_bruteforce",
    "aomoto_closed", "aomoto_bruteforce", "selberg_phi_bridge",
    "askey_A_n", "askey_lhs_exact",
    "QJacobiParams", "lqj_moment",
    "debruijn_kernel", "debruijn_ordered_integral",
]


def _signed_power(base, e: int):
    """base**e allowing negative e by exact division."""
    if e >= 0:
        return base ** e
    return sdiv(1, base ** (-e))


# --------------------------------------------------------------------------
# shifted factorials and Gaussian binomials
# --------------------------------------------------------------------------

def q_pochhammer(a, q, n: int):
    """The q-shifted factorial (a;q)_n for any integer n.

    Nonnegative n gives the product (1-a)(1-aq)...(1-aq^(n-1)).  Negative
    n is defined through (a;q)_n = (a;q)_inf / (aq^n;q)_inf, which reduces
    to the reciprocal of a finite product over q^(-1), q^(-2), ...; a
    vanishing factor there is a genuine pole.
    """
    if n >= 0:
        total = 1
        factor = a
        for _ in range(n):
            total = total * (1 - factor)
            factor = factor * q
        return total
    denom = 1
    factor = a
    for _ in range(-n):
        factor = sdiv(factor, q)
        term = 1 - factor
        if term == 0:
            raise PoleInNegativeRange(
                f"(a;q)_{n} hit the vanishing factor 1 - a*q^k")
        denom = denom * term
    return sdiv(1, denom)


def q_binomial_row(n: int, q):
    """The Gaussian binomial coefficients [n choose k]_q for k in 0..n,
    for n >= 0.

    Each equals the quotient (q;q)_n / ((q;q)_k (q;q)_{n-k}). Built by
    the q-Pascal recurrence, with no division, so a polynomial q stays
    polynomial throughout.
    """
    row = [1]
    for i in range(1, n + 1):
        prev = row
        row = [1]
        power = 1
        for j in range(1, i):
            power = power * q
            row.append(prev[j - 1] + power * prev[j])
        row.append(1)
    return row


# --------------------------------------------------------------------------
# Jackson integration
# --------------------------------------------------------------------------

def jackson_monomial(q, m: int):
    """Exact Jackson integral of x^m over [0, 1]: (1-q)/(1-q^(m+1)).

    A rational q = a/D is one quotient of ints,
    D^m (D - a) / (D^(m+1) - a^(m+1)); any other q has a = q, D = 1.
    """
    if m < 0:
        raise UnsupportedArgument("jackson_monomial needs m >= 0")
    a, D = num_den(q)
    denom = D ** (m + 1) - a ** (m + 1)
    if denom == 0:
        raise GeometricPole(f"q^{m + 1} = 1 makes the geometric sum diverge")
    return sdiv(D ** m * (D - a), denom)


# --------------------------------------------------------------------------
# finite measures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure given as (support point, weight) pairs."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((x, w) for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if atoms[i][0] == atoms[j][0]:
                    raise UnsupportedArgument(
                        "repeated support point "
                        f"{format_scalar(atoms[i][0])}")


def discrete_moment(mu: DiscreteMeasure, k: int):
    """k-th moment: the weighted sum of x^k over the atoms."""
    total = 0
    for x, w in mu.atoms:
        total = total + w * _signed_power(x, k)
    return total


def _atom_sum(combos, f):
    """The sum of f(points) * weight over tuples of (point, weight)
    atoms, weight the product of the tuple's weights."""
    total = 0
    for combo in combos:
        weight = 1
        for _, w in combo:
            weight = weight * w
        total = total + f(tuple(x for x, _ in combo)) * weight
    return total


def discrete_cube_integral(mu: DiscreteMeasure, n: int, f):
    """Integral of f over the n-fold product measure.

    f receives a tuple of n support points; atoms repeat freely.
    """
    return _atom_sum(itertools.product(mu.atoms, repeat=n), f)


def discrete_ordered_integral(mu: DiscreteMeasure, n: int, f):
    """Integral of f over the region x_1 < x_2 < ... < x_n.

    Runs over strictly increasing n-tuples of support points, so the
    support must be orderable (rational in practice).
    """
    atoms = sorted(mu.atoms, key=lambda aw: aw[0])
    return _atom_sum(itertools.combinations(atoms, n), f)


# --------------------------------------------------------------------------
# Delta products
# --------------------------------------------------------------------------

def q_powers(q, lo: int, hi: int) -> dict:
    """The table {v: q^v} for lo <= v < hi; negative powers divide exactly."""
    return {v: _signed_power(q, v) for v in range(lo, hi)}


def _delta0(xs, q, k):
    total = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            total = total * q_pochhammer(sdiv(xs[i], xs[j]), q, k)
            total = total * q_pochhammer(sdiv(q * xs[j], xs[i]), q, k)
    return total


def delta_product(x, q, k: int, variant: str):
    """One of the four pair-interaction products on x_1..x_n.

    D1:   prod_{i<j} prod_{v=0..k-1} (x_j - q^v x_i)(x_j - q^(-v) x_i)
          (the v = 0 factor appears twice, giving (x_j - x_i)^2)
    D0:   prod_{i<j} (x_i/x_j;q)_k (q x_j/x_i;q)_k
    D2:   prod_{i<j} prod_{v=-k+1..k} (x_i - q^v x_j)
    Dsym: the symmetrization (1/n!) sum over permutations of D0
    """
    xs = list(x)
    n = len(xs)
    if k < 0:
        raise UnsupportedArgument("delta_product needs k >= 0")
    if variant in ("D0", "Dsym"):
        for xi in xs:
            if xi == 0:
                raise ZeroCoordinate(f"{variant} divides by every coordinate")
        if variant == "D0":
            return _delta0(xs, q, k)
        total = 0
        for perm in itertools.permutations(xs):
            total = total + _delta0(perm, q, k)
        return sdiv(total, math.factorial(n))
    if variant == "D1":
        total = 1
        powers = q_powers(q, -k + 1, k)
        for i in range(n):
            for j in range(i + 1, n):
                for v in range(k):
                    total = total * (xs[j] - powers[v] * xs[i])
                    total = total * (xs[j] - powers[-v] * xs[i])
        return total
    if variant == "D2":
        total = 1
        powers = q_powers(q, -k + 1, k + 1)
        for i in range(n):
            for j in range(i + 1, n):
                for v in range(-k + 1, k + 1):
                    total = total * (xs[i] - powers[v] * xs[j])
        return total
    raise UnsupportedArgument(f"unknown variant {variant!r}")


# --------------------------------------------------------------------------
# beta-type integrals, classical side
# --------------------------------------------------------------------------

def _admissible(value, name, minimum):
    v = Fraction(value)
    if v < minimum:
        raise UnsupportedArgument(f"{name} must be >= {minimum}, got {v}")
    if v.denominator not in (1, 2):
        raise UnsupportedArgument(
            f"{name} must be an integer or half-integer, got {v}")
    return v


@dataclass(frozen=True)
class SelbergParams:
    n: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        if self.n < 0:
            raise UnsupportedArgument("n must be >= 0")
        object.__setattr__(self, "alpha",
                           _admissible(self.alpha, "alpha", Fraction(1, 2)))
        object.__setattr__(self, "beta",
                           _admissible(self.beta, "beta", Fraction(1, 2)))
        object.__setattr__(self, "gamma",
                           _admissible(self.gamma, "gamma", 0))


def selberg_closed(p: SelbergParams) -> HalfGamma:
    """The n-dimensional beta-type integral as a gamma-function product.

    Returns (rational) * (sqrt pi)^e; e is zero when every parameter is
    an integer.
    """
    total = HalfGamma(1, 0)
    for j in range(1, p.n + 1):
        num = (gamma_exact(p.alpha + (j - 1) * p.gamma)
               * gamma_exact(p.beta + (j - 1) * p.gamma)
               * gamma_exact(j * p.gamma + 1))
        den = (gamma_exact(p.alpha + p.beta + (p.n + j - 2) * p.gamma)
               * gamma_exact(p.gamma + 1))
        total = total * (num / den)
    return total


def _pair_integral(n: int, pair, pair_den, tables, table_den):
    """sum_e c_e prod_i tables[i][e_i] over the monomials c_e t^e of
    prod_{i<j} sum_r pair[r] t_i^(d-r) t_j^r, d = len(pair) - 1,
    divided by pair_den^C(n,2) table_den^n.

    The rows come over their denominators: the pair factor is
    sum_r (pair[r] / pair_den) t_i^(d-r) t_j^r, and tables[i][e] /
    table_den is the integral of t^e against coordinate i's weight.
    Each monomial takes one pair entry per pair and one table entry per
    coordinate, so int rows keep the whole loop in ints, and the sum is
    divided once at the end. The product is expanded one pair at a time
    into {exponents: coefficient}, dropping cancelled terms after each
    pair. No exponent of one variable reaches B = d(n-1) + 1, so the
    exponents are one int, sum_i e_i B^i, and a pair's term
    t_i^(d-r) t_j^r adds one int to it.
    """
    d = len(pair) - 1
    B = d * (n - 1) + 1   # one variable's exponent stays below B
    poly = {0: 1}
    for i in range(n):
        for j in range(i + 1, n):
            steps = [(d - r) * B ** i + r * B ** j for r in range(d + 1)]
            out = {}
            for e, c in poly.items():
                for s, p in zip(steps, pair):
                    f = e + s
                    out[f] = out[f] + c * p if f in out else c * p
            poly = {e: c for e, c in out.items() if c != 0}
    total = 0
    for e, c in poly.items():
        for table in tables:
            e, ei = divmod(e, B)
            c = c * table[ei]
        total = total + c
    return sdiv(total, pair_den ** math.comb(n, 2) * table_den ** n)


def _int_or_raise(value, name) -> int:
    v = Fraction(value)
    if v.denominator != 1:
        raise UnsupportedArgument(
            f"brute-force expansion needs integer {name}, got {v}")
    return int(v)


def selberg_bruteforce(n: int, alpha, beta, gamma) -> Fraction:
    """Oracle for selberg_closed: `aomoto_bruteforce` with k = 0, which
    needs integer parameters and n at desk scale, and here n >= 1."""
    if n < 1:
        raise UnsupportedArgument("n must be >= 1")
    return aomoto_bruteforce(n, 0, alpha, beta, gamma)


def aomoto_closed(n: int, k: int, alpha, beta, gamma) -> HalfGamma:
    """Closed form with the first k coordinates multiplied in."""
    if not 0 <= k <= n:
        raise UnsupportedArgument(f"need 0 <= k <= n, got k={k}, n={n}")
    p = SelbergParams(n, alpha, beta, gamma)
    ratio = Fraction(1)
    for j in range(1, k + 1):
        ratio *= ((p.alpha + (n - j) * p.gamma)
                  / (p.alpha + p.beta + (2 * n - j - 1) * p.gamma))
    return selberg_closed(p) * ratio


def aomoto_bruteforce(n: int, k: int, alpha, beta, gamma) -> Fraction:
    """Oracle for aomoto_closed, integer parameters.

    The pair part prod_{i<j} (t_i - t_j)^(2 gamma) goes through
    `_pair_integral` with the beta table B(alpha + e, beta) for every
    coordinate, as ints over one factorial; the first k, which carry one
    more power of t, read it one step further on.
    """
    alpha = _int_or_raise(alpha, "alpha")
    beta = _int_or_raise(beta, "beta")
    gamma = _int_or_raise(gamma, "gamma")
    if not 0 <= k <= n:
        raise UnsupportedArgument(f"need 0 <= k <= n, got k={k}, n={n}")
    if alpha < 1 or beta < 1 or gamma < 0:
        raise UnsupportedArgument("need alpha, beta >= 1 and gamma >= 0")
    if n > 3:
        raise SizeBudgetExceeded(f"brute-force expansion capped at n=3, "
                                 f"got n={n}")
    pair = [(-1) ** r * math.comb(2 * gamma, r) for r in range(2 * gamma + 1)]
    # B(alpha + e, beta) = (alpha+e-1)! (beta-1)! / (alpha+e+beta-1)!
    # over the last denominator, (alpha+top+beta-1)!
    top = 2 * gamma * (n - 1) + 1
    den = math.factorial(alpha + top + beta - 1)
    beta_table = [math.factorial(alpha + e - 1) * math.factorial(beta - 1)
                  * (den // math.factorial(alpha + e + beta - 1))
                  for e in range(top + 1)]
    tables = [beta_table[1:] if i < k else beta_table for i in range(n)]
    return _pair_integral(n, pair, 1, tables, den)


def selberg_phi_bridge(n: int, r: int, s: int, m: int):
    """Half-integer specialization against the binomial product.

    Computes S(n, r+1/2, s+1/2, m) through exact gamma values, and
    independently as pi^n / 2^(2n(m(n-1)+r+s)) times the binomial
    product; returns the pair.
    """
    from .sequences import phi_product
    if r < 0 or s < 0 or m < 1:
        raise UnsupportedArgument("need r, s >= 0 and m >= 1")
    lhs = selberg_closed(SelbergParams(
        n, Fraction(2 * r + 1, 2), Fraction(2 * s + 1, 2), m))
    scale = Fraction(1, 2 ** (2 * n * (m * (n - 1) + r + s)))
    return lhs, HalfGamma(scale * phi_product(n, r, s, m), 2 * n)


# --------------------------------------------------------------------------
# beta-type integrals, q side
# --------------------------------------------------------------------------

def _positive_int(value, name) -> int:
    if not isinstance(value, int) or value < 1:
        raise UnsupportedArgument(f"{name} must be a positive integer")
    return value


def askey_A_n(n: int, x: int, y: int, k: int, q):
    """The q-gamma product side of the q-analogue, exact in q.

    At q = a/D, Gamma_q(t) is G[t-1] / D^C(t-1, 2) with G the int row
    `scaled_q_factorials`, so the 3n factors over the 2n are one
    quotient of products of G entries, the numerator times D^e with e
    the bottoms' sum of C(t-1, 2) less the tops'. A polynomial q runs
    the same loop with D = 1.
    """
    n = _positive_int(n, "n")
    x = _positive_int(x, "x")
    y = _positive_int(y, "y")
    k = _positive_int(k, "k")
    a, D = num_den(q)
    tops = [t for j in range(1, n + 1)
            for t in (x + (j - 1) * k, y + (j - 1) * k, j * k + 1)]
    bottoms = [t for j in range(1, n + 1)
               for t in (x + y + (n + j - 2) * k, k + 1)]
    # all 5n factors read from one row
    G = scaled_q_factorials(max(tops + bottoms) - 1, a, D)
    num = den = 1
    for t in tops:
        num = num * G[t - 1]
    for t in bottoms:
        den = den * G[t - 1]
    # e >= 0. With X, Y >= (j-1)k the j-th tops' t - 1 and
    # c = 1 + (n-j)k, the j-th bottom's C(X + Y + c, 2) is at least
    # C(X, 2) + C(Y, 2) + C(c, 2) + XY, where
    # XY >= (j-1)^2 k^2 >= C(jk, 2) - C(k, 2) - C(1 + (j-1)k, 2), and
    # the C(c, 2) summed over j are the C(1 + (j-1)k, 2) summed over j.
    e = (sum(math.comb(t - 1, 2) for t in bottoms)
         - sum(math.comb(t - 1, 2) for t in tops))
    return sdiv(num * D ** e, den)


def _linear_product(a, D, vs):
    """(cs, den): the product over v in vs of (1 - q^v t) at q = a/D is
    sum_r cs[r] t^r / den, lowest power of t first.

    A factor is (D^v - a^v t) / D^v for v >= 0 and
    (a^-v - D^-v t) / a^-v for v < 0, so the cs are ints for a rational
    q, and den is the product of the factors' denominators.
    """
    cs, den = [1], 1
    for v in vs:
        lo, hi = (D ** v, a ** v) if v >= 0 else (a ** -v, D ** -v)
        cs = [lo * c - hi * b for c, b in zip(cs + [0], [0] + cs)]
        den = den * lo
    return cs, den


def _jackson_row(a, D, size):
    """(J, den): the Jackson integrals (1-q)/(1-q^(m+1)) of t^m over
    [0, 1], m < size, are J[m] / den at q = a/D.

    The m-th is D^m / B_m, with B_m = D^m [m+1]_q the m-th of
    `q_brackets`, so den is the product of the B_m and J[m] is D^m
    times the other B's, read from running products from both ends: no
    division.
    """
    brackets = q_brackets(size, a, D)
    for m, bracket in enumerate(brackets):
        if a == D or bracket == 0:
            raise GeometricPole(
                f"q^{m + 1} = 1 makes the geometric sum diverge")
    after = [1]   # after[i]: the product of the brackets past the i-th
    for b in reversed(brackets[1:]):
        after.append(after[-1] * b)
    J, before, power = [], 1, 1
    for b, rest in zip(brackets, reversed(after)):
        J.append(power * before * rest)
        before = before * b
        power = power * D
    return J, before


def askey_lhs_exact(n: int, x: int, y: int, k: int, q):
    """Exact n-fold Jackson integral over [0, 1]^n of the q-Selberg
    integrand Pair(t) prod_i u(t_i).

    Only the pair part prod_{i<j} prod_{v=1-k..k} (t_i - q^v t_j) is
    expanded into monomials c_e t^e, by `_pair_integral` with the pair
    factor sum_r P_r t_i^(2k-r) t_j^r. The one-variable factor
    u(t) = t^(x-1) (tq;q)_{y-1} = sum_j u_j t^(x-1+j) never is: each
    monomial integrates coordinate by coordinate, so the integral is
    sum_e c_e prod_i L(e_i) with L(e) = sum_j u_j J(e + x - 1 + j) and
    J(m) the Jackson integral of t^m over [0, 1]. q enters once, as
    (a, D) = num_den(q): u, J, L and P are rows over their
    denominators (`_linear_product`, `_jackson_row`), ints for a
    rational q, and the one division is `_pair_integral`'s.
    """
    n = _positive_int(n, "n")
    x = _positive_int(x, "x")
    y = _positive_int(y, "y")
    k = _positive_int(k, "k")
    if n > 3 or k > 2:
        raise SizeBudgetExceeded(
            f"exact expansion capped at n=3, k=2; got n={n}, k={k}")
    a, D = num_den(q)
    u, u_den = _linear_product(a, D, range(1, y))
    top = 2 * k * (n - 1)   # highest power of one variable in the pair part
    J, J_den = _jackson_row(a, D, x + top + y - 1)
    L = [sum(uj * J[e + x - 1 + j] for j, uj in enumerate(u))
         for e in range(top + 1)]
    P, P_den = _linear_product(a, D, range(-k + 1, k + 1))
    return _pair_integral(n, P, P_den, [L] * n, u_den * J_den)


@dataclass(frozen=True)
class QJacobiParams:
    a: object
    b: object
    q: object


def lqj_moment(n: int, p: QJacobiParams):
    """Moment sequence (aq;q)_n / (abq^2;q)_n of the q-Jacobi weight."""
    if n < 0:
        raise UnsupportedArgument("lqj_moment needs n >= 0")
    den = q_pochhammer(p.a * p.b * p.q * p.q, p.q, n)
    if den == 0:
        raise MomentPole(f"(abq^2;q)_{n} vanished")
    return sdiv(q_pochhammer(p.a * p.q, p.q, n), den)


# --------------------------------------------------------------------------
# determinant families against a measure
# --------------------------------------------------------------------------

def _family_shape(families):
    if not families:
        raise ShapeMismatch("need at least one function family")
    rows = len(families[0])
    if rows == 0:
        raise ShapeMismatch("function family with no rows")
    cols = len(families[0][0])
    for fam in families:
        if len(fam) != rows or any(len(row) != cols for row in fam):
            raise ShapeMismatch("function families must share one shape")
    return len(families), rows, cols


def debruijn_kernel(families, mu: DiscreteMeasure) -> BlockArray:
    """One-point kernel of a family of determinant integrands.

    families[s][i-1][mu-1] is a callable of one point; the kernel entry
    at (I_1, ..., I_r) integrates the product over s of the l x l
    determinants det( families[s][i][mu](x) ) with i running over I_s.

    That is the minor summation kernel of the weights on the diagonal
    over the atoms, A = {(v, ..., v): w_v}: the `contract_slots` of A
    with one table per family, which maps atom v to the l x l minors of
    its rows x l value table, each from one `row_minors` pass over its
    l x rows transpose, keyed (I,).
    """
    r, rows, l = _family_shape(families)
    tables = [{} for _ in families]
    for v, (x, _) in enumerate(mu.atoms):
        for fam, table in zip(families, tables):
            values = Tensor.from_function(
                (l, rows), lambda j, i: fam[i - 1][j - 1](x))
            table[v] = row_minors(values, range(1, l + 1))
    weights = {(v,) * r: w for v, (_, w) in enumerate(mu.atoms)}
    return BlockArray(l, r, rows, contract_slots(weights, tables))


def debruijn_ordered_integral(families, mu: DiscreteMeasure, n: int):
    """Ordered-region integral of the product of big determinants.

    For each strictly increasing support tuple (x_1 < ... < x_n), forms
    per family the square matrix whose row i lists the l function values
    at x_1, then at x_2, and so on, multiplies the r determinants and
    the weights, and sums. Each function is evaluated once per atom,
    into a table the tuples read their rows from.
    """
    r, rows, l = _family_shape(families)
    if l * n != rows:
        raise ShapeMismatch(
            f"square determinant needs l*n rows, got {rows} with "
            f"l={l}, n={n}")
    values = {x: [[[f(x) for f in row] for row in fam] for fam in families]
              for x, _ in mu.atoms}

    def integrand(xs):
        prod = 1
        for s in range(r):
            at = [values[xv][s] for xv in xs]
            prod = prod * det_matrix(
                [[v for point in at for v in point[i]] for i in range(rows)])
        return prod

    return discrete_ordered_integral(mu, n, integrand)

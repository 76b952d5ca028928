"""q-series primitives, Jackson integrals, Delta products, discrete
measures, and beta-type integral closed forms.

Nothing here truncates an infinite q-grid: the float Jackson sums of
the two numeric checks live in harness.checks_qpoly. The exact
Aomoto/Selberg integral (aomoto_bruteforce) and the exact q-Selberg
integral (askey_lhs_exact) share one pair-product expansion: the
product over pairs i<j of one bivariate factor is multiplied out one
pair at a time, and each monomial integrates coordinate by coordinate
against a table of one-variable integrals. For rational entries the
expansion, the rows of askey_lhs_exact and askey_A_n and the products
of _linear_product run over ints scaled once by one rule, `_int_scaled`,
and divide once at the end, instead of paying a gcd at every Fraction
step. q_powers
is the one table of q^v, v of either sign, that delta_product and its
fast float loops share. The de Bruijn kernel (debruijn_kernel) is the
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
from .scalars import (HalfGamma, format_scalar, gamma_exact, q_gamma_table,
                      sdiv)
from .scalars.poly import num_den, scale_to_ints
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


def _int_scaled(lists):
    """(lists, D): `scale_to_ints(lists)` when every value is an int or
    a Fraction and one at least is a Fraction, else the lists unchanged
    and D = None. The exact loops below then run over ints and divide
    once at the end, by a power of D, only when they got one: all-int
    values stay ints, and any other scalar runs the same loop as it is."""
    kinds = {type(c) for cs in lists for c in cs}
    if Fraction in kinds and kinds <= {int, Fraction}:
        return scale_to_ints(lists)
    return lists, None


def _pair_integral(n: int, pair, tables):
    """sum_e c_e prod_i tables[i][e_i] over the monomials c_e t^e of
    prod_{i<j} sum_r pair[r] t_i^(d-r) t_j^r, d = len(pair) - 1.

    The product is expanded one pair at a time into {exponent tuple:
    coefficient}, dropping cancelled terms after each pair; tables[i]
    holds the integral of t^e against coordinate i's weight.

    Rational entries are scaled to ints (`_int_scaled`): pair by the
    lcm Dp of its denominators, the tables by theirs, Dt. Each monomial
    takes one pair entry per pair and one table entry per coordinate,
    so the sum is divided by Dp^C(n,2) Dt^n once, a missing D read as 1.
    """
    (pair,), Dp = _int_scaled([pair])
    tables, Dt = _int_scaled(tables)
    d = len(pair) - 1
    poly = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            out = {}
            for e, c in poly.items():
                for r, p in enumerate(pair):
                    f = list(e)
                    f[i] += d - r
                    f[j] += r
                    f = tuple(f)
                    out[f] = out[f] + c * p if f in out else c * p
            poly = {e: c for e, c in out.items() if c != 0}
    total = 0
    for e, c in poly.items():
        for table, ei in zip(tables, e):
            c = c * table[ei]
        total = total + c
    if Dp is None and Dt is None:
        return total
    return sdiv(total, (Dp or 1) ** math.comb(n, 2) * (Dt or 1) ** n)


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
    coordinate; the first k, which carry one more power of t, read it
    one step further on.
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
    beta_table = [Fraction(math.factorial(alpha + e - 1)
                           * math.factorial(beta - 1),
                           math.factorial(alpha + e + beta - 1))
                  for e in range(2 * gamma * (n - 1) + 2)]
    tables = [beta_table[1:] if i < k else beta_table for i in range(n)]
    return Fraction(_pair_integral(n, pair, tables))


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

    For rational q the table is scaled to ints (`_int_scaled`), the
    two products run over them and one quotient divides at the end.
    """
    n = _positive_int(n, "n")
    x = _positive_int(x, "x")
    y = _positive_int(y, "y")
    k = _positive_int(k, "k")
    # Gamma_q(t) at a positive integer t is g[t - 1], all 5n factors
    # read from one table
    g = q_gamma_table(max(x + y + (2 * n - 2) * k - 1, n * k), q)
    (g,), D = _int_scaled([g])
    num = 1
    den = 1
    for j in range(1, n + 1):
        num = num * g[x + (j - 1) * k - 1]
        num = num * g[y + (j - 1) * k - 1]
        num = num * g[j * k]
        den = den * g[x + y + (n + j - 2) * k - 1]
        den = den * g[k]
    if D:
        den = den * D ** n   # 3n factors over 2n
    return sdiv(num, den)


def _linear_product(cs):
    """Coefficients of prod_c (1 - c t), lowest power of t first.

    Rational cs are scaled to ints C = D c by the lcm D of their
    denominators (`_int_scaled`), and each coefficient of the product
    of the (D - C t) is divided by D^len(cs) once. Other cs run the
    same loop with D = 1.
    """
    (cs,), D = _int_scaled([list(cs)])
    out = [1]
    for c in cs:
        out = [(D or 1) * a - c * b for a, b in zip(out + [0], [0] + out)]
    if D:
        return [Fraction(a, D ** len(cs)) for a in out]
    return out


def askey_lhs_exact(n: int, x: int, y: int, k: int, q):
    """Exact n-fold Jackson integral over [0, 1]^n of the q-Selberg
    integrand Pair(t) prod_i u(t_i).

    Only the pair part prod_{i<j} prod_{v=1-k..k} (t_i - q^v t_j) is
    expanded into monomials c_e t^e, by `_pair_integral` with the pair
    factor sum_r P_r t_i^(2k-r) t_j^r. The one-variable factor
    u(t) = t^(x-1) (tq;q)_{y-1} = sum_j u_j t^(x-1+j) never is: each
    monomial integrates coordinate by coordinate, so the integral is
    sum_e c_e prod_i L(e_i) with L(e) = sum_j u_j J(e + x - 1 + j) and
    J(m) the Jackson integral of t^m over [0, 1]. For rational q, u and
    J are scaled to ints by one D (`_int_scaled`), so each L(e) is one
    quotient by D^2.
    """
    n = _positive_int(n, "n")
    x = _positive_int(x, "x")
    y = _positive_int(y, "y")
    k = _positive_int(k, "k")
    if n > 3 or k > 2:
        raise SizeBudgetExceeded(
            f"exact expansion capped at n=3, k=2; got n={n}, k={k}")
    u = _linear_product(q ** s for s in range(1, y))
    top = 2 * k * (n - 1)   # highest power of one variable in the pair part
    J = [jackson_monomial(q, m) for m in range(x + top + y - 1)]
    (u, J), D = _int_scaled([u, J])
    L = [sum(uj * J[e + x - 1 + j] for j, uj in enumerate(u))
         for e in range(top + 1)]
    if D:
        L = [Fraction(c, D * D) for c in L]
    P = _linear_product(q_powers(q, -k + 1, k + 1).values())
    return _pair_integral(n, P, [L] * n)


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

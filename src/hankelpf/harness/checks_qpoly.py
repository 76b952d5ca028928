"""Checks on the q-polynomial side: Pfaffians of q-difference-weighted
Rogers-Szego entries, the moment-polynomial recurrence, the ternary-tree
Pfaffian conjectures, and floating-point checks of the two biorthogonal
integral evaluations on [a, 1].
Their loop-invariant work is hoisted out of the per-point and per-pair
loops without changing a single float.
"""

import functools
import math
import operator
from fractions import Fraction

from ..qcalc import q_binomial_row, q_pochhammer, q_powers
from ..scalars import poly_at, poly_gen
from ..sequences import (ftilde, ftilde_recurrence,
                         gx_hypergeometric_series, rogers_szego,
                         sequence_value)
from .common import (Outcome, hankel_pf, outcome_all, q_gap_prefactor,
                     rand_fraction, rand_q, seq_pfaffian)


def _rs_pfaffian(kind, shift, n, q):
    """Pf of (q^(i-1) - q^(j-1)) * RS_(i+j+shift)(a; q), 1 <= i < j <= 2n."""
    return hankel_pf(2, n, q_gap_prefactor(q),
                     lambda d: rogers_szego(kind, d, q), shift)


def check_asc(params, rng, opts):
    """One of the four closed-form Pfaffians of Rogers-Szego entries,
    kept symbolic in a and spot-checked at random rational q."""
    variant, n = params["variant"], params["n"]
    a = poly_gen("a")
    # n(n-1) is even, and one of n, n-1, 4n-5 (or 2n-1) is divisible by
    # 3 for every n mod 3, so the q exponents below divide exactly
    lhs = rhs = None
    for _ in range(opts.trials):
        q = rand_q(rng)
        base = a ** (n * (n - 1))
        for k in range(1, n + 1):
            base = base * q_pochhammer(q, q, 2 * k - 1)
        if variant == "u-rm1":
            lhs = _rs_pfaffian("F", -3, n, q)
            rhs = base * q ** (n * (n - 1) * (4 * n - 5) // 6)
        elif variant == "u-r0":
            lhs = _rs_pfaffian("F", -2, n, q)
            extra = sum(q ** (k * (k - 1) + (n - k) * (n - k - 1))
                        * c * a ** k
                        for k, c in enumerate(q_binomial_row(n, q * q)))
            rhs = base * q ** (n * (n - 1) * (4 * n - 5) // 6) * extra
        elif variant == "v-rm1":
            lhs = _rs_pfaffian("G", -3, n, q)
            rhs = base * q ** (-n * (n - 1) * (4 * n - 5) // 3)
        else:   # v-r0
            lhs = _rs_pfaffian("G", -2, n, q)
            extra = sum(c * a ** k
                        for k, c in enumerate(q_binomial_row(n, q * q)))
            rhs = base * q ** (-2 * n * (n - 1) * (2 * n - 1) // 3) * extra
        if not lhs == rhs:
            return Outcome("counterexample", lhs, rhs, n, f"q = {q}")
    return Outcome("verified", lhs, rhs, n,
                   f"symbolic in a at {opts.trials} random rational q")


def check_ftilde_rec(params, rng, opts):
    """Closed form of the moment polynomials against the three-term
    recurrence, at random rational parameter values."""
    max_i = params["max_i"]
    pairs = []
    for _ in range(opts.trials):
        t = rand_fraction(rng, lo=-2, hi=2, den=5,
                          avoid=lambda v: v == 0)
        for i in range(max_i + 1):
            pairs.append((ftilde(i, t), ftilde_recurrence(i, t)))
    return outcome_all(pairs, note=f"degrees 0..{max_i}")


# ------------------------------------------------------------ ternary trees

_GX_SHIFT = {1: -1, 2: -2, 3: -1, 4: -1, 5: -2}


def _gx_rhs(i, n):
    if i == 1:
        v = Fraction(1, 2 ** n)
        for k in range(n):
            v *= Fraction(
                math.factorial(12 * k + 6) * math.factorial(4 * k + 1)
                * math.factorial(3 * k + 2),
                math.factorial(8 * k + 2) * math.factorial(8 * k + 5)
                * math.factorial(3 * k + 1))
        return v
    if i == 2:
        v = Fraction(1, 12 ** n)
        for k in range(n):
            v *= Fraction(
                math.factorial(12 * k + 10) * math.factorial(4 * k + 2)
                * (4 * k + 1),
                math.factorial(8 * k + 3) * math.factorial(8 * k + 7)
                * (3 * k + 2) * (12 * k + 5))
        return v
    if i == 3:
        v = Fraction(4, 3) ** n
        for k in range(n):
            v *= Fraction(
                math.factorial(12 * k + 15) * math.factorial(4 * k + 5)
                * (2 * k + 1),
                math.factorial(8 * k + 8) * math.factorial(8 * k + 11)
                * (12 * k + 13))
        return v
    if i == 4:
        v = Fraction(2, 3) ** n * math.factorial(6 * n + 1)
        for k in range(n):
            v *= Fraction(
                math.factorial(12 * k + 6) * math.factorial(4 * k + 5)
                * (4 * k + 3),
                math.factorial(8 * k + 5) * math.factorial(8 * k + 10)
                * (k + 1) * (3 * k + 1))
        return v
    v = Fraction(1, 3 ** n)
    for k in range(n):
        v *= Fraction(
            math.factorial(6 * k + 6) * math.factorial(2 * k),
            math.factorial(4 * k + 1) * math.factorial(4 * k + 4)
            * (3 * k + 2))
    return v


def check_gx(params, rng, opts):
    """Conjectured Hankel-type Pfaffian evaluation for one of the five
    ternary-tree sequences; reports the verified range of n."""
    i = params["index"]
    max_n = params["max_n"]
    shift = _GX_SHIFT[i]
    good = 0
    lhs = rhs = Fraction(1)
    for n in range(1, max_n + 1):
        lhs = seq_pfaffian(f"gx{i}", shift, n)
        rhs = _gx_rhs(i, n)
        if not lhs == rhs:
            note = (f"verified range {'n<=' + str(good) if good else 'none'}"
                    f"; first mismatch at n={n}")
            return Outcome("counterexample", lhs, rhs, n, note)
        good = n
    return Outcome("verified", lhs, rhs, max_n,
                   f"verified range n<={good}")


def check_gx_defs(params, rng, opts):
    """Series expansions of the hypergeometric quotients against the
    stored ternary-tree sequences."""
    order = params["order"]
    pairs = []
    for i in range(1, 6):
        series = gx_hypergeometric_series(i, order)
        pairs += [(series[k], sequence_value(f"gx{i}", k))
                  for k in range(order + 1)]
    return outcome_all(pairs, note=f"five quotients through order {order}")


# -------------------------------------------------------- numeric integrals

# relative error bound of the two float checks (registry strategy
# "numeric(1e-6)")
TOLERANCE = 1e-6


# where the float checks run unless params say otherwise; no grid names
# these keys, so the reports leave them out
_FLOAT_DEFAULTS = {"a": Fraction(-1, 2), "q": Fraction(1, 2), "K": 200}


def _float_params(params):
    """The float checks' params over their defaults: a and q exact, then
    as floats under "af" and "qf"."""
    p = {**_FLOAT_DEFAULTS, **params}
    a, q = Fraction(p["a"]), Fraction(p["q"])
    p.update(a=a, q=q, af=float(a), qf=float(q))
    return p


@functools.lru_cache(maxsize=4)
def _weighted_atoms(a, q, K):
    """Support points and weights, as two tuples of floats, of the
    two-sided Jackson sum on [a, 1] truncated after K powers of q, each
    weight multiplied by a truncation of the biorthogonality weight
    (qx;q)_inf (qx/a;q)_inf / ((1-a) (q;q)_inf (aq;q)_inf (q/a;q)_inf).

    The (1-a) makes the weight integrate to exactly (1-q) over [a, 1],
    which is what the moment identity needs; the two-product Jackson
    integral evaluates to (1-q)(1-a) times the three infinite products.
    The x-independent denominator is formed once, and the numerators of
    all points advance together one factor at a time, each product taken
    in the order of the per-point formula, so every weight is the same
    float. Every factor of the denominator is positive for the a < 0 and
    0 < q < 1 that the registry admits. The tables depend on (a, q, K)
    alone, and the float checks of one grid share them, so the last few
    are cached.
    """
    ps = [1.0]   # q^0..q^399: each infinite product keeps 400 factors
    for _ in range(399):
        ps.append(ps[-1] * q)
    den = 1.0 - a
    for p in ps:
        den *= (1.0 - q * p) * (1.0 - a * q * p) * (1.0 - q / a * p)
    xs, ws = [], []
    power = 1.0
    for _ in range(K + 1):
        xs += [power, a * power]
        ws += [(1.0 - q) * power, -a * (1.0 - q) * power]
        power *= q
    qxs = [q * x for x in xs]
    qxas = [qx / a for qx in qxs]
    nums = [1.0] * len(xs)
    for p in ps:
        nums = [num * ((1.0 - qx * p) * (1.0 - qxa * p))
                for num, qx, qxa in zip(nums, qxs, qxas)]
    return tuple(xs), tuple(w * (num / den) for w, num in zip(ws, nums))


def _relerr(got, want):
    # an inf or NaN side agrees with nothing, and max() would drop a NaN
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf
    scale = max(abs(want), 1e-30)
    return abs(got - want) / scale


def check_rs_moment_u(params, rng, opts):
    """Moments of the discrete weight on [a, 1] against (1-q) times the
    Rogers-Szego polynomial, in floating point."""
    p = _float_params(params)
    a, q, max_m = p["a"], p["q"], p["max_m"]
    xs, ws = _weighted_atoms(p["af"], p["qf"], p["K"])
    worst = 0.0
    lhs = rhs = 0.0
    for m in range(max_m + 1):
        lhs = math.fsum(w * x ** m for x, w in zip(xs, ws))
        rhs = float((1 - q) * poly_at(rogers_szego("F", m, q), a))
        worst = max(worst, _relerr(lhs, rhs))
    status = "numeric-pass" if worst <= TOLERANCE else "numeric-fail"
    return Outcome(status, lhs, rhs, max_m + 1,
                   f"max relative error {worst:.2e} over m<={max_m}")


def _d2_rows(xs, q, k):
    """For each x1 in xs, the list of delta_product((x1, x2), q, k, "D2")
    over x2 in xs, as floats, for k >= 1.

    Each pair factor x1 - q^v x2 is rounded exactly as delta_product
    rounds it, and the factors multiply left to right in the same v
    order, so every value is the same float; q^v x2 is formed once per
    point rather than once per pair. The 2k factors are taken two per
    pass: the first pass starts from their product, as 1 * f is f, and
    each later one multiplies d * f * g left to right.
    """
    cols = [[p * x2 for x2 in xs]
            for p in q_powers(q, -k + 1, k + 1).values()]
    (c0, c1), *rest = zip(cols[::2], cols[1::2])
    for x1 in xs:
        row = [(x1 - a) * (x1 - b) for a, b in zip(c0, c1)]
        for ca, cb in rest:
            row = [d * (x1 - a) * (x1 - b) for d, a, b in zip(row, ca, cb)]
        yield row


def check_bf_u_integral(params, rng, opts):
    """The n-fold interaction integral of the [a, 1] weight against its
    closed form, in floating point."""
    p = _float_params(params)
    a, q, n, k = p["a"], p["q"], p["n"], p["k"]
    xs, ws = _weighted_atoms(p["af"], p["qf"], p["K"])
    if n == 1:
        lhs = math.fsum(ws)
    else:
        lhs = math.fsum(
            w1 * math.fsum(map(operator.mul, ws, row))
            for w1, row in zip(ws, _d2_rows(xs, p["qf"], k)))
    pref = ((1 - q) ** n * (-a) ** (k * n * (n - 1) // 2)
            * q ** (k * k * math.comb(n, 3)
                    - (k * (k - 1) // 2) * math.comb(n, 2)))
    prod = Fraction(1)
    for i in range(1, n + 1):
        prod *= q_pochhammer(q, q, k * i) / q_pochhammer(q, q, k)
    rhs = float(pref * prod)
    err = _relerr(lhs, rhs)
    status = "numeric-pass" if err <= TOLERANCE else "numeric-fail"
    return Outcome(status, lhs, rhs, len(xs) ** n,
                   f"relative error {err:.2e}")

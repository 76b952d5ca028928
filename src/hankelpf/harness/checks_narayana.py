"""Checks for the lattice-path Pfaffian evaluations: the eight
closed-form cases of the block-moment theorem, the classical Pfaffian
corollaries, the shifted displays carrying absolute-value bars, the
three r-general displays, and the generating-function layer.
"""

import math
from fractions import Fraction

from ..scalars import omega, poly_at, poly_gen, sqrt2
from ..sequences import (narayana_gf_series, narayana_poly,
                         omega_specialization, phi_product, sequence_value)
from .common import (Outcome, factorial_tower, hankel_pf, outcome_all,
                     outcome_eq, rand_fraction, seq_pfaffian)


def _tail_sum(n, m2, t0, b0, base):
    """sum_k C(n,k) base^(n-k) prod_{j<=k} (t0+m2(n-j))/(b0+m2(2n-j-1))."""
    total = 0
    for k in range(n + 1):
        term = Fraction(math.comb(n, k)) * base ** (n - k)
        for j in range(1, k + 1):
            term = term * (t0 + m2 * (n - j))
            term = term / (b0 + m2 * (2 * n - j - 1))
        total = total + term
    return total


def _narayana_pf(X, l, n, r, a):
    """Hyperpfaffian of the classical gap of I times the X-type Narayana
    polynomial of degree sum(I) + r - l, evaluated at a."""
    return hankel_pf(l, n, lambda d: poly_at(narayana_poly(X, d), a), r - l)


def check_tilden(params, rng, opts):
    """One closed-form case of the block-moment theorem.

    The case tag picks the entry family (A, B or D type Narayana
    polynomials), the substitution for a, and the matching right side.
    """
    case, l, n = params["case"], params["l"], params["n"]
    m2 = l * l // 2
    c2 = math.comb(l, 2)
    half = math.comb(n, 2)
    tower = factorial_tower(l, n)
    nfact = math.factorial(n)

    if case == "a1":
        r = params["r"]
        lhs = _narayana_pf("A", l, n, r, Fraction(1))
        rhs = (Fraction(tower, 2 ** n * nfact)
               * phi_product(n, r + c2, 1, m2))
    elif case == "a2":
        r = 1 - c2
        a = poly_gen("a")
        lhs = _narayana_pf("A", l, n, r, a)
        rhs = (a ** (n + m2 * half) * Fraction(tower, 2 ** n * nfact)
               * phi_product(n, 1, 1, m2))
    elif case == "a3":
        r = 2 - c2
        s = poly_gen("s")
        lhs = _narayana_pf("A", l, n, r, s * s)
        rhs = (Fraction(2 ** n * tower, nfact) * phi_product(n, 1, 1, m2)
               * s ** (3 * n + 2 * m2 * half)
               * _tail_sum(n, m2, Fraction(3, 2), 3, (s - 1) ** 2 / (4 * s)))
    elif case == "b1":
        r = params["r"]
        lhs = _narayana_pf("B", l, n, r, Fraction(1))
        rhs = Fraction(tower, nfact) * phi_product(n, r + c2, 0, m2)
    elif case == "b2":
        r = -c2
        a = poly_gen("a")
        lhs = _narayana_pf("B", l, n, r, a)
        rhs = (a ** (m2 * half) * Fraction(tower, nfact)
               * phi_product(n, 0, 0, m2))
    elif case == "b3":
        r = 1 - c2
        s = poly_gen("s")
        lhs = _narayana_pf("B", l, n, r, s * s)
        rhs = (Fraction(4 ** n * tower, nfact) * phi_product(n, 0, 0, m2)
               * s ** (n + 2 * m2 * half)
               * _tail_sum(n, m2, Fraction(1, 2), 1, (s - 1) ** 2 / (4 * s)))
    elif case == "d1":
        r = params["r"]
        lhs = _narayana_pf("D", l, n, r, Fraction(1))
        rhs = (Fraction(4 ** n * tower, nfact)
               * phi_product(n, r + c2 - 1, 0, m2)
               * _tail_sum(n, m2, r + c2 - Fraction(1, 2), r + c2,
                           Fraction(-1, 4)))
    else:   # d2
        r = 2 - c2
        w = omega()
        lhs = _narayana_pf("D", l, n, r, w)
        rhs = (w ** (n + m2 * half) * Fraction(4 ** n * tower, nfact)
               * phi_product(n, 1, 0, m2)
               * _tail_sum(n, m2, Fraction(3, 2), 2, Fraction(-5, 8)))
    return outcome_eq(lhs, rhs, terms=math.comb(l * n, l))


# ------------------------------------------------------- plain Pf corollaries

def check_motzkin_pf(params, rng, opts):
    n = params["n"]
    rhs = math.prod(4 * k + 1 for k in range(n))
    return outcome_eq(seq_pfaffian("motzkin", -3, n), rhs, terms=n)


def check_delannoy_pf(params, rng, opts):
    n = params["n"]
    rhs = 2 ** (n * n - 1) * (2 * n - 1)
    rhs *= math.prod(4 * k - 1 for k in range(1, n))
    return outcome_eq(seq_pfaffian("delannoy", -3, n), rhs, terms=n)


def check_schroeder_pf(params, rng, opts):
    n = params["n"]
    rhs = 2 ** (n * n) * math.prod(4 * k + 1 for k in range(n))
    return outcome_eq(seq_pfaffian("schroeder", -2, n), rhs, terms=n)


# --------------------------------------------------- shifted displays, |.| rhs

def _signed_outcome(lhs, rhs, terms, extra=""):
    """The printed right side carries absolute-value bars; the check
    proves the signed equality and records which sign realizes it."""
    if lhs == rhs:
        note = "realized sign +1"
    elif lhs == -rhs:
        note = "realized sign -1 against the printed absolute value"
    else:
        return Outcome("counterexample", lhs, rhs, terms, extra)
    if extra:
        note = f"{note}; {extra}"
    return Outcome("verified", lhs, rhs, terms, note)


def check_motzkin_shift(params, rng, opts):
    n = params["n"]
    lhs = seq_pfaffian("motzkin", -2, n)
    base = 2 ** (2 * n) * math.prod(4 * k + 1 for k in range(n))
    tail = _tail_sum(n, 2, Fraction(3, 2), 3, Fraction(-1, 4))
    return _signed_outcome(lhs, base * abs(tail), n)


def check_delannoy_shift(params, rng, opts):
    n = params["n"]
    s2 = sqrt2()
    lhs = seq_pfaffian("delannoy", -2, n)
    base = (2 * n - 1) * math.prod(4 * k - 1 for k in range(1, n))
    tail = _tail_sum(n, 2, Fraction(1, 2), 1, (3 * s2 - 4) / 8)
    rhs = s2 ** (2 * n * n + 5 * n - 2) * base * tail
    return _signed_outcome(lhs, rhs, n)


def check_schroeder_shift(params, rng, opts):
    n = params["n"]
    s2 = sqrt2()
    lhs = seq_pfaffian("schroeder", -1, n)
    base = math.prod(4 * k + 1 for k in range(n))
    tail = _tail_sum(n, 2, Fraction(3, 2), 3, (3 * s2 - 4) / 8)
    rhs = s2 ** (2 * n * n + 5 * n) * base * tail
    return _signed_outcome(lhs, rhs, n,
                           extra="power-of-two exponent read as n(n+5/2)")


# ------------------------------------------------------- r-general displays

def check_catalan_r(params, rng, opts):
    """The A-type display: the printed factorial product and the
    theorem-derived binomial product agree with the Pfaffian."""
    n, r = params["n"], params["r"]
    lhs = seq_pfaffian("catalan", r - 2, n)
    printed = Fraction(1)
    for j in range(n):
        printed *= Fraction(
            math.factorial(4 * j + 2) * math.factorial(4 * j + 2 * r + 1),
            math.factorial(4 * j + r) * math.factorial(4 * j + r + 2))
    derived = (Fraction(1, 2 ** n * math.factorial(n))
               * phi_product(n, r + 1, 1, 2))
    if lhs == printed == derived:
        return Outcome("verified", lhs, printed, n,
                       "index range read as size 2n")
    return Outcome("counterexample", lhs, printed, n,
                   f"theorem-derived value {derived}")


def check_cbc_r(params, rng, opts):
    """The B-type display: its printed product disagrees with the value
    forced by the theorem (and with the Pfaffian itself); both numbers
    are reported."""
    n, r = params["n"], params["r"]
    lhs = seq_pfaffian("cbc", r - 2, n)
    derived = Fraction(1, math.factorial(n)) * phi_product(n, r + 1, 0, 2)
    if not lhs == derived:
        return Outcome("counterexample", lhs, derived, n,
                       "theorem-derived value broke")
    if r < 1:
        return Outcome(
            "discrepancy-reported", lhs, derived, n,
            "printed product hits (r-1)! at r=0; derived value verifies")
    printed = Fraction(2 ** n)
    for j in range(n):
        printed *= Fraction(
            math.factorial(4 * j) * math.factorial(4 * j + 2 * r + 1)
            * (2 * j + 1),
            math.factorial(4 * j + r - 1) * math.factorial(4 * j + r)
            * (2 * j + r))
    if lhs == printed:
        return Outcome("verified", lhs, printed, n)
    ratio = printed / lhs
    return Outcome(
        "discrepancy-reported", lhs, derived, n,
        f"printed product gives {printed}, off by factor {ratio} "
        "(= prod(4j+r+1)); derived value verifies")


def check_typed_r(params, rng, opts):
    """The D-type display: printed product has factorial poles at
    r in {0,1} and drops the overall sign; the theorem-derived signed
    value is checked throughout."""
    n, r = params["n"], params["r"]
    # the weight 3(i+j+r) - 8 is 3d + 1 at degree d = i+j+r-3
    entries_pf = hankel_pf(
        2, n, lambda d: (3 * d + 1) * sequence_value("catalan", d), r - 3)
    derived = (Fraction(4 ** n, math.factorial(n))
               * phi_product(n, r, 0, 2)
               * _tail_sum(n, 2, r + Fraction(1, 2), r + 1, Fraction(-1, 4)))
    if not entries_pf == derived:
        return Outcome("counterexample", entries_pf, derived, n,
                       "theorem-derived value broke")
    if r < 2:
        return Outcome(
            "discrepancy-reported", entries_pf, derived, n,
            "printed product hits a negative factorial for r<2; "
            "derived signed value verifies")
    printed = Fraction(8 ** n)
    for j in range(n):
        printed *= Fraction(
            math.factorial(4 * j) * math.factorial(4 * j + 2 * r - 1)
            * (2 * j + 1),
            math.factorial(4 * j + r) * math.factorial(4 * j + r - 2)
            * (2 * j + r - 1))
    tail = _tail_sum(n, 2, r + Fraction(1, 2), r + 1, Fraction(-1, 4))
    printed = printed * abs(tail)
    if entries_pf == printed or entries_pf == -printed:
        sign = "+1" if entries_pf == printed else "-1"
        return Outcome("verified", entries_pf, printed, n,
                       f"realized sign {sign}")
    return Outcome(
        "discrepancy-reported", entries_pf, derived, n,
        f"printed product gives {printed}; derived signed value verifies")


# --------------------------------------------------- generating function layer

def check_gf_narayana(params, rng, opts):
    """Series solution of the algebraic generating function against the
    polynomial values, through the declared order."""
    X = params["type"]
    order = params["order"]
    if params["a"] == "random":
        a = rand_fraction(rng, lo=-4, hi=4, den=4,
                          avoid=lambda v: v == 0)
    else:
        a = Fraction(params["a"])
    series = narayana_gf_series(X, a, order)
    pairs = []
    for k in range(order + 1):
        pairs.append((series[k], poly_at(narayana_poly(X, k), a)))
    return outcome_all(pairs, note=f"a = {a}")


def check_special(params, rng, opts):
    """One sequence specialization of a Narayana polynomial family."""
    which = params["which"]
    max_n = params["max_n"]
    pairs = []
    if which == "cat":
        pairs = [(poly_at(narayana_poly("A", k), Fraction(1)),
                  sequence_value("catalan", k)) for k in range(max_n + 1)]
    elif which == "sch":
        pairs = [(poly_at(narayana_poly("A", k), Fraction(2)),
                  sequence_value("schroeder", k)) for k in range(max_n + 1)]
    elif which == "cbc":
        pairs = [(poly_at(narayana_poly("B", k), Fraction(1)),
                  sequence_value("cbc", k)) for k in range(max_n + 1)]
    elif which == "del":
        pairs = [(poly_at(narayana_poly("B", k), Fraction(2)),
                  sequence_value("delannoy", k)) for k in range(max_n + 1)]
    elif which == "dcount":
        pairs = [(poly_at(narayana_poly("D", k), Fraction(1)),
                  (3 * k - 2) * sequence_value("catalan", k - 1))
                 for k in range(2, max_n + 1)]
        pairs.append((poly_at(narayana_poly("D", 1), Fraction(1)), 1))
    elif which == "motzkin":
        pairs = [(omega_specialization("motzkin", k),
                  sequence_value("motzkin", k)) for k in range(max_n + 1)]
    elif which == "ctc":
        pairs = [(omega_specialization("ctc", k), sequence_value("ctc", k))
                 for k in range(max_n + 1)]
    else:   # motd: the cube-root route gives the (1+a)/2 convention at n=1
        pairs = [(omega_specialization("motzkinD", 1), Fraction(1, 2))]
        pairs += [(omega_specialization("motzkinD", k),
                   sequence_value("motzkinD", k))
                  for k in range(2, max_n + 1)]
    return outcome_all(pairs)

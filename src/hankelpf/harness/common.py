"""Shared plumbing for the identity checkers.

Every checker is a plain module-level function

    check(params: dict, rng: random.Random, opts) -> Outcome

so the suite runner can ship it to a worker process.  The Outcome keeps
the raw scalar values; turning them into text is the report layer's
job, which keeps the checkers comparison-only.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from ..blocks import enum_subsets
from ..engines import hyperpfaffian, pfaffian
from ..errors import PoleEncountered
from ..qcalc import DiscreteMeasure, discrete_moment
from ..scalars import poly_at
from ..sequences import narayana_poly, sequence_value
from ..tensors import BlockArray


@dataclass
class Outcome:
    status: str
    lhs: object
    rhs: object
    terms: int
    note: str = ""


def outcome_eq(lhs, rhs, terms, note=""):
    if lhs == rhs:
        return Outcome("verified", lhs, rhs, terms, note)
    return Outcome("counterexample", lhs, rhs, terms, note)


def outcome_all(pairs, note=""):
    """Fold a list of (lhs, rhs) comparisons; the first mismatch wins."""
    for lhs, rhs in pairs:
        if not lhs == rhs:
            return Outcome("counterexample", lhs, rhs, len(pairs), note)
    lhs, rhs = pairs[-1]
    return Outcome("verified", lhs, rhs, len(pairs), note)


# ------------------------------------------------------------------ sampling

def rand_fraction(rng, lo=-3, hi=3, den=5, avoid=None, retries=64):
    for _ in range(retries):
        v = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if avoid is not None and avoid(v):
            continue
        return v
    raise PoleEncountered("rational sampler exhausted its retries")


def rand_q(rng):
    """A rational strictly inside (0, 1); keeps (q;q)_k away from zero."""
    num = rng.randint(1, 8)
    return Fraction(num, rng.randint(num + 1, 13))


def rand_points(rng, n, den=6):
    pts = []
    while len(pts) < n:
        v = Fraction(rng.randint(1, 12), rng.randint(1, den))
        if all(v != p for p in pts):
            pts.append(v)
    return pts


def rand_measure(rng, natoms):
    return DiscreteMeasure(tuple(
        (x, Fraction(rng.randint(1, 4))) for x in rand_points(rng, natoms)))


def random_block_array(rng, l, m, size, lo=-3, hi=3):
    return BlockArray.from_function(l, m, size, lambda *k: rng.randint(lo, hi))


# ------------------------------------------------- moment-style matrix builders

def gap_prefactor(I):
    pref = 1
    for a in range(len(I)):
        for b in range(a + 1, len(I)):
            pref *= I[b] - I[a]
    return pref


def antisym_pfaffian(n, entry):
    """Pf of the 2n x 2n antisymmetric matrix with entry(i, j) above the
    diagonal (1 <= i < j <= 2n); zero entries are left out."""
    entries = {}
    for i in range(1, 2 * n + 1):
        for j in range(i + 1, 2 * n + 1):
            v = entry(i, j)
            if v != 0:
                entries[(i, j)] = v
    return pfaffian(entries, size=2 * n)


def seq_pfaffian(seq, shift, n, weight=None):
    """Pf of the antisymmetric matrix (j-i) * w(i,j) * seq(i+j+shift).

    weight defaults to 1; the matrix has size 2n.
    """
    def entry(i, j):
        v = (j - i) * sequence_value(seq, i + j + shift)
        return v if weight is None else v * weight(i, j)
    return antisym_pfaffian(n, entry)


def moment_block_array(mu, l, ln, u, prefactor):
    entries = {}
    for I in enum_subsets(ln, l):
        v = prefactor(I) * discrete_moment(mu, sum(I) + u - l)
        if v != 0:
            entries[(I,)] = v
    return BlockArray(l, 1, ln, entries)


def narayana_block_pf(X, l, n, r, a):
    """Hyperpfaffian of the block array whose entry at an l-subset I is
    prod_{s<t}(I_t - I_s) times the X-type Narayana polynomial of degree
    (sum I) + r - l evaluated at a; each degree is evaluated once."""
    values = {}
    entries = {}
    for I in enum_subsets(l * n, l):
        d = sum(I) + r - l
        if d not in values:
            values[d] = poly_at(narayana_poly(X, d), a)
        v = gap_prefactor(I) * values[d]
        if v != 0:
            entries[(I,)] = v
    return hyperpfaffian(BlockArray(l, 1, l * n, entries))


def factorial_tower(l, n):
    """prod_{k=1..l} ((k-1)!)^n as an exact integer."""
    out = 1
    for k in range(1, l + 1):
        out *= math.factorial(k - 1) ** n
    return out

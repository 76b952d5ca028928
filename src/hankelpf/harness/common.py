"""Shared plumbing for the identity checkers.

Every checker is a plain module-level function

    check(params: dict, rng: random.Random, opts) -> Outcome

so the suite runner can ship it to a worker process.  The Outcome keeps
the raw scalar values; turning them into text is the report layer's
job, which keeps the checkers comparison-only.

Most left sides are the (hyper)pfaffian of a Hankel-type moment array,
entry pref(I) * moment(sum(I) + shift) on the l-subsets I of [l*n];
`hankel_pf` is the one builder for all of them.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..engines import hyperpfaffian
from ..errors import BoundsError, PoleEncountered
from ..qcalc import DiscreteMeasure
from ..sequences import sequence_value
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
    """Fold a list of (lhs, rhs) comparisons; the first mismatch wins.

    An empty list means the parameters left nothing to compare, which
    raises BoundsError rather than verifying vacuously.
    """
    if not pairs:
        raise BoundsError("the parameters leave no comparison to make"
                          + (f" ({note})" if note else ""))
    for lhs, rhs in pairs:
        if not lhs == rhs:
            return Outcome("counterexample", lhs, rhs, len(pairs), note)
    lhs, rhs = pairs[-1]
    return Outcome("verified", lhs, rhs, len(pairs), note)


# ------------------------------------------------------------------ sampling

def rand_fraction(rng, lo, hi, den, avoid=None):
    for _ in range(64):
        v = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if avoid is not None and avoid(v):
            continue
        return v
    raise PoleEncountered("rational sampler exhausted its retries")


def rand_q(rng):
    """A rational strictly inside (0, 1); keeps (q;q)_k away from zero."""
    num = rng.randint(1, 8)
    return Fraction(num, rng.randint(num + 1, 13))


def rand_points(rng, n):
    pts = []
    while len(pts) < n:
        v = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        if all(v != p for p in pts):
            pts.append(v)
    return pts


def rand_measure(rng, natoms):
    return DiscreteMeasure(tuple(
        (x, Fraction(rng.randint(1, 4))) for x in rand_points(rng, natoms)))


def random_block_array(rng, l, m, size, lo=-3, hi=3):
    return BlockArray.from_function(l, m, size, lambda *k: rng.randint(lo, hi))


# ------------------------------------------------- Hankel-type moment arrays

def gap_prefactor(I):
    """prod_{s<t} (I_t - I_s)."""
    return math.prod(b - a for a, b in itertools.combinations(I, 2))


def q_gap_prefactor(q):
    """I -> prod_{s<t} (q^(I_s - 1) - q^(I_t - 1)).

    Each pair difference is computed once per returned function, that
    is once per `hankel_pf` call: an l-subset array on [l*n] has
    comb(l*n, l) entries but only comb(l*n, 2) pairs.
    """
    @functools.cache
    def gap(a, b):
        return q ** (a - 1) - q ** (b - 1)
    return lambda I: math.prod(itertools.starmap(
        gap, itertools.combinations(I, 2)))


def hankel_pf(l, n, pref, moment, shift):
    """Hyperpfaffian of the Hankel-type moment array on [l*n].

    The entry at an l-subset I is pref(I) * moment(sum(I) + shift), so
    l = 2 gives the Pfaffian of the 2n x 2n antisymmetric matrix with
    pref((i, j)) * moment(i + j + shift) above the diagonal. `moment` is
    called once per degree. n < 0 raises BoundsError; n = 0 gives 1.
    """
    if n < 0:
        raise BoundsError(f"need n >= 0, got n={n}")
    moment = functools.cache(moment)    # local to this call
    return hyperpfaffian(BlockArray.from_function(
        l, 1, l * n, lambda I: pref(I) * moment(sum(I) + shift)))


def seq_pfaffian(seq, shift, n):
    """Pf of the antisymmetric matrix (j - i) * seq(i + j + shift), size 2n."""
    return hankel_pf(2, n, gap_prefactor,
                     lambda d: sequence_value(seq, d), shift)


def factorial_tower(l, n):
    """prod_{k=1..l} ((k-1)!)^n as an exact integer."""
    out = 1
    for k in range(1, l + 1):
        out *= math.factorial(k - 1) ** n
    return out

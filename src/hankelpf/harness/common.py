"""Shared plumbing for the identity checkers.

Every checker is a plain module-level function

    check(params: dict, rng: random.Random, opts) -> Outcome

so the suite runner can ship it to a worker process.  The Outcome keeps
the raw scalar values; turning them into text is the report layer's
job, which keeps the checkers comparison-only.

Most left sides are the (hyper)pfaffian of a Hankel-type moment array,
entry pref(I) * moment(sum(I) + shift) on the l-subsets I of [l*n];
`hankel_pf` is the one builder for all of them. pref is the classical
index gap, or with a q the q-gap, whose pair factors at q = a/D are
ints over one power of D (`gap_nodes`): the array holds int prefactors
times the moments, and the hyperpfaffian divides once.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..engines import hyperpfaffian
from ..errors import BoundsError, PoleEncountered
from ..qcalc import DiscreteMeasure
from ..scalars import sdiv
from ..scalars.poly import num_den
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

def gap_nodes(size, q=None):
    """(x, den): the gap prefactor of an l-subset I of [size] is the int
    prod_{s<t} (x[I_t] - x[I_s]) over den**C(l, 2).

    With no q it is the classical gap prod_{s<t} (I_t - I_s): x[i] = i
    and den = 1. With q it is the q-gap prod_{s<t} (q^(I_s-1) - q^(I_t-1)):
    at q = a/D (`num_den`; D = 1 for an int or a polynomial q) the node
    x[i] = -a^(i-1) D^(size-i) is -q^(i-1) D^(size-1), an int for a
    rational q, and den = D^(size-1).
    """
    if q is None:
        return range(size + 1), 1
    a, D = num_den(q)
    return ([0] + [-a ** (i - 1) * D ** (size - i)
                   for i in range(1, size + 1)], D ** max(size - 1, 0))


def hankel_pf(l, n, moment, shift, q=None):
    """Hyperpfaffian of the Hankel-type moment array on [l*n].

    The entry at an l-subset I is pref(I) * moment(sum(I) + shift), so
    l = 2 gives the Pfaffian of the 2n x 2n antisymmetric matrix with
    pref((i, j)) * moment(i + j + shift) above the diagonal. pref is the
    gap prefactor of `gap_nodes(l * n, q)`: the classical gap with no q,
    the q-gap with q. The array holds the int numerators of the
    prefactors times the moments, so the prefactors cost int products
    only, and the hyperpfaffian, n entries per term, is divided once by
    den**(C(l, 2) n) when that is not 1: an int q, or n = 0, divides
    nothing. `moment` is called once per degree. n < 0 raises
    BoundsError; n = 0 gives 1.
    """
    if n < 0:
        raise BoundsError(f"need n >= 0, got n={n}")
    x, den = gap_nodes(l * n, q)
    moment = functools.cache(moment)    # local to this call
    pf = hyperpfaffian(BlockArray.from_function(
        l, 1, l * n, lambda I: moment(sum(I) + shift) * math.prod(
            [x[t] - x[s] for s, t in itertools.combinations(I, 2)])))
    scale = den ** (math.comb(l, 2) * n)
    return pf if scale == 1 else sdiv(pf, scale)


def seq_pfaffian(seq, shift, n):
    """Pf of the antisymmetric matrix (j - i) * seq(i + j + shift), size 2n."""
    return hankel_pf(2, n, lambda d: sequence_value(seq, d), shift)


def factorial_tower(l, n):
    """prod_{k=1..l} ((k-1)!)^n as an exact integer."""
    out = 1
    for k in range(1, l + 1):
        out *= math.factorial(k - 1) ** n
    return out

"""Exact engines: hyperdeterminants, (hyper)pfaffians, hyperhafnians,
minors, Laplace expansion, block-array flattening, and the minor
summation construction.

Design notes that matter for reading this file:

* One kernel, `_expand`, computes the determinant, hyperdeterminant,
  Pfaffian, hyperpfaffian and hyperhafnian (through `_block_sum`) and
  every minor of one row set at once (through `row_minors`): each is a
  sum over m-tuples of ordered block partitions, read as a dynamic
  program over free-point bitmasks.
* Each call's start masks are the points it reads: all of a full
  array's, a sub-array's `subsets` (the Pf(A_P) of the minor summation)
  or `row_minors`' rows. No array is copied; `_indices` checks both.
* No division inside the expansion. Scalars may be polynomials, so all
  algorithms are expansion-based; the usual 1/n! prefactors are removed
  by fixing the block order of the first summation slot (see
  `_block_sum`).
* Exact types never degrade. The expansion only uses +, - and *, so int
  entries give a plain int. When every entry a call reads is exactly a
  Fraction, a UniPoly or a QuadExt, with the UniPolys all in one
  variable or the QuadExts all in one extension, the kernel runs over
  packed ints (`_packed_entries`): each entry's int numerators are
  packed into one int, its value at x = 2^B, which is scaled once by
  D / den to the lcm D of the entries' denominators. The packer returns
  `(packed, unpack)`, and `unpack` reads each result once as int digits
  over D**steps. Those give a UniPoly in the entries' variable
  (`poly._poly`), or a QuadExt of the entries' extension
  (`quad_reduce`); either is a Fraction when it is constant, even when
  whole or zero.
  All-Fraction entries are the one-digit case. A result no term
  reaches, because no term has all its entries present, is int 0.
  Mixed int/Fraction, UniPoly with QuadExt, RatFunc, two-variable and
  two-extension entries are expanded as they are, so a result that
  only int-only terms reach stays an int, and two extensions still
  raise IncompatibleTags.
* Signs are applied by negating, never by scalar powers.
* The kernel runs in two passes, as the symbolic and numeric phases of
  a sparse direct solver do. A shape pass (`_Plan`) builds the state
  graph of one (l, sizes, steps) shape as a fan-out per layer and flat
  integer arrays, where `sizes` holds the point counts of the start
  masks, so one plan serves every start of those sizes. `_PLANS` caches
  it, bounded by PLAN_CACHE_TRANSITIONS transitions in all, because the
  same few dozen shapes recur across the calls of a run. A value pass reads
  each entry once, by this start's blocks, and accumulates over those
  arrays. The arrays hold small unsigned ints and no Python objects,
  so a cached transition costs about 8 bytes and the garbage collector
  never scans the cache. A plan holds its state graph and nothing else:
  `row_minors` reads the columns and signs of its final states from
  small per-axis tables (`_column_sets`), per call.
* A plan costs a few value passes to build, not dozens. Each slot's
  free masks are numbered by combinatorial rank, so a state's number is
  arithmetic on its slots' ranks and `_plan_size` counts every layer in
  closed form before anything is built. The columns come from one small
  option table per slot and layer, paired by list comprehensions, with
  no dict keyed by a tuple. On a 2-core Xeon with CPython 3.11 a build
  costs two to three value passes over the same transitions (about
  0.08 s against 0.03 s for a 22-point Pfaffian), so a shape over the
  cache bound pays about three value passes a call.
* One contraction, `contract_slots`, builds both minor summation
  kernels: `msf_build_Q` here and `qcalc.debruijn_kernel`, whose atom
  weights are a diagonal array. It sums an array against one table of
  minors per slot, one slot at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from fractions import Fraction

from .errors import (BoundsError, CardinalityMismatch,
                     CardinalityNotMultipleOfL, OddBlockLength, OddDimension,
                     OddSize, ShapeMismatch)
from .scalars.poly import UniPoly, _poly, kron_pack, kron_unpack
from .scalars.quadext import QuadExt, quad_reduce
from .tensors import BlockArray, Tensor


def _packed_entries(keyed, plan):
    """The values read, `keyed` (None where missing), as packed ints, or
    None when they must run as they are. Unread entries play no part.

    Packing applies when every value is exactly a Fraction, a UniPoly or
    a QuadExt, with the UniPolys all in one variable or the QuadExts all
    in one extension (p, r, sym), not both. A QuadExt u + v*theta counts
    as the polynomial u + v*theta in theta. Each value is read as int
    numerators over one denominator: a UniPoly's own `nums` and `den`,
    a Fraction's numerator and denominator. Over the lcm D of those
    denominators, each value becomes the int `kron_pack(nums, B)`, its
    value at x = 2^B, times D / den once. Evaluation at 2^B is a ring
    map, so the kernel's +, - and * over these ints give each final
    state's polynomial evaluated at 2^B, times D**steps, where steps
    counts the plan's layers. For QuadExts that polynomial is then
    reduced by theta^2 = p*theta + r (`quad_reduce`), which gives the
    same element as reducing after every product, because
    Q[theta] -> Q(theta) is a ring map too.

    Why B is safe: unpacking returns the true coefficients when each has
    absolute value below 2^(B-1). A final coefficient sums one term per
    path into its state. A term is a product of `steps` values, each
    with at most L coefficients of absolute value at most C (the largest
    numerator times D / den), so its coefficients are at most
    C**steps * L**(steps-1). The paths into any state are at most all
    the paths from the start masks, the product of the plan's fan-out
    per layer. So B is one more than the bit length of
    (paths) * C**steps * L**(steps-1). A QuadExt has L = 2, and the same
    derivation holds.

    Returns (packed, unpack), where `unpack(v)` is the value of a final
    state whose packed value is v: `_poly(var, ...)`,
    `quad_reduce(p, r, ..., sym=sym)`, or a Fraction. With only
    Fractions, L = 1: each value and each final state is one int, and
    `unpack` is Fraction over D**steps.
    """
    values = [v for v in keyed if v is not None]
    steps = len(plan.steps)
    if not steps or not values:
        return None
    if all(type(v) is Fraction for v in values):
        D = math.lcm(*[v.denominator for v in values])
        packed = [v if v is None else v.numerator * (D // v.denominator)
                  for v in keyed]
        return packed, functools.partial(Fraction, denominator=D ** steps)
    tag = None
    parts = []      # (int numerators, denominator) per value
    for v in values:
        if type(v) is Fraction:
            a, d = v.as_integer_ratio()
            parts.append(((a,), d))
        elif type(v) is UniPoly and tag in (None, v.var):
            tag = v.var
            parts.append((v.nums, v.den))
        elif type(v) is QuadExt and tag in (None, (v.p, v.r, v.sym)):
            tag = (v.p, v.r, v.sym)
            (a, b), (c, d) = v.u.as_integer_ratio(), v.v.as_integer_ratio()
            parts.append(((a * d, c * b), b * d))
        else:
            return None
    if type(tag) is tuple:
        p, r, sym = tag
        finish = functools.partial(quad_reduce, p, r, sym=sym)
    else:
        finish = functools.partial(_poly, tag)
    D = math.lcm(*[d for _, d in parts])
    L = max([len(nums) for nums, _ in parts])
    C = max([max(map(abs, nums)) * (D // d) for nums, d in parts])
    paths = math.prod([n for n, _, _ in plan.steps])
    B = (paths * C ** steps * L ** (steps - 1)).bit_length() + 1
    ints = iter([kron_pack(nums, B) * (D // d) for nums, d in parts])
    packed = [v if v is None else next(ints) for v in keyed]
    digits, scale = steps * (L - 1) + 1, D ** steps
    return packed, lambda v: finish(kron_unpack(v, B, digits), scale)


# The plan cache holds at most this many transitions in all. A cached
# transition costs at most about 8 bytes (two array cells), so a full
# cache holds about 2 MB; the full suite's 43 plans take 79k
# transitions, under 1 MB.
PLAN_CACHE_TRANSITIONS = 1 << 18


def _comb(n, k):
    """C(n, k), and 0 when n or k is negative."""
    return math.comb(n, k) if n >= 0 and k >= 0 else 0


def _plan_size(l, sizes, steps):
    """The size of the plan of `steps` block steps from start masks of
    `sizes` points, in closed form.

    Returns (states, fanout): states[t] for the layers t = 0..steps, and
    fanout[t], the transitions out of each state of layer t < steps.
    After t steps the first slot has used its t lowest points and
    t*l - t others, so it holds any (|P_0| - t*l)-subset of the rest,
    and slot s holds any (|P_s| - t*l)-subset of its points; every
    combination is reached. The first slot then takes its lowest free
    point and l - 1 of the others, slot s any l free points.
    """
    head, rest = sizes[0], sizes[1:]
    states, fanout = [], []
    for t in range(steps + 1):
        used = t * l
        states.append(_comb(head - t, head - used)
                      * math.prod(_comb(n, used) for n in rest))
        fanout.append(_comb(head - used - 1, l - 1)
                      * math.prod(_comb(n - used, l) for n in rest))
    return states, fanout[:steps]


_TYPECODES = tuple((t, 8 * array(t).itemsize) for t in "BHIQ")


def _column(values, top):
    """`values`, all in [0, top], as an array of the narrowest typecode
    that holds them, or as a tuple when top needs more than 64 bits."""
    for t, bits in _TYPECODES:
        if top >> bits == 0:
            # bytes() reads a list into a byte array three times faster
            return array(t, bytes(values) if t == "B" else values)
    return tuple(values)


def _masks(ground, l, t, head):
    """One slot's free masks after t steps of l-blocks, in rank order:
    the (n - t*l)-subsets of its n bits `ground`, less its t lowest bits
    when it is the first slot."""
    k = len(ground) - t * l
    return list(map(sum, itertools.combinations(
        ground[t:] if head else ground, k))) if k >= 0 else []


@functools.lru_cache(maxsize=256)
def _slot_blocks(l, mask, pad):
    """The blocks of one slot's points in rank order (lexicographic), as
    entry key parts; with `pad`, padded with None to a power of two."""
    pts = [p for p in range(1, mask.bit_length()) if mask >> p & 1]
    blocks = tuple(pts if l == 1 else itertools.combinations(pts, l))
    if pad:
        blocks += (None,) * ((1 << (len(blocks) - 1).bit_length())
                             - len(blocks))
    return blocks


def _subsets(bits, l):
    """The masks of the l-subsets of the bit tuple `bits`, in rank order."""
    return bits if l == 1 else map(sum, itertools.combinations(bits, l))


def _slot_table(l, head, ground, cur, nxt, weight, block_key):
    """The options of every free mask one slot can hold before a step.

    `cur` holds the masks, the k-subsets of the bits `ground` in rank
    order. The options of each are its blocks in rank order, with
    `head` only those that hold its lowest free point. Returns two
    lists, over the masks and then their options: `weight` times the
    rank in `nxt` of the mask the option leaves, and the option's
    `block_key` with its sign flip in bit 0.

    The flip is the parity of the pairs (x in the block, y free after
    it, y < x). If the j-th point of the block (j from 0) is the i_j-th
    free point (from 0), j of the i_j free points below it are in the
    block, so there are sum(i_j - j) pairs: the same for every mask.
    """
    k, lead = cur[0].bit_count(), 1 if head else 0
    flips = [(s - l * (l - 1) // 2) & 1 for s in map(
        sum, itertools.combinations(range(lead, k), l - lead))]
    frees = itertools.combinations(ground, k)
    if head:
        chosen = [free[0] + b for free in frees
                  for b in _subsets(free[1:], l - 1)]
    else:
        chosen = [b for free in frees for b in _subsets(free, l)]
    rank = dict(zip(nxt, range(0, len(nxt) * weight, weight)))
    return ([rank[f - b] for f, b in zip(itertools.chain.from_iterable(
                map(itertools.repeat, cur, itertools.repeat(len(flips)))),
                chosen)],
            [block_key[b] | f for b, f in zip(chosen, itertools.cycle(flips))])


def _layers(l, sizes, steps, states, fanout):
    """The layers of `_Plan` for start masks of `sizes` points: each
    step's fan-out and columns.

    They are built on the points' positions, since they depend on the
    sizes alone. Each step builds one option table per slot
    (`_slot_table`) and pairs the tables, the last slot's ranks and
    options outermost, so that each state's transitions stay together.
    """
    m = len(sizes)
    grounds = [tuple(1 << i for i in range(n)) for n in sizes]
    masks = [[_masks(g, l, t, s == 0) for t in range(steps + 1)]
             for s, g in enumerate(grounds)]
    # slot s's block keys: its block ranks, shifted past the flip in
    # bit 0 and the fields of the later slots; the first slot's field is
    # the top one, so only the others are padded to a power of two
    block_keys, shift = [None] * m, 1
    for s in reversed(range(m)):
        n = math.comb(sizes[s], l)
        block_keys[s] = dict(zip(map(sum, itertools.combinations(
            grounds[s], l)), range(0, n << shift, 1 << shift)))
        top = (max(n, 1) << shift) - 1
        shift += (n - 1).bit_length()
    cols = []
    for t in range(steps):
        # one option table per slot, the last slot first
        tables, weight = [], 1
        for s in reversed(range(m) if states[t] * fanout[t] else ()):
            tables.append(_slot_table(
                l, s == 0, grounds[s][t:] if s == 0 else grounds[s],
                masks[s][t], masks[s][t + 1], weight, block_keys[s]))
            weight *= len(masks[s][t + 1])
        # the option pairs of each state of the first m - 1 slots, in
        # state order: rank parts add, and key parts xor, because their
        # fields are disjoint and their flips add mod 2
        prefixes = [([0], [0])]
        for (d, k), free in zip(tables[:0:-1], masks):
            f = len(d) // len(free[t])
            prefixes = [([a + b for a in pd for b in d[i:i + f]],
                         [a ^ b for a in pk for b in k[i:i + f]])
                        for pd, pk in prefixes for i in range(0, len(d), f)]
        # one prefix at a time, so that no list holds a whole layer; the
        # empty prefix (m = 1) adds nothing, so its table is not copied
        dst, key = _column((), states[t + 1]), _column((), top)
        d, k = tables[0] if tables else ((), ())
        for pd, pk in prefixes:
            dst += _column(d if pd == [0] else [a + b for a in d for b in pd],
                           states[t + 1])
            key += _column(k if pk == [0] else [a ^ b for a in k for b in pk],
                           top)
        cols.append((fanout[t], key, dst))
    return tuple(cols)


class _Plan:
    """The state graph of one (l, sizes, steps) shape, without values.

    The shape pass of `_expand`, for start masks of `sizes` points: one
    plan serves every start of those sizes. A state holds one free mask
    per slot. After t steps slot s holds a k-subset of a ground set (its
    start points; for the first slot, less its t lowest), and each mask
    is numbered by its rank among those subsets (lexicographic order of
    the combinatorial number system, Knuth, TAOCP 4A 7.2.1.3). A state
    is numbered by its slots' ranks in mixed radix, the last slot
    fastest, and `_plan_size` counts each layer in closed form. The
    columns (`_layers`) are built on the points' positions. `steps`
    holds one triple per step, a fan-out per layer and two columns:
    - fan-out: the int number of transitions that leave each state of
      the layer, the same for all (`_plan_size`); the transitions are
      stored grouped by source, in state order;
    - key: for each transition, 2*k + flip, with k the index of the entry
      key it multiplies by and flip the parity of its sign flips;
    - dst: for each transition, its target state's index in the next
      layer.
    Key k is the m-tuple of blocks numbered k in `product(*blocks)`,
    where blocks[s] is `_slot_blocks(l, start[s], s > 0)`: slot s's
    blocks in rank order, for s > 0 padded with None to a power of two,
    so that the slots' fields of k are disjoint bits.
    All columns are arrays of the narrowest typecode (a key column wider
    than 64 bits is kept in a tuple), so a plan holds no per-state or
    per-key Python objects, and nothing but the graph: `row_minors`
    reads its final states' columns per call. `states` counts each
    layer's states, and `transitions`, what the plan cache charges, is
    the length of the key columns together.
    """

    __slots__ = ("steps", "states", "transitions")

    def __init__(self, l, sizes, steps):
        states, fanout = _plan_size(l, sizes, steps)
        self.steps = _layers(l, sizes, steps, states, fanout)
        self.states = tuple(states)
        self.transitions = sum(map(operator.mul, states, fanout))


class _PlanCache:
    """Plans by (l, sizes, steps), least recently used first, bounded by
    their total `weight`, the sum of their transitions. A plan over the
    bound on its own is built for its call and dropped.
    """

    def __init__(self, limit):
        self.limit = limit
        self.weight = 0
        self.plans = {}

    def get(self, l, sizes, steps):
        shape = (l, sizes, steps)
        plan = self.plans.pop(shape, None)
        if plan is None:
            plan = _Plan(l, sizes, steps)
        else:
            self.weight -= plan.transitions
        if plan.transitions > self.limit:
            return plan
        self.weight += plan.transitions
        while self.weight > self.limit:
            self.weight -= self.plans.pop(next(iter(self.plans))).transitions
        self.plans[shape] = plan
        return plan


_PLANS = _PlanCache(PLAN_CACHE_TRANSITIONS)


def _expand(entries, l, start, steps, signed):
    """Run `steps` block steps from the free masks `start`, one per slot.

    `entries` maps m-tuples of blocks to values; a block is a sorted
    l-tuple of points, or the bare point when l = 1, and missing keys
    are zero. A state holds one bitmask of free points per slot (bit p
    for point p). Each step gives every slot its next block: the first
    slot the block holding its lowest free point, the others any free
    block (`_slot_table`), and multiplies by the entry those blocks
    key. With `signed` the sign flips of the steps are summed, which
    counts, per slot, the pairs (x chosen, y still free, y < x).

    Two passes. The shape pass (`_Plan`) depends on l, the sizes of the
    start masks and steps alone, so `_PLANS` caches one plan per
    (l, sizes, steps), least recently used first, up to
    PLAN_CACHE_TRANSITIONS transitions in all; a plan over that bound
    is built for its call and dropped. Tests swap `_PLANS` for a fresh
    or a zero-bound cache. The value pass reads each entry of this
    start's blocks once into a list, in the order of the plan's key
    numbering over them (`_slot_blocks`), packs the values read, sets
    each next to its negation, and accumulates layer by layer, taking
    the layer's fan-out of transitions from the plan's columns for each
    state, building no tuple and probing no dict per transition.

    Returns the list of the final states' values, in state order: the
    product, in rank order, of each slot's final masks among its start
    points; a state no path reaches holds None (zero).
    Fraction, one-variable UniPoly and one-extension QuadExt values run
    as packed ints (`_packed_entries`, which returns `(packed, unpack)`),
    and each final state is unpacked once into a value.
    """
    sizes = tuple([p.bit_count() for p in start])
    plan = _PLANS.get(l, sizes, steps)
    keyed = list(map(entries.get, itertools.product(
        *[_slot_blocks(l, p, s > 0) for s, p in enumerate(start)])))
    packed = _packed_entries(keyed, plan)
    if packed is not None:
        keyed, unpack = packed
    vals = [None] * (2 * len(keyed))
    vals[::2] = keyed
    vals[1::2] = [v if v is None else -v for v in keyed] if signed else keyed
    cur = [1]
    for (n, key, dst), size in zip(plan.steps, plan.states[1:]):
        nxt = [None] * size
        moves = zip(key, dst)
        for acc in cur:
            if acc is None:
                next(itertools.islice(moves, n, n), None)
                continue
            for k, d in itertools.islice(moves, n):
                v = vals[k]
                if v is None:
                    continue
                old = nxt[d]
                nxt[d] = acc * v if old is None else old + acc * v
        cur = nxt
    if packed is not None:
        cur = [None if v is None else unpack(v) for v in cur]
    return cur


def _block_sum(entries, l, slots, signed=True):
    """Sum over tuples of ordered partitions of `slots`, one collection
    of points per slot (all of one size), into l-blocks.

    Each term is the product of the values read slot by slot down the
    partitions. The first slot is pinned to blocks ordered by their
    minima, which removes the 1/n! of the defining sums. With `signed`
    each term also carries the product of the slot-word signs: the flips
    of `_expand` count exactly the inversions of each slot word. A slot
    that misses a point gives 0 before any mask or plan is built.
    """
    points = len(slots[0])
    if not points:
        return 1
    used = zip(*entries) if l == 1 else (
        itertools.chain.from_iterable(col) for col in zip(*entries))
    if not entries or any(len(col) < points or not col.issuperset(P)
                          for P, col in zip(slots, map(set, used))):
        return 0    # a slot misses a point: no term has all its entries
    start = tuple([sum(1 << p for p in P) for P in slots])
    (value,) = _expand(entries, l, start, points // l, signed)
    return 0 if value is None else value


def _require_even_order(A: Tensor):
    if A.m % 2 != 0:
        raise OddDimension(
            f"hyperdeterminant needs even dimension, got m={A.m}")


@functools.lru_cache(maxsize=256)
def _column_sets(n, r):
    """The r-subsets S of [n], in the rank order of their complements,
    which are the final masks of a slot that starts full (`_masks`), and
    the parity of each sum(S)."""
    pts = range(1, n + 1)
    rests = itertools.combinations(pts, n - r) if r <= n else ()
    sets = tuple(tuple(sorted(set(pts).difference(rest))) for rest in rests)
    return sets, tuple(sum(S) & 1 for S in sets)


def _indices(idx, size):
    """`idx` as a tuple of distinct ints in [1, size], else BoundsError;
    each is tested before any is hashed."""
    idx = tuple(idx)
    if not all(type(i) is int and 1 <= i <= size for i in idx) \
            or len(set(idx)) != len(idx):
        raise BoundsError(f"{idx} are not distinct indices of [{size}]")
    return idx


def row_minors(A: Tensor, rows):
    """Hyperdeterminant of every minor of A on the first-axis rows `rows`.

    Returns {(S_2, ..., S_m): value} with one sorted index tuple per
    other axis, |S_k| = len(rows); minors that are absent are zero. One
    `_expand` pass: the first slot starts from the row mask, the others
    from the full mask of their axis, and r = len(rows) steps are run,
    so the final state (0, rest_2, ..., rest_m) holds the minor on the
    columns S_k = full_k - rest_k, read from A's own entries. The final
    states are the product of each axis's final masks in rank order,
    the last axis fastest, so `itertools.product` of the axes'
    `_column_sets` walks them in state order. The flips of `_expand`
    also count, per column axis, the free points outside S_k below each
    chosen point: sum(S_k) - r(r+1)/2 of them, which depends on S_k
    alone, so an odd total over the axes is undone by a negation.
    `rows` must be distinct first-axis indices, else BoundsError.
    """
    _require_even_order(A)
    rows = _indices(rows, A.shape[0])
    r = len(rows)
    full = tuple((1 << s + 1) - 2 for s in A.shape[1:])
    values = _expand(A.entries, 1, (sum(1 << i for i in rows),) + full,
                     r, True)
    fixed = (A.m - 1) * r * (r + 1) // 2
    tables = [_column_sets(n, r) for n in A.shape[1:]]
    cols = itertools.product(*[sets for sets, _ in tables])
    flips = itertools.product(*[parities for _, parities in tables])
    return {c: -v if (fixed + sum(p)) & 1 else v
            for c, p, v in zip(cols, flips, values) if v is not None}


def hyperdet(A: Tensor):
    """Even-dimensional hyperdeterminant.

    Sum over (m-1)-tuples of permutations of the column axes, sign of
    their product, times the diagonal-style product down the first
    axis: the l = 1 case of `_block_sum`, whose pinned first slot is
    the row axis.
    """
    _require_even_order(A)
    return _block_sum(A.entries, 1, (range(1, A.n + 1),) * A.m)


def det_matrix(rows):
    """Ordinary determinant of a square list-of-lists, division-free."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatch("determinant needs a square matrix")
    entries = {(i, j): v for i, row in enumerate(rows, start=1)
               for j, v in enumerate(row, start=1) if v != 0}
    return _block_sum(entries, 1, (range(1, n + 1),) * 2)


class ExteriorElement:
    """Element of the (m-1)-fold product of exterior algebras.

    terms maps (m-1)-tuples of sorted index tuples to scalars. The
    product concatenates slotwise with the anticommutation sign and
    kills overlapping slots.
    """

    __slots__ = ("slots", "terms")

    def __init__(self, slots: int, terms=None):
        self.slots = slots
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def _merge(s, t):
        """Concatenate sorted tuples; (merged, sign) or (None, 0)."""
        inversions = 0
        for b in t:
            for a in s:
                if a == b:
                    return None, 0
                if a > b:
                    inversions += 1
        return tuple(sorted(s + t)), -1 if inversions % 2 else 1

    def __mul__(self, other):
        if not isinstance(other, ExteriorElement) or other.slots != self.slots:
            return NotImplemented
        out: dict = {}
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                sign = 1
                merged = []
                for s, t in zip(key1, key2):
                    st, sg = self._merge(s, t)
                    if sg == 0:
                        break
                    sign *= sg
                    merged.append(st)
                else:
                    term = c1 * c2
                    if sign < 0:
                        term = -term
                    key = tuple(merged)
                    if key in out:
                        out[key] = out[key] + term
                    else:
                        out[key] = term
        return ExteriorElement(self.slots, out)


def hyperdet_via_exterior(A: Tensor):
    """Independent oracle for hyperdet, via anticommuting symbols.

    Builds one generator per row, multiplies them in the (m-1)-fold
    exterior product, and reads off the coefficient of the full wedge.
    """
    _require_even_order(A)
    n = A.n
    slots = A.m - 1
    rows: list[dict] = [dict() for _ in range(n + 1)]
    for idx, v in A.entries.items():
        key = tuple((j,) for j in idx[1:])
        rows[idx[0]][key] = v
    acc = ExteriorElement(slots, {((),) * slots: 1})
    for i in range(1, n + 1):
        acc = acc * ExteriorElement(slots, rows[i])
        if not acc.terms:
            return 0
    full = tuple(range(1, n + 1))
    return acc.terms.get((full,) * slots, 0)


def minor_tensor(A: Tensor, index_lists) -> Tensor:
    """Restrict each axis to the given index list, order preserved.

    Lists may be unsorted (the hyper-minor identities need arbitrary
    row sequences); all must share one cardinality.
    """
    index_lists = [tuple(lst) for lst in index_lists]
    if len(index_lists) != A.m:
        raise CardinalityMismatch(
            f"got {len(index_lists)} index lists for an {A.m}-axis tensor")
    cards = {len(lst) for lst in index_lists}
    if len(cards) != 1:
        raise CardinalityMismatch(
            f"index lists have mixed cardinalities {sorted(cards)}")
    r = cards.pop()
    for axis, (lst, s) in enumerate(zip(index_lists, A.shape)):
        for i in lst:
            if type(i) is not int or not 1 <= i <= s:
                raise BoundsError(
                    f"index {i!r} out of [1,{s}] on axis {axis + 1}")
    out = Tensor((r,) * A.m)
    for pos in itertools.product(range(r), repeat=A.m):
        src = tuple([lst[p] for lst, p in zip(index_lists, pos)])
        v = A.entries.get(src, 0)
        if v != 0:
            out.entries[tuple([p + 1 for p in pos])] = v
    return out


def hyperdet_laplace(A: Tensor, subset):
    """Hyperdeterminant via expansion along the row subset `subset`.

    Splits the rows into `subset` and its complement, sums minor times
    signed complementary minor over all column-axis subsets. Both
    minor tables come from one `row_minors` pass each, and `row_minors`
    refuses a `subset` that is not distinct row indices.
    """
    _require_even_order(A)
    points = range(1, A.n + 1)
    subset = tuple(subset)
    minors = row_minors(A, subset)
    co_minors = row_minors(A, [j for j in points if j not in subset])
    total = 0
    for cols, a in minors.items():
        if a == 0:
            continue
        cof = co_minors.get(tuple([tuple([j for j in points if j not in S])
                                   for S in cols]), 0)
        if cof == 0:
            continue
        term = a * cof
        if (sum(subset) + sum(map(sum, cols))) % 2:
            term = -term
        total = total + term
    return total


def pfaffian(M, size=None):
    """Classical Pfaffian: `_block_sum` with one slot of pairs.

    Accepts an upper-triangle dict {(i,j): value} with i<j, of size
    `size` or else its largest j, or a one-slot 2-block array. Runs in
    O(size * 2^size), fine through size 24.
    """
    if size is not None and size < 0:
        raise BoundsError(f"pfaffian size must be >= 0, got {size}")
    if isinstance(M, BlockArray):
        if M.l != 2 or M.m != 1:
            raise ShapeMismatch(
                "pfaffian needs a 2-block array with one slot; "
                "use hyperpfaffian for anything bigger")
        M, size = {key[0]: v for key, v in M.entries.items()}, M.size
    for key in M:
        if not (type(key) is tuple and len(key) == 2
                and all(type(i) is int for i in key) and 1 <= key[0] < key[1]):
            raise BoundsError(f"upper-triangle key {key!r} needs 1 <= i < j")
    n = size if size is not None else max((j for _, j in M), default=0)
    if n % 2:
        raise OddSize(f"pfaffian needs even size, got {n}")
    for (i, j) in M:
        if j > n:
            raise BoundsError(f"entry ({i},{j}) outside size {n}")
    entries = {(blk,): v for blk, v in M.items() if v != 0}
    return _block_sum(entries, 2, (range(1, n + 1),))


def _slots(B: BlockArray, subsets=None):
    """The points each slot of B reads: [B.l * B.n], or `subsets`, one
    per slot, all of one size, a multiple of B.l."""
    if subsets is None:
        return (range(1, B.l * B.n + 1),) * B.m
    subsets = [_indices(P, B.size) for P in subsets]
    if len(subsets) != B.m:
        raise CardinalityMismatch(
            f"got {len(subsets)} subsets for {B.m} slots")
    cards = sorted({len(P) for P in subsets})
    if len(cards) != 1 or cards[0] % B.l:
        raise CardinalityNotMultipleOfL(
            f"subset sizes {cards} are not one multiple of l={B.l}")
    return subsets


def hyperpfaffian(B: BlockArray, subsets=None):
    """Signed block-partition expansion of a block array, or of its
    sub-array on `subsets`, one subset of points per slot.

    The defining sum carries 1/n!; `_block_sum` instead runs the first
    slot over block orders sorted by minimum, which picks exactly one
    member of each n!-orbit. Valid because reordering the blocks of an
    even-l partition never changes its sign (tested against the literal
    definition).
    """
    # bad subsets are refused; a full array's n is read past the l rule
    slots = None if subsets is None else _slots(B, subsets)
    if B.l % 2:
        if B.m % 2 == 0:
            raise OddBlockLength(
                f"pfaffian-type sum needs even block length, got l={B.l}")
        return 0  # odd l, odd m: reordering blocks flips the sign
    return _block_sum(B.entries, B.l, slots or _slots(B))


def hyperhafnian(B: BlockArray, subsets=None):
    """Unsigned companion of hyperpfaffian; any block length."""
    slots = _slots(B, subsets)
    entries = B.entries
    if B.l == 1:
        entries = {tuple(p for (p,) in key): v for key, v in entries.items()}
    return _block_sum(entries, B.l, slots, signed=False)


def flatten_matsumoto(B: BlockArray) -> BlockArray:
    """Fold the m slots into one long block, shifting slot s by (s-1)*size.

    The result is a one-slot array with block length l*m on l*m*n
    points, and its hyperpfaffian equals the original one.
    """
    if B.l % 2 != 0:
        raise OddBlockLength(
            f"flattening needs even block length, got l={B.l}")
    n = B.n
    size = B.size
    out = BlockArray(B.l * B.m, 1, B.l * B.m * n)
    for key, v in B.entries.items():
        long_block = []
        for s, blk in enumerate(key):
            long_block.extend(size * s + i for i in blk)
        out.entries[(tuple(long_block),)] = v
    return out


def _check_msf_shapes(A: BlockArray, H):
    r = A.m
    if len(H) != r:
        raise ShapeMismatch(f"A has {r} slots but {len(H)} tensors given")
    shapes = {h.shape for h in H}
    if len(shapes) != 1:
        raise ShapeMismatch(f"tensors have mixed shapes {shapes}")
    shape = shapes.pop()
    m = len(shape)
    if m < 2:
        raise ShapeMismatch("each tensor needs at least two axes")
    ln = shape[0]
    if any(s != ln for s in shape[:-1]):
        raise ShapeMismatch(f"leading axes must agree, got {shape}")
    if shape[-1] != A.size:
        raise ShapeMismatch(
            f"last axis {shape[-1]} must match the array size {A.size}")
    if ln % A.l:
        raise ShapeMismatch(
            f"leading axis {ln} is not a multiple of block length {A.l}")
    if ln > A.size:
        raise ShapeMismatch(f"need leading axis {ln} <= size {A.size}")
    return r, m, ln, A.size


def contract_slots(entries, tables):
    """{I_1 + ... + I_r: sum over K of entries[K] * prod_s
    tables[s][K_s][I_s]}, contracted one slot at a time.

    `entries` maps slot tuples K = (K_1, ..., K_r) to scalars and
    tables[s] maps K_s to {I_s: value}, each I_s a tuple; a K_s missing
    from tables[s] contributes zero. Between slots a key holds the K_s
    not yet contracted followed by the I_s already chosen, so terms that
    agree on both merge before the next slot multiplies them out. Zero
    sums are dropped.
    """
    for table in tables:
        out = {}
        for key, a in entries.items():
            if a == 0:
                continue
            for idx, d in table.get(key[0], {}).items():
                k = key[1:] + idx
                out[k] = out[k] + a * d if k in out else a * d
        entries = out
    return {k: v for k, v in entries.items() if v != 0}


def msf_build_Q(A: BlockArray, H) -> BlockArray:
    """The pairing array Q of the minor summation identity.

    Q(I-blocks) sums A(K-blocks) against products of hyperdeterminant
    minors of the rectangular tensors, one minor per slot of A: the
    `contract_slots` of A with one table per tensor, which maps a
    last-axis block K_s to the nonzero minors on it, keyed by their
    other blocks I_s. Each table comes from one `row_minors` pass per
    first-axis block.
    """
    r, m, ln, _ = _check_msf_shapes(A, H)
    l = A.l
    tables = []
    for h in H:
        tbl = {}
        for rows in itertools.combinations(range(1, ln + 1), l):
            for cols, d in row_minors(h, rows).items():
                if d != 0:
                    tbl.setdefault(cols[-1], {})[(rows,) + cols[:-1]] = d
        tables.append(tbl)
    out = BlockArray(l, (m - 1) * r, ln)
    out.entries = contract_slots(A.entries, tables)
    return out


def msf_lhs(A: BlockArray, H):
    """Direct enumeration side of the minor summation identity."""
    ln = _check_msf_shapes(A, H)[2]
    full = tuple(range(1, ln + 1))
    det_tables = [[(cols[-1], d)
                   for cols, d in row_minors(h, full).items()
                   if d != 0]
                  for h in H]
    total = 0
    for choice in itertools.product(*det_tables):
        pf = hyperpfaffian(A, [P for P, _ in choice])
        if pf == 0:
            continue
        total = total + pf * math.prod(d for _, d in choice)
    return total

"""Structural checks: expansion rules and engine cross-validation.

These run batches of random exact instances per call; params carry the
shape ranges and the batch size, so the registry can scale the same
check from a smoke instance to a fifty-instance suite.
"""

import itertools
import math

from ..blocks import enum_block_perms
from ..engines import (flatten_matsumoto, hyperdet, hyperdet_laplace,
                       hyperdet_via_exterior, hyperhafnian, hyperpfaffian,
                       minor_tensor, msf_build_Q, msf_lhs, pfaffian,
                       row_minors)
from ..tensors import BlockArray, Tensor
from .common import outcome_all, random_block_array


def _random_tensor(rng, m, n):
    return Tensor.from_function((n,) * m, lambda *i: rng.randint(-3, 3))


def check_laplace(params, rng, opts):
    """Row-subset expansion of the even-order determinant agrees with
    the direct enumeration engine for every sampled subset."""
    pairs = []
    for _ in range(params["count"]):
        m = rng.choice(params["orders"])
        n = rng.randint(2, params["dim"])
        A = _random_tensor(rng, m, n)
        d = hyperdet(A)
        size = rng.randint(0, n)
        subset = tuple(sorted(rng.sample(range(1, n + 1), size)))
        pairs.append((hyperdet_laplace(A, subset), d))
    return outcome_all(pairs)


def check_hyper_minor(params, rng, opts):
    """Minor extraction: entries relabel positionally, the full index
    lists reproduce the tensor, and a minor of a minor composes."""
    pairs = []
    for _ in range(params["count"]):
        m = rng.choice(params["orders"])
        n = rng.randint(2, 4)
        A = _random_tensor(rng, m, n)
        lists = [tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
                 for _ in range(m)]
        k = min(len(t) for t in lists)
        lists = [t[:k] for t in lists]
        M = minor_tensor(A, lists)
        pos = tuple(rng.randint(1, k) for _ in range(m))
        src = tuple(lists[s][pos[s] - 1] for s in range(m))
        pairs.append((M.get(pos), A.get(src)))
        full = [tuple(range(1, n + 1))] * m
        pairs.append((minor_tensor(A, full), A))
        inner = [tuple(range(1, k + 1))[: max(1, k - 1)]] * m
        composed = minor_tensor(M, inner)
        direct = minor_tensor(A, [tuple(t[i - 1] for i in inner[s])
                                  for s, t in enumerate(lists)])
        pairs.append((composed, direct))
    return outcome_all(pairs)


def check_subpf_indicator(params, rng, opts):
    """Sub-Pfaffian of the aligned-pairs indicator array flags exactly
    the index sets made of whole pairs; on random arrays a 4-point
    sub-Pfaffian is the three-term Pfaffian of its entries."""
    pairs = []
    big_n = params["pairs"]
    A = BlockArray(2, 1, 2 * big_n,
                   {((2 * v - 1, 2 * v),): 1 for v in range(1, big_n + 1)})
    for P in itertools.combinations(range(1, 2 * big_n + 1), 4):
        aligned = all(P[i] % 2 == 1 and P[i + 1] == P[i] + 1
                      for i in range(0, 4, 2))
        pairs.append((hyperpfaffian(A, [P]), 1 if aligned else 0))
    for _ in range(params["count"]):
        B = random_block_array(rng, 2, 1, 6)
        P = tuple(sorted(rng.sample(range(1, 7), 4)))
        ab, ac, ad, bc, bd, cd = [B.get((pair,))
                                  for pair in itertools.combinations(P, 2)]
        pairs.append((hyperpfaffian(B, [P]), ab * cd - ac * bd + ad * bc))
    return outcome_all(pairs)


def check_msf_general(params, rng, opts):
    """Kernel form of the minor summation: the subset-sum of weighted
    minors equals the hyperpfaffian of the synthesized kernel array."""
    pairs = []
    for _ in range(params["count"]):
        l, m, r, n = rng.choice(params["shapes"])
        N = rng.randint(l * n, params["max_n"])
        A = random_block_array(rng, l, r, N, lo=-2, hi=2)
        H = [Tensor.from_function((l * n,) * (m - 1) + (N,),
                                  lambda *i: rng.randint(-2, 2))
             for _ in range(r)]
        pairs.append((msf_lhs(A, H), hyperpfaffian(msf_build_Q(A, H))))
    return outcome_all(pairs)


def check_msf_det(params, rng, opts):
    # two-axis tensors are rectangular matrices, so each kernel entry
    # must come out as an A-weighted sum of 2x2 minors
    pairs = []
    for _ in range(params["count"]):
        N = rng.randint(4, 6)
        rows_n = rng.choice((2, 4))
        A = random_block_array(rng, 2, 1, N)
        rows = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(rows_n)]
        H = [Tensor.from_matrix(rows)]
        Q = msf_build_Q(A, H)
        for i1, i2 in itertools.combinations(range(1, rows_n + 1), 2):
            expect = 0
            for k1, k2 in itertools.combinations(range(1, N + 1), 2):
                a = A.entries.get(((k1, k2),), 0)
                minor = (rows[i1 - 1][k1 - 1] * rows[i2 - 1][k2 - 1]
                         - rows[i1 - 1][k2 - 1] * rows[i2 - 1][k1 - 1])
                expect += a * minor
            pairs.append((Q.entries.get(((i1, i2),), 0), expect))
        pairs.append((msf_lhs(A, H), hyperpfaffian(Q)))
    return outcome_all(pairs)


def check_pf_hf(params, rng, opts):
    """Diagonal weight arrays split by slot parity: odd slot counts
    reproduce the signed (Pfaffian) subset sum, even ones the unsigned
    (hafnian) sum."""
    pairs = []
    for _ in range(params["count"]):
        r = rng.choice(params["slot_counts"])
        l, n, N = 2, 2, 5
        weights = {K: rng.randint(-3, 3)
                   for K in itertools.combinations(range(1, N + 1), l)}
        A_diag = BlockArray(l, r, N,
                            {(K,) * r: v for K, v in weights.items() if v})
        A_one = BlockArray(l, 1, N,
                           {(K,): v for K, v in weights.items() if v})
        H = [Tensor.from_function((l * n, N), lambda *i: rng.randint(-2, 2))
             for _ in range(r)]
        # every maximal minor of each tensor, by its columns P
        minors = [row_minors(h, range(1, l * n + 1)) for h in H]
        rhs = 0
        for P in itertools.combinations(range(1, N + 1), l * n):
            weight = (hyperpfaffian if r % 2 else hyperhafnian)(A_one, [P])
            if weight == 0:
                continue
            rhs += weight * math.prod(table.get((P,), 0) for table in minors)
        pairs.append((hyperpfaffian(msf_build_Q(A_diag, H)), rhs))
    return outcome_all(pairs)


_MATSUMOTO_SHAPES = ((2, 2, 4), (2, 2, 2), (2, 3, 4))


def check_matsumoto(params, rng, opts):
    """Slot flattening of an even-block multi-array preserves the
    hyperpfaffian."""
    pairs = []
    for _ in range(params["count"]):
        l, m, size = rng.choice(_MATSUMOTO_SHAPES)
        B = random_block_array(rng, l, m, size)
        F = flatten_matsumoto(B)
        pairs.append((hyperpfaffian(F), hyperpfaffian(B)))
        pairs.append((F.l, l * m))
    return outcome_all(pairs)


def check_engine_exterior(params, rng, opts):
    """Dynamic-programming determinant engine against the
    exterior-algebra oracle."""
    pairs = []
    for _ in range(params["count"]):
        m = rng.choice(params["orders"])
        n = rng.randint(2, 3 if m == 4 else 4)
        A = _random_tensor(rng, m, n)
        pairs.append((hyperdet_via_exterior(A), hyperdet(A)))
    return outcome_all(pairs)


def check_pf_definition(params, rng, opts):
    """Fast Pfaffian against the literal signed block-permutation sum,
    and its square against the determinant."""
    from ..engines import det_matrix
    pairs = []
    for _ in range(params["count"]):
        n = rng.randint(1, params["max_pairs"])
        B = random_block_array(rng, 2, 1, 2 * n)
        literal = 0
        for bp in enum_block_perms(2, n):
            term = bp.sign
            for blk in bp.blocks:
                term = term * B.entries.get((blk,), 0)
            literal += term
        val = hyperpfaffian(B)
        pairs.append((math.factorial(n) * val, literal))
        mat = [[0] * (2 * n) for _ in range(2 * n)]
        for (blk,), v in B.entries.items():
            i, j = blk
            mat[i - 1][j - 1] = v
            mat[j - 1][i - 1] = -v
        pairs.append((val * val, det_matrix(mat)))
        pairs.append((val, pfaffian({blk: v for (blk,), v
                                     in B.entries.items()}, size=2 * n)))
    return outcome_all(pairs)

"""Hyperdeterminant engines against oracles, Pfaffian family, minor
summation, flattening, and the JSON container formats."""

import gc
import itertools
import math
import operator
import time
import tracemalloc
from fractions import Fraction

import pytest

from hankelpf import engines
from hankelpf.blocks import enum_block_perms, perm_sign
from hankelpf.errors import (BoundsError, CardinalityMismatch,
                             CardinalityNotMultipleOfL, IncompatibleTags,
                             OddBlockLength, OddDimension, OddSize,
                             ParseError, ShapeMismatch)
from hankelpf.engines import (contract_slots, det_matrix, flatten_matsumoto,
                              hyperdet, hyperdet_laplace,
                              hyperdet_via_exterior, hyperhafnian,
                              hyperpfaffian, minor_tensor,
                              msf_build_Q, msf_lhs, pfaffian, row_minors)
from hankelpf.scalars import (QuadExt, UniPoly, derive_rng, omega,
                              parse_scalar, poly_gen, quadext, sqrt2, unipoly)
from hankelpf.tensors import (BlockArray, Tensor, block_array_from_json,
                              tensor_from_json)


KINDS = ("int", "fraction", "unipoly", "quadext")


def _random_scalar(rng, kind, lo=-3, hi=3):
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
    if kind == "int":
        return a
    if kind == "fraction":
        return Fraction(a, rng.randint(1, 4))
    if kind == "unipoly":
        return unipoly("x", [a, b])
    return quadext(-1, -1, a, b)


def _check_type(value, kind):
    # int entries must give a plain int, never a Fraction or a bool
    if kind == "int":
        assert type(value) is int


def _random_tensor(rng, m, n, lo=-3, hi=3, kind="int"):
    return Tensor.from_function((n,) * m,
                                lambda *i: _random_scalar(rng, kind, lo, hi))


def _random_block_array(rng, l, m, size, lo=-3, hi=3):
    return BlockArray.from_function(l, m, size, lambda *k: rng.randint(lo, hi))


# ------------------------------------------------------------ hyperdet family

def test_hyperdet_is_determinant_for_m2():
    A = Tensor.from_matrix([[1, 2], [3, 4]])
    assert hyperdet(A) == -2
    B = Tensor.from_matrix([[2, 0, 1], [1, 1, 1], [0, 3, -1]])
    assert hyperdet(B) == det_matrix([[2, 0, 1], [1, 1, 1], [0, 3, -1]]) == -5
    for kind, n in itertools.product(KINDS, range(1, 5)):
        rng = derive_rng("det-leibniz", kind, str(n))
        rows = [[_random_scalar(rng, kind) for _ in range(n)]
                for _ in range(n)]
        leibniz = 0
        for perm in itertools.permutations(range(n)):
            term = perm_sign([j + 1 for j in perm])
            for i, j in enumerate(perm):
                term = term * rows[i][j]
            leibniz = leibniz + term
        d = det_matrix(rows)
        assert d == leibniz == hyperdet(Tensor.from_matrix(rows))
        _check_type(d, kind)


def test_hyperdet_diagonal_m4():
    D = Tensor((2,) * 4, {(i, i, i, i): 1 for i in (1, 2)})
    assert hyperdet(D) == 1


def test_hyperdet_all_ones_m4_cancels():
    A = Tensor.from_function((2,) * 4, lambda *i: 1)
    assert hyperdet(A) == 0


def _eight_term_expansion(A):
    # the full 2x2x2x2 signed expansion, written out term by term
    g = A.get
    return (g((1, 1, 1, 1)) * g((2, 2, 2, 2))
            - g((1, 1, 1, 2)) * g((2, 2, 2, 1))
            - g((1, 1, 2, 1)) * g((2, 2, 1, 2))
            + g((1, 1, 2, 2)) * g((2, 2, 1, 1))
            - g((1, 2, 1, 1)) * g((2, 1, 2, 2))
            + g((1, 2, 1, 2)) * g((2, 1, 2, 1))
            + g((1, 2, 2, 1)) * g((2, 1, 1, 2))
            - g((1, 2, 2, 2)) * g((2, 1, 1, 1)))


def test_hyperdet_matches_written_out_expansion():
    rng = derive_rng("hyperdet-8term")
    for _ in range(20):
        A = _random_tensor(rng, 4, 2)
        assert hyperdet(A) == _eight_term_expansion(A)


def test_hyperdet_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        hyperdet(Tensor((2,) * 3))
    with pytest.raises(OddDimension):
        hyperdet_via_exterior(Tensor((2,) * 3))
    with pytest.raises(OddDimension):
        hyperdet_laplace(Tensor((2,) * 3), (1,))


def test_hyperdet_needs_cubic():
    with pytest.raises(ShapeMismatch):
        hyperdet(Tensor((2, 3)))


def test_hyperdet_three_way_oracle_agreement():
    for kind, trial in itertools.product(KINDS, range(50)):
        rng = derive_rng("hyperdet-oracles", kind, str(trial))
        m = 2 if trial % 2 else 4
        n = 2 + (trial % 3 == 0)
        A = _random_tensor(rng, m, n, kind=kind)
        d = hyperdet(A)
        _check_type(d, kind)
        assert hyperdet_via_exterior(A) == d
        subset_size = rng.randint(0, n)
        subset = tuple(sorted(rng.sample(range(1, n + 1), subset_size)))
        assert hyperdet_laplace(A, subset) == d


def test_hyperdet_laplace_every_row_subset():
    # the empty and the full subset included, on every entry kind
    for kind, m in itertools.product(KINDS, (2, 4)):
        rng = derive_rng("laplace-all-subsets", kind, str(m))
        A = _random_tensor(rng, m, 3, kind=kind)
        d = hyperdet(A)
        for r in range(4):
            for subset in itertools.combinations(range(1, 4), r):
                assert hyperdet_laplace(A, subset) == d


def test_hyperdet_laplace_examples():
    A = Tensor.from_matrix([[1, 2], [3, 4]])
    assert hyperdet_laplace(A, (1,)) == -2
    # a row subset is a set: listing it out of order changes nothing
    assert hyperdet_laplace(A, (2, 1)) == -2
    D = Tensor((2,) * 4, {(i, i, i, i): 1 for i in (1, 2)})
    assert hyperdet_laplace(D, (1,)) == 1
    with pytest.raises(BoundsError):
        hyperdet_laplace(A, (3,))


def test_hyperdet_laplace_refuses_a_bad_subset_first(monkeypatch):
    # the subset is checked by its own row_minors call, before any
    # minor table is built; True is not a row index
    done = []
    monkeypatch.setattr(engines, "row_minors", lambda A, rows: done.append(
        rows) or row_minors(A, rows))
    A = Tensor.from_function((2, 2, 2, 2), lambda *i: sum(i))
    for subset in ((True,), (0,), (3,), (1, 1), (2, True)):
        with pytest.raises(BoundsError, match="not distinct indices"):
            hyperdet_laplace(A, subset)
        assert done == [subset]
        done.clear()


def test_hyperdet_polynomial_entries():
    a = poly_gen("a")
    A = Tensor.from_matrix([[a, 1], [1, a]])
    assert hyperdet(A) == a * a - 1


# -------------------------------------------------------------------- minors

def test_row_minors_match_minor_tensor():
    # every minor sharing one first-axis row set, read off one kernel
    # pass, against the hyperdeterminant of the copied minor; keys the
    # pass leaves out must be zero minors
    for kind, m, l in itertools.product(KINDS, (2, 4), (1, 2, 4)):
        rng = derive_rng("row-minors", kind, str(m), str(l))
        ln = l * rng.randint(1, 4 // l) if m == 2 else (3 if l == 1 else l)
        N = rng.randint(ln, 6 if m == 2 else 4)
        H = Tensor.from_function((ln,) * (m - 1) + (N,),
                                 lambda *i: _random_scalar(rng, kind))
        blocks = list(itertools.combinations(range(1, ln + 1), l))
        keys = [ic + (K,) for ic in itertools.product(blocks, repeat=m - 2)
                for K in itertools.combinations(range(1, N + 1), l)]
        for rows in blocks:
            table = row_minors(H, rows)
            assert set(table) <= set(keys)
            for key in keys:
                d = table.get(key, 0)
                assert d == hyperdet(minor_tensor(H, (rows,) + key))
                _check_type(d, kind)


def test_row_minors_rejects_bad_rows():
    H = Tensor.from_function((3, 4), lambda i, j: i + j)
    for rows in ((1, 1), (0, 2), (2, 4), (1.0,)):
        with pytest.raises(BoundsError):
            row_minors(H, rows)


def test_row_minors_refuses_bool_rows():
    # True hashes and compares like 1, but it is not a row index
    H = Tensor.from_function((3, 4), lambda i, j: i + j)
    for rows in ((True, 2), (2, False), (True,)):
        with pytest.raises(BoundsError, match="not distinct indices"):
            row_minors(H, rows)


def test_minor_tensor_examples():
    A = Tensor.from_matrix([[1, 2], [3, 4]])
    M = minor_tensor(A, [(1,), (2,)])
    assert M.shape == (1, 1) and M.get((1, 1)) == 2
    assert minor_tensor(A, [(1, 2), (1, 2)]) == A


def test_minor_tensor_spot_lookups():
    rng = derive_rng("minor-spots")
    A = _random_tensor(rng, 4, 3)
    rows = [(1, 3), (2, 3), (1, 2), (2, 3)]
    M = minor_tensor(A, rows)
    for _ in range(10):
        pos = tuple(rng.randint(1, 2) for _ in range(4))
        src = tuple(rows[k][pos[k] - 1] for k in range(4))
        assert M.get(pos) == A.get(src)


def test_minor_tensor_preserves_order():
    A = Tensor.from_matrix([[1, 2], [3, 4]])
    M = minor_tensor(A, [(2, 1), (1, 2)])
    assert M.get((1, 1)) == 3 and M.get((1, 2)) == 4
    assert M.get((2, 1)) == 1 and M.get((2, 2)) == 2


def test_minor_tensor_cardinality_mismatch():
    A = Tensor.from_matrix([[1, 2], [3, 4]])
    with pytest.raises(CardinalityMismatch):
        minor_tensor(A, [(1,), (1, 2)])
    with pytest.raises(CardinalityMismatch):
        minor_tensor(A, [(1,)])
    with pytest.raises(BoundsError):
        minor_tensor(A, [(3,), (1,)])


def test_minor_tensor_refuses_bool_indices():
    # True hashes and compares like 1, but it is not an index
    A = Tensor.from_matrix([[1, 2], [3, 4]])
    for lists in ([(True,), (2,)], [(1, 2), (2, False)]):
        with pytest.raises(BoundsError, match="out of"):
            minor_tensor(A, lists)


# ------------------------------------------------------------------ pfaffian

def test_pfaffian_smallest_cases():
    assert pfaffian({}, size=0) == 1
    assert pfaffian({(1, 2): 5}) == 5
    with pytest.raises(BoundsError, match="size must be >= 0, got -1"):
        pfaffian({}, size=-1)


def test_pfaffian_refuses_bool_indices():
    # True hashes and compares like 1, but it is not an index
    for M in ({(True, 2): 5}, {(1, 2): 1, (True, 3): 2, (3, 4): 1},
              {(1, True): 5}):
        with pytest.raises(BoundsError, match="needs 1 <= i < j"):
            pfaffian(M, size=4)


def test_pfaffian_refuses_keys_that_are_not_pairs():
    for M in ({(1, 2, 3): 1}, {1: 2}, {(1,): 2}, {(2, 1): 1},
              {(1, 2): 1, "12": 3}):
        with pytest.raises(BoundsError, match="needs 1 <= i < j"):
            pfaffian(M)


def test_pfaffian_four_by_four_generic():
    rng = derive_rng("pf-4x4")
    for _ in range(10):
        a, b, c, d, e, f = (rng.randint(-9, 9) for _ in range(6))
        M = {(1, 2): a, (1, 3): b, (1, 4): c, (2, 3): d, (2, 4): e, (3, 4): f}
        assert pfaffian(M, size=4) == a * f - b * e + c * d


def test_pfaffian_delannoy_vs_product():
    central_delannoy = [1, 3, 13, 63, 321]
    M = {(i, j): (j - i) * central_delannoy[i + j - 3]
         for i in range(1, 5) for j in range(i + 1, 5)}
    n = 2
    assert pfaffian(M) == 72
    assert 72 == 2 ** (n * n - 1) * (2 * n - 1) * math.prod(
        4 * k - 1 for k in range(1, n))


def test_pfaffian_matrix_input():
    # the upper triangle of the antisymmetric matrix
    # [[0, 5, 1, -2], [-5, 0, 3, 0], [-1, -3, 0, 4], [2, 0, -4, 0]]
    upper = {(1, 2): 5, (1, 3): 1, (1, 4): -2, (2, 3): 3, (2, 4): 0,
             (3, 4): 4}
    assert pfaffian(upper) == 5 * 4 - 1 * 0 + (-2) * 3


def test_pfaffian_odd_size():
    with pytest.raises(OddSize):
        pfaffian({(1, 2): 1, (1, 3): 1, (2, 3): 1})
    with pytest.raises(OddSize):
        pfaffian({}, size=1)


def test_pfaffian_matches_general_engine():
    rng = derive_rng("pf-vs-hyperpf")
    for two_n in (2, 4, 6, 8, 10, 12):
        B = BlockArray(2, 1, two_n,
                       {((i, j),): rng.randint(-5, 5)
                        for i in range(1, two_n + 1)
                        for j in range(i + 1, two_n + 1)})
        assert pfaffian(B) == hyperpfaffian(B)


def test_pfaffian_squares_to_determinant():
    for kind, two_n in itertools.product(KINDS, (2, 4, 6)):
        rng = derive_rng("pf-square-det", kind, str(two_n))
        upper = {(i, j): _random_scalar(rng, kind, -4, 4)
                 for i in range(1, two_n + 1) for j in range(i + 1, two_n + 1)}
        rows = [[0] * two_n for _ in range(two_n)]
        for (i, j), v in upper.items():
            rows[i - 1][j - 1] = v
            rows[j - 1][i - 1] = -v
        pf = pfaffian(upper, size=two_n)
        assert pf ** 2 == det_matrix(rows)
        assert pfaffian({(i, j): rows[i - 1][j - 1]
                         for i in range(1, two_n + 1)
                         for j in range(i + 1, two_n + 1)},
                        size=two_n) == pf
        _check_type(pf, kind)


# ------------------------------------------------ Fraction entries over ints

def _literal_block_sum(entries, l, m, n, signed=True):
    # the defining sum over m-tuples of ordered partitions, with its 1/n!
    total = 0
    for combo in itertools.product(list(enum_block_perms(l, n)), repeat=m):
        term = Fraction(math.prod(perm_sign(list(itertools.chain(*bp.blocks)))
                                  for bp in combo) if signed else 1,
                        math.factorial(n))
        for k in range(n):
            key = tuple(bp.blocks[k] if l > 1 else bp.blocks[k][0]
                        for bp in combo)
            term = term * entries.get(key, 0)
        total += term
    return total


# name -> (l, m, n, signed, engine on an entries dict)
FRACTION_ENGINES = {
    "det_matrix": (1, 2, 3, True, lambda e: det_matrix(
        [[e.get((i, j), 0) for j in range(1, 4)] for i in range(1, 4)])),
    "hyperdet": (1, 4, 3, True, lambda e: hyperdet(Tensor((3,) * 4, e))),
    "pfaffian": (2, 1, 3, True, lambda e: pfaffian(
        {blk: v for (blk,), v in e.items()}, size=6)),
    "hyperpfaffian": (2, 2, 2, True,
                      lambda e: hyperpfaffian(BlockArray(2, 2, 4, e))),
    "hyperhafnian": (2, 2, 2, False,
                     lambda e: hyperhafnian(BlockArray(2, 2, 4, e))),
}


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
# all-Fraction inputs whose terms cancel to zero
ZERO_BY_CANCELLATION = {
    "det_matrix": {(i, j): _HALF for i in (1, 2) for j in (1, 2, 3)}
                  | {(3, 3): _THIRD},
    "hyperdet": {k: _HALF for k in itertools.product((1, 2), repeat=4)}
                | {(3, 3, 3, 3): _THIRD},
    "pfaffian": {((1, 3),): _HALF, ((2, 3),): _HALF, ((1, 4),): 2 * _HALF,
                 ((2, 4),): 2 * _HALF, ((5, 6),): _THIRD},
    "hyperpfaffian": {((1, 2), (1, 2)): _HALF, ((3, 4), (3, 4)): _HALF,
                      ((1, 3), (1, 2)): _HALF, ((2, 4), (3, 4)): _HALF},
    "hyperhafnian": {((1, 2), (1, 2)): _HALF, ((3, 4), (3, 4)): _HALF,
                     ((1, 3), (1, 3)): _HALF, ((2, 4), (2, 4)): -_HALF},
}


def _all_keys(l, m, n):
    if l == 1:
        return list(itertools.product(range(1, n + 1), repeat=m))
    blocks = list(itertools.combinations(range(1, l * n + 1), l))
    return list(itertools.product(blocks, repeat=m))


@pytest.mark.parametrize("name", sorted(FRACTION_ENGINES))
def test_fraction_entries_value_and_type(name):
    l, m, n, signed, engine = FRACTION_ENGINES[name]
    keys = _all_keys(l, m, n)
    rng = derive_rng("fraction-contract", name)
    for trial in range(4):
        # mixed denominators; the trial-1 entries are all whole, so the
        # value is whole and must still come back as a Fraction
        entries = {k: Fraction(rng.randint(-4, 4),
                               1 if trial == 1 else rng.choice((1, 2, 3, 6)))
                   for k in keys}
        entries = {k: v for k, v in entries.items() if v}
        value = engine(entries)
        assert value == _literal_block_sum(entries, l, m, n, signed)
        assert type(value) is Fraction
    # a value that cancels to zero is still a Fraction
    zero = ZERO_BY_CANCELLATION[name]
    value = engine(zero)
    assert value == 0 == _literal_block_sum(zero, l, m, n, signed)
    assert type(value) is Fraction
    # no partition has all of its entries present: plain int 0
    assert type(engine({keys[0]: Fraction(1, 2)})) is int
    assert engine({keys[0]: Fraction(1, 2)}) == 0
    # int entries stay int
    ints = {k: rng.randint(-4, 4) or 1 for k in keys}
    value = engine(ints)
    assert value == _literal_block_sum(ints, l, m, n, signed)
    assert type(value) is int


def test_mixed_int_fraction_entries_keep_their_type():
    # mixed entries are expanded as they are: a term with a Fraction
    # factor makes the sum a Fraction, int-only terms stay int
    half = Fraction(1, 2)
    assert type(det_matrix([[half, 1], [1, 2]])) is Fraction
    assert det_matrix([[half, 1], [1, 2]]) == 0
    assert type(det_matrix([[1, half], [0, 3]])) is int
    assert det_matrix([[1, half], [0, 3]]) == 3
    assert type(pfaffian({(1, 2): 2, (3, 4): 3, (1, 3): half})) is int
    assert type(pfaffian({(1, 2): 2, (3, 4): 3, (2, 4): half,
                          (1, 3): 4})) is Fraction
    B = BlockArray(2, 2, 4, {((1, 2), (1, 2)): 2, ((3, 4), (3, 4)): half})
    assert hyperpfaffian(B) == 1 and type(hyperpfaffian(B)) is Fraction
    assert hyperhafnian(B) == 1 and type(hyperhafnian(B)) is Fraction


# ------------------------------- packed polynomial and extension entries

PACKED_KINDS = ("unipoly", "unipoly+fraction", "fraction",
                "omega", "omega+fraction", "sqrt2+fraction")
EXTENSIONS = {"omega": omega(), "sqrt2": sqrt2()}


def _packed_entry(rng, kind):
    # nonzero, with mixed denominators; "fraction" is the one-digit case
    if kind == "fraction" or (kind.endswith("+fraction")
                              and rng.random() < 0.4):
        return Fraction(rng.choice((-4, -1, 1, 3)), rng.choice((1, 2, 3, 6)))
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
              for _ in range(rng.randint(1, 3))]
    if kind.startswith("unipoly"):
        return unipoly("x", coeffs + [rng.choice((-3, -1, 2, 5))])
    w = EXTENSIONS[kind.partition("+")[0]]
    return coeffs[0] + w * Fraction(rng.choice((-3, -1, 2, 5)),
                                    rng.choice((1, 2)))


def _check_packed_type(value, kind):
    # int 0 only where no term has all of its entries present
    if type(value) is Fraction or (type(value) is int and value == 0):
        return
    if kind.startswith("unipoly"):
        assert type(value) is UniPoly and value.var == "x"
    else:
        w = EXTENSIONS[kind.partition("+")[0]]
        assert type(value) is QuadExt and (value.p, value.r, value.sym) \
            == (w.p, w.r, w.sym)


@pytest.mark.parametrize("kind", PACKED_KINDS)
@pytest.mark.parametrize("name", sorted(FRACTION_ENGINES))
def test_packed_entries_match_literal_definition(name, kind):
    l, m, n, signed, engine = FRACTION_ENGINES[name]
    keys = _all_keys(l, m, n)
    rng = derive_rng("packed-literal", name, kind)
    for _ in range(2):
        entries = {k: _packed_entry(rng, kind) for k in keys
                   if rng.random() < 0.8}
        value = engine(entries)
        assert value == _literal_block_sum(entries, l, m, n, signed)
        _check_packed_type(value, kind)


@pytest.mark.parametrize("kind", PACKED_KINDS)
def test_packed_row_minors_match_literal_definition(kind):
    rng = derive_rng("packed-minors", kind)
    for shape in ((2, 4), (3, 4), (2, 3, 3, 3)):
        m, r = len(shape), shape[0]
        H = Tensor.from_function(shape, lambda *i: _packed_entry(rng, kind))
        rows = tuple(range(1, r + 1))
        table = row_minors(H, rows)
        for cols in itertools.product(*(itertools.combinations(
                range(1, s + 1), r) for s in shape[1:])):
            axes = (rows,) + cols
            minor = {pos: H.entries[tuple(ax[p - 1]
                                          for ax, p in zip(axes, pos))]
                     for pos in itertools.product(range(1, r + 1), repeat=m)}
            value = table.get(cols, 0)
            assert value == _literal_block_sum(minor, 1, m, r)
            _check_packed_type(value, kind)


def test_packed_width_covers_worst_case():
    # every entry the same polynomial, all of its coefficients the
    # largest value and of one sign: no term cancels, so the final
    # coefficients are as large as the packing width allows for
    for sign, (l, m, n) in itertools.product((1, -1), ((2, 1, 3), (2, 2, 2),
                                                       (3, 1, 2), (2, 3, 2))):
        P = unipoly("x", [sign * Fraction(2 ** 64 - 1, 7)] * 4)
        value = hyperhafnian(BlockArray.from_function(l, m, l * n,
                                                      lambda *k: P))
        count = hyperhafnian(BlockArray.from_function(l, m, l * n,
                                                      lambda *k: 1))
        assert type(value) is UniPoly and value.degree == 3 * n
        for x in range(3 * n + 1):
            assert value.evaluate(x) == count * P.evaluate(x) ** n


def test_packed_extension_width_covers_worst_case():
    # every entry the same element u + u*theta, u the largest value and
    # of one sign: no term cancels before the theta-reduction, so the
    # theta-coefficients are as large as the packing width allows for
    big = Fraction(2 ** 64 - 1, 7)
    for sign, w, (l, m, n) in itertools.product(
            (1, -1), EXTENSIONS.values(),
            ((2, 1, 3), (2, 2, 2), (3, 1, 2), (2, 3, 2))):
        P = sign * big * (1 + w)
        value = hyperhafnian(BlockArray.from_function(l, m, l * n,
                                                      lambda *k: P))
        count = hyperhafnian(BlockArray.from_function(l, m, l * n,
                                                      lambda *k: 1))
        assert value == count * P ** n


def test_packed_result_types():
    x, one = poly_gen("x"), Fraction(1)
    # a UniPoly in the entries' variable
    value = det_matrix([[x, one], [one, x]])
    assert value == x * x - 1 and type(value) is UniPoly and value.var == "x"
    # a constant result is a Fraction, also when it cancels to zero
    value = det_matrix([[x, one], [x + 1, one]])
    assert value == -1 and type(value) is Fraction
    value = det_matrix([[x, x], [x, x]])
    assert value == 0 and type(value) is Fraction
    # no term has all of its entries present: plain int 0
    value = pfaffian({(1, 2): x, (1, 3): x + 1}, size=4)
    assert value == 0 and type(value) is int
    # two variables are not packed together; their product still fails
    with pytest.raises(IncompatibleTags):
        pfaffian({(1, 2): x, (3, 4): poly_gen("y")})


def test_packed_extension_result_types():
    w, s, one = omega(), sqrt2(), Fraction(1)
    # a QuadExt of the entries' extension
    value = det_matrix([[w, one], [one, w]])
    assert value == w * w - 1 == -w - 2
    assert type(value) is QuadExt and (value.p, value.r) == (-1, -1)
    # v cancels: a Fraction, through the theta-reduction or the sum
    value = det_matrix([[s, one], [one, s]])
    assert value == 1 and type(value) is Fraction
    value = det_matrix([[w, one], [w + 1, one]])
    assert value == -1 and type(value) is Fraction
    value = det_matrix([[w, w], [w, w]])
    assert value == 0 and type(value) is Fraction
    # no term has all of its entries present: plain int 0
    value = pfaffian({(1, 2): w, (1, 3): w + 1}, size=4)
    assert value == 0 and type(value) is int
    # two extensions are not packed together; their product still fails
    with pytest.raises(IncompatibleTags):
        pfaffian({(1, 2): w, (3, 4): s})
    # nor are a polynomial and an extension element
    with pytest.raises(TypeError):
        pfaffian({(1, 2): w, (3, 4): poly_gen("x")})


# ------------------------------------------------------- the planned kernel

# "+int" kinds mix plain ints in, so their entries run as they are
# rather than packed
KERNEL_KINDS = KINDS + ("fraction+int", "unipoly+int", "quadext+int")
# (l, m, n): l = 1 reads bare-point keys; the first slot's pinned block
# order is only a sign-free choice for signed sums when l or m is even
SIGNED_SHAPES = [(1, 2, 3), (1, 4, 2), (2, 1, 3), (2, 2, 2), (2, 3, 2),
                 (3, 2, 2), (4, 1, 2)]
UNSIGNED_SHAPES = SIGNED_SHAPES + [(1, 1, 3), (1, 3, 2), (3, 1, 2)]


def _full(l, m, n):
    # the points of every slot of a full array of m slots of n l-blocks
    return (range(1, l * n + 1),) * m


def _kernel_entry(rng, kind):
    base, _, mix = kind.partition("+")
    if mix and rng.random() < 0.3:
        return rng.randint(-3, 3)
    return _random_scalar(rng, base)


@pytest.mark.parametrize("signed", (True, False))
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_block_sum_matches_literal_definition(kind, signed):
    for l, m, n in SIGNED_SHAPES if signed else UNSIGNED_SHAPES:
        rng = derive_rng("kernel-literal", kind, str(signed), f"{l}.{m}.{n}")
        keys = _all_keys(l, m, n)
        for _ in range(2):
            entries = {k: _kernel_entry(rng, kind) for k in keys
                       if rng.random() < 0.7}
            value = engines._block_sum(entries, l, _full(l, m, n), signed)
            assert value == _literal_block_sum(entries, l, m, n, signed)
            _check_type(value, kind)
        # no entry present: plain int 0
        value = engines._block_sum({}, l, _full(l, m, n), signed)
        assert value == 0 and type(value) is int


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_row_minors_match_literal_definition(kind):
    # every row set, so the first slot starts from every partial mask;
    # a minor no path reaches is absent from the table
    rng = derive_rng("kernel-minors", kind)
    for shape in ((3, 4), (2, 3, 3, 3)):
        m = len(shape)
        H = Tensor(shape, {idx: _kernel_entry(rng, kind)
                           for idx in itertools.product(
                               *(range(1, s + 1) for s in shape))
                           if rng.random() < 0.7})
        for r in range(1, shape[0] + 1):
            for rows in itertools.combinations(range(1, shape[0] + 1), r):
                table = row_minors(H, rows)
                for cols in itertools.product(*(itertools.combinations(
                        range(1, s + 1), r) for s in shape[1:])):
                    minor = minor_tensor(H, (rows,) + cols).entries
                    value = table.get(cols, 0)
                    assert value == _literal_block_sum(minor, 1, m, r)
                    _check_type(value, kind)
        assert row_minors(Tensor(shape), (1,)) == {}


def _row_minor_tables(H, rows_list):
    return [row_minors(H, rows) for rows in rows_list]


# (shape, row sets): four steps on a matrix, and six axes; the first
# is checked against the literal definition by
# test_row_minors_match_literal_definition, the others here
ROW_MINOR_CASES = (((3,) * 4, [(1,), (2, 3), (1, 3), (1, 2, 3)]),
                   ((4, 5), [(1, 2, 3, 4), (1, 2, 4)]),
                   ((2, 3, 2, 3, 2, 3), [(1, 2), (2,)]))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_row_minors_same_cold_warm_and_after_eviction(kind, monkeypatch):
    # a plan holds only its state graph, and the columns and signs are
    # read per call: a table is the same whether its plan was just
    # built, read from the cache, built over the bound and dropped, or
    # evicted and built again, and it matches the literal definition
    for dims, rows_list in ROW_MINOR_CASES:
        rng = derive_rng("row-minors-decode", kind, str(dims))
        H = Tensor(dims, {idx: _kernel_entry(rng, kind)
                          for idx in itertools.product(
                              *(range(1, s + 1) for s in dims))
                          if rng.random() < 0.8})
        # cold: a fresh cache, with one plan per row count
        cache = engines._PlanCache(engines.PLAN_CACHE_TRANSITIONS)
        monkeypatch.setattr(engines, "_PLANS", cache)
        cold = _row_minor_tables(H, rows_list)
        plans = dict(cache.plans)
        assert len(plans) == len({len(rows) for rows in rows_list})
        assert cache.weight == sum(p.transitions for p in plans.values())
        warm = _row_minor_tables(H, rows_list)
        assert all(cache.plans[shape] is p for shape, p in plans.items())
        # room for the largest plan alone: each call evicts the one before
        tight = engines._PlanCache(max(p.transitions
                                       for p in plans.values()))
        monkeypatch.setattr(engines, "_PLANS", tight)
        evicted = [_row_minor_tables(H, rows_list) for _ in range(2)]
        assert len(tight.plans) == 1
        over_bound = engines._PlanCache(0)
        monkeypatch.setattr(engines, "_PLANS", over_bound)
        over = _row_minor_tables(H, rows_list)
        assert over_bound.plans == {} and over_bound.weight == 0
        for rows, want, *tables in zip(rows_list, cold, warm, *evicted, over):
            assert want and all(table == want for table in tables)
            for cols, v in want.items():
                _check_type(v, kind)
                assert all(type(table[cols]) is type(v) for table in tables)
            if dims != ROW_MINOR_CASES[0][0]:
                for cols in itertools.product(*(itertools.combinations(
                        range(1, s + 1), len(rows)) for s in dims[1:])):
                    minor = minor_tensor(H, (rows,) + cols).entries
                    assert want.get(cols, 0) == _literal_block_sum(
                        minor, 1, len(dims), len(rows))


@pytest.mark.parametrize("kind", ("int", "fraction", "unipoly+int"))
def test_row_minors_of_one_size_share_one_plan(kind, monkeypatch):
    # a plan depends on the sizes of the start masks alone: every row
    # set of one size builds one plan, and each table still matches the
    # literal definition
    cache = engines._PlanCache(engines.PLAN_CACHE_TRANSITIONS)
    monkeypatch.setattr(engines, "_PLANS", cache)
    dims = (5, 3, 4, 3)
    rng = derive_rng("one-plan-per-size", kind)
    H = Tensor(dims, {idx: _kernel_entry(rng, kind)
                      for idx in itertools.product(
                          *(range(1, s + 1) for s in dims))
                      if rng.random() < 0.8})
    for rows in itertools.combinations(range(1, dims[0] + 1), 2):
        table = row_minors(H, rows)
        for cols in itertools.product(*(itertools.combinations(
                range(1, s + 1), 2) for s in dims[1:])):
            minor = minor_tensor(H, (rows,) + cols).entries
            value = table.get(cols, 0)
            assert value == _literal_block_sum(minor, 1, len(dims), 2)
            _check_type(value, kind)
    assert list(cache.plans) == [(1, (2, 3, 4, 3), 2)]
    (plan,) = cache.plans.values()
    assert cache.weight == plan.transitions


def test_row_minors_on_an_axis_wider_than_64_points():
    # an axis of 70 points: masks over 64 bits stay exact
    H = Tensor.from_function((2, 70), lambda i, j: i * 100 + j * j)
    table = row_minors(H, (1, 2))
    assert len(table) == math.comb(70, 2)
    for j, k in ((1, 70), (3, 64), (65, 66)):
        assert table[((j, k),)] == (H.get((1, j)) * H.get((2, k))
                                    - H.get((1, k)) * H.get((2, j)))


def _plan_cache_calls():
    rng = derive_rng("plan-cache")
    x, w = poly_gen("x"), omega()
    return [
        lambda: pfaffian({(i, j): rng.randint(-3, 3) for i in range(1, 7)
                          for j in range(i + 1, 7)}),
        lambda: hyperdet(_random_tensor(rng, 4, 3, kind="fraction")),
        lambda: hyperpfaffian(BlockArray.from_function(
            2, 2, 4, lambda *k: x + rng.randint(-3, 3))),
        lambda: hyperhafnian(BlockArray.from_function(
            1, 3, 3, lambda *k: w * rng.randint(-3, 3))),
        lambda: det_matrix([[Fraction(1, 2), 1], [x, 2]]),
        lambda: row_minors(_random_tensor(rng, 4, 3, kind="quadext"), (1, 3)),
        lambda: pfaffian({}, size=4),
    ]


def test_plan_cache_cold_warm_and_over_bound(monkeypatch):
    # the value pass is the same whether its plan was just built, read
    # from the cache, or built over the bound and dropped
    cache = engines._PlanCache(engines.PLAN_CACHE_TRANSITIONS)
    monkeypatch.setattr(engines, "_PLANS", cache)
    cold = [f() for f in _plan_cache_calls()]
    plans = dict(cache.plans)
    assert plans and cache.weight == sum(
        p.transitions for p in plans.values())
    warm = [f() for f in _plan_cache_calls()]
    assert all(cache.plans[shape] is p for shape, p in plans.items())
    over_bound = engines._PlanCache(0)
    monkeypatch.setattr(engines, "_PLANS", over_bound)
    over = [f() for f in _plan_cache_calls()]
    assert over_bound.plans == {} and over_bound.weight == 0
    for results in zip(cold, warm, over):
        assert results[0] == results[1] == results[2]
        assert len({type(v) for v in results}) == 1
        if type(results[0]) is dict:
            for key, v in results[0].items():
                assert type(results[1][key]) is type(results[2][key]) \
                    is type(v)

    # an l = 4 and an m = 3 shape on each entry kind, against the literal
    # definition, with one result type cold, warm and over the bound
    for kind in KINDS:
        for l, m, n in ((4, 1, 2), (2, 3, 2)):
            rng = derive_rng("plan-cache-literal", kind, f"{l}.{m}.{n}")
            entries = {k: _random_scalar(rng, kind) for k in _all_keys(l, m, n)
                       if rng.random() < 0.8}
            results = []
            for cache in (engines._PlanCache(engines.PLAN_CACHE_TRANSITIONS),
                          None, engines._PlanCache(0)):
                if cache is not None:
                    monkeypatch.setattr(engines, "_PLANS", cache)
                results.append(engines._block_sum(entries, l,
                                                  _full(l, m, n)))
            want = _literal_block_sum(entries, l, m, n)
            assert all(v == want for v in results)
            assert len({type(v) for v in results}) == 1
            _check_type(results[0], kind)


def test_plan_cache_evicts_least_recently_used():
    shapes = [(2, (4,), 2), (1, (3, 3), 3), (2, (4, 4), 2)]
    sizes = [engines._Plan(*shape).transitions for shape in shapes]
    assert sizes == [6, 12, 36]
    cache = engines._PlanCache(sum(sizes) - 1)
    first = cache.get(*shapes[0])
    cache.get(*shapes[1])
    assert cache.get(*shapes[0]) is first
    cache.get(*shapes[2])
    assert list(cache.plans) == [shapes[0], shapes[2]]
    assert cache.weight == sizes[0] + sizes[2]


def test_plan_counts_states_and_transitions():
    # Pfaffian of size 4: {1,2,3,4} -> {3,4}, {2,4}, {2,3} -> {}
    plan = engines._Plan(2, (4,), 2)
    assert plan.states == (1, 3, 1) and plan.transitions == 6
    # l = 1: the first slot is forced, so layer t has C(N, t)^(m-1)
    # states, and each has (N - t)^(m-1) transitions
    N, m = 4, 4
    plan = engines._Plan(1, (N,) * m, N)
    assert plan.states == tuple(math.comb(N, t) ** (m - 1)
                                for t in range(N + 1))
    assert plan.transitions == sum(math.comb(N, t) ** (m - 1)
                                   * (N - t) ** (m - 1) for t in range(N))
    # the sizes the closed forms give (ROADMAP item 1)
    plan = engines._Plan(2, (8, 8), 4)
    assert plan.states == (1, 196, 1050, 280, 1)
    assert plan.transitions == 34076
    assert engines._Plan(4, (12,), 3).transitions == 6150
    plan = engines._Plan(1, (2, 4, 4, 6), 2)
    assert plan.states == (1, 96, 540) and plan.transitions == 4416


def _tier1_starts():
    # (l, start masks, steps): the full starts of the engine tests and
    # partial row_minors starts
    for l, m, size in ([(1, 2, n) for n in range(1, 6)] + [(1, 4, 3), (1, 4, 4)]
                       + [(2, 1, s) for s in range(2, 11, 2)]
                       + [(2, 2, 6), (2, 3, 4), (3, 2, 6), (4, 1, 8)]):
        yield l, ((1 << size + 1) - 2,) * m, size // l
    for m, N, rows in ((2, 6, (1, 2)), (2, 6, (2, 5)), (4, 4, (1, 3)),
                       (4, 4, (2, 3))):
        yield 1, (sum(1 << i for i in rows),) \
            + ((1 << N + 1) - 2,) * (m - 1), len(rows)


def _sizes(start):
    return tuple(p.bit_count() for p in start)


def _comb0(n, k):
    return math.comb(n, k) if n >= 0 and 0 <= k else 0


def _walk(l, start, steps):
    # the state graph by brute force from its definition: per layer the
    # states reached, and the transitions out of each layer
    layer, states, moves = {start}, [1], []
    for _ in range(steps):
        nxt, count = set(), 0
        for state in layer:
            options = []
            for s, free in enumerate(state):
                pts = [p for p in range(free.bit_length()) if free >> p & 1]
                options.append([free - sum(1 << p for p in blk)
                                for blk in itertools.combinations(pts, l)
                                if s or blk[0] == pts[0]])
            for rests in itertools.product(*options):
                nxt.add(rests)
                count += 1
        layer = nxt
        states.append(len(layer))
        moves.append(count)
    return states, moves


def _closed_form_starts():
    # full starts of 1..6 blocks for l, m = 1..4, up to 10,000
    # transitions, and the row_minors starts of _tier1_starts
    for l in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 7):
                states, fanout = engines._plan_size(l, [l * n] * m, n)
                if sum(map(operator.mul, states, fanout)) > 10_000:
                    break
                yield l, ((1 << l * n + 1) - 2,) * m, n
    yield from (s for s in _tier1_starts() if len(set(s[1])) > 1)


def test_plan_sizes_match_their_closed_forms():
    # states(t) = C(|P_0| - t, |P_0| - t*l) * prod_s C(|P_s|, t*l), and
    # transitions(t) = states(t) * C(|P_0| - t*l - 1, l - 1)
    #                  * prod_s C(|P_s| - t*l, l)
    # against the plan of their sizes, its columns and a brute-force
    # walk from the start masks
    starts = list(_closed_form_starts())
    assert len(starts) > 40
    for l, start, steps in starts:
        head, *rest = _sizes(start)
        states = [_comb0(head - t, head - t * l)
                  * math.prod(_comb0(n, t * l) for n in rest)
                  for t in range(steps + 1)]
        moves = [states[t] * _comb0(head - t * l - 1, l - 1)
                 * math.prod(_comb0(n - t * l, l) for n in rest)
                 for t in range(steps)]
        plan = engines._Plan(l, (head, *rest), steps)
        assert list(plan.states) == states
        assert plan.transitions == sum(moves)
        assert engines._plan_size(l, [head, *rest], steps) == (
            states, [s and t // s for s, t in zip(states, moves)])
        for t, (fanout, key, dst) in enumerate(plan.steps):
            assert type(fanout) is int and fanout * states[t] == moves[t]
            assert len(key) == len(dst) == moves[t]
            # every state of the next layer is reached
            assert set(dst) == set(range(states[t + 1])) or not moves[t]
        assert _walk(l, start, steps) == (states, moves)


def test_plan_cache_memory_stays_small():
    # a plan holds flat arrays of small ints and no per-state or per-key
    # Python objects: about 8 bytes a transition, so the cache holds at
    # most about 8 * PLAN_CACHE_TRANSITIONS bytes
    shapes = list(dict.fromkeys((l, _sizes(start), steps)
                                for l, start, steps in _tier1_starts()))
    cache = engines._PlanCache(engines.PLAN_CACHE_TRANSITIONS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for shape in shapes:
            cache.get(*shape)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache.plans) == len(shapes)
    assert cache.weight == sum(p.transitions for p in cache.plans.values())
    assert cache.weight <= engines.PLAN_CACHE_TRANSITIONS
    assert retained <= 8 * cache.weight + 2048 * len(cache.plans)
    assert retained <= 8 * engines.PLAN_CACHE_TRANSITIONS


# ------------------------------------------------- hyperpfaffian / hafnian

def test_hyperpfaffian_single_block_cases():
    assert hyperpfaffian(BlockArray(2, 1, 2, {((1, 2),): 5})) == 5
    c = unipoly("c", [0, 1])
    assert hyperpfaffian(BlockArray(4, 1, 4, {((1, 2, 3, 4),): c})) == c


def test_hyperpfaffian_motzkin_example():
    motzkin = [1, 1, 2, 4, 9]
    B = BlockArray(2, 1, 4, {((i, j),): (j - i) * motzkin[i + j - 3]
                             for i in range(1, 5) for j in range(i + 1, 5)})
    assert hyperpfaffian(B) == 1 * 9 - 2 * 8 + 6 * 2 == 5


def test_hyperpfaffian_odd_block_rules():
    # odd block length with odd slot count is identically zero
    B = BlockArray(3, 1, 6, {((1, 2, 3),): 7, ((4, 5, 6),): 2})
    assert hyperpfaffian(B) == 0
    with pytest.raises(OddBlockLength):
        hyperpfaffian(BlockArray(3, 2, 6))


@pytest.mark.parametrize("l,m,n", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                   (2, 2, 2), (4, 1, 2), (2, 3, 2),
                                   (4, 2, 2)])
def test_hyperpfaffian_matches_literal_definition(l, m, n):
    rng = derive_rng("pf-literal", str(l), str(m), str(n))
    B = _random_block_array(rng, l, m, l * n)
    full = list(enum_block_perms(l, n))
    literal = 0
    for combo in itertools.product(full, repeat=m):
        sign = 1
        for bp in combo:
            sign *= bp.sign
        term = sign
        for k in range(n):
            term = term * B.entries.get(tuple(bp.blocks[k] for bp in combo), 0)
        literal += term
    value = hyperpfaffian(B)
    assert math.factorial(n) * value == literal
    assert type(value) is int


@pytest.mark.parametrize("l,m,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                   (3, 2, 2), (2, 3, 2), (1, 2, 3)])
def test_hyperhafnian_matches_literal_definition(l, m, n):
    rng = derive_rng("hf-literal", str(l), str(m), str(n))
    B = _random_block_array(rng, l, m, l * n, lo=0, hi=3)
    full = list(enum_block_perms(l, n))
    literal = 0
    for combo in itertools.product(full, repeat=m):
        term = 1
        for k in range(n):
            term = term * B.entries.get(tuple(bp.blocks[k] for bp in combo), 0)
        literal += term
    value = hyperhafnian(B)
    assert math.factorial(n) * value == literal
    assert type(value) is int


def test_hyperhafnian_examples():
    assert hyperhafnian(BlockArray(2, 1, 2, {((1, 2),): 5})) == 5
    ones = BlockArray(2, 1, 4, {((i, j),): 1
                                for i in range(1, 5) for j in range(i + 1, 5)})
    assert hyperhafnian(ones) == 3
    single = BlockArray(2, 2, 2, {((1, 2), (1, 2)): 9})
    assert hyperhafnian(single) == 9


def test_hyperpfaffian_multilinear_in_one_index():
    rng = derive_rng("pf-multilinear")
    for l, m, n in [(2, 1, 2), (2, 2, 2), (4, 1, 2)]:
        B = _random_block_array(rng, l, m, l * n)
        scaled = BlockArray(l, m, l * n,
                            {k: (3 * v if 2 in k[0] else v)
                             for k, v in B.entries.items()})
        assert hyperpfaffian(scaled) == 3 * hyperpfaffian(B)


# ------------------------------------------------------------- sub-arrays

def test_subhyperpfaffian_full_subsets():
    rng = derive_rng("subpf-full")
    B = _random_block_array(rng, 2, 2, 4)
    full = (1, 2, 3, 4)
    assert hyperpfaffian(B, [full, full]) == hyperpfaffian(B)
    assert hyperhafnian(B, [full, full]) == hyperhafnian(B)


def test_subhyperpfaffian_indicator_lemma_exhaustive():
    # aligned-pairs indicator on [2N]; the sub-Pfaffian flags exactly
    # the subsets assembled from whole aligned pairs
    for big_n, n in [(3, 2), (4, 2)]:
        A = BlockArray(2, 1, 2 * big_n,
                       {((2 * v - 1, 2 * v),): 1 for v in range(1, big_n + 1)})
        for P in itertools.combinations(range(1, 2 * big_n + 1), 2 * n):
            aligned = all(P[i] % 2 == 1 and P[i + 1] == P[i] + 1
                          for i in range(0, 2 * n, 2))
            assert hyperpfaffian(A, [P]) == (1 if aligned else 0)


def test_subhyperpfaffian_cardinality_errors():
    B = _random_block_array(derive_rng("subpf-err"), 2, 1, 6)
    with pytest.raises(CardinalityNotMultipleOfL):
        hyperpfaffian(B, [(1, 2, 3)])
    with pytest.raises(BoundsError):
        hyperpfaffian(B, [(1, 2, 3, 9)])
    with pytest.raises(CardinalityMismatch):
        hyperhafnian(B, [(1, 2), (3, 4)])
    C = _random_block_array(derive_rng("subpf-err"), 2, 2, 6)
    with pytest.raises(CardinalityNotMultipleOfL, match=r"\[2, 4\]"):
        hyperpfaffian(C, [(1, 2), (3, 4, 5, 6)])


def test_subsets_refuse_bad_indices():
    # True hashes and compares like 1, but it is not an index; None and
    # a list cannot be sorted or hashed: each index is tested first
    B = BlockArray(2, 1, 4, {((1, 2),): 5, ((2, 3),): 1, ((3, 4),): 2})
    for P in ((True, 2), (True, 2, 3, 4), (1, None, 2, 3), (1, 2, [3], 4),
              (1, 2.0), ("1", 2), (1, 1), (0, 1), (4, 5)):
        for engine in (hyperpfaffian, hyperhafnian):
            with pytest.raises(BoundsError, match="not distinct indices"):
                engine(B, [P])


def _sub_array_literal(entries, l, subsets):
    # the entries on the subsets, relabeled by position in each sorted
    # subset, in the key form of _literal_block_sum
    pos = [{p: k for k, p in enumerate(sorted(P), start=1)} for P in subsets]
    out = {}
    for key, v in entries.items():
        if all(set(blk) <= set(at) for blk, at in zip(key, pos)):
            new = tuple(tuple(at[p] for p in blk) for blk, at in zip(key, pos))
            out[tuple(blk[0] for blk in new) if l == 1 else new] = v
    return out


# (engine, signed, l, m, size, subsets): unsorted subsets are read in
# their sorted order
SUB_ARRAY_CASES = [
    (hyperpfaffian, True, 2, 1, 7, [(2, 3, 5, 7)]),
    (hyperpfaffian, True, 2, 1, 7, [(6, 1, 4, 2, 3, 7)]),
    (hyperpfaffian, True, 2, 2, 6, [(1, 3, 4, 6), (2, 3, 5, 6)]),
    (hyperhafnian, False, 2, 1, 7, [(1, 2, 4, 5, 6, 7)]),
    (hyperhafnian, False, 2, 2, 6, [(5, 1, 2, 3), (2, 4, 5, 6)]),
    (hyperhafnian, False, 1, 1, 5, [(1, 3, 4)]),
    (hyperhafnian, False, 1, 2, 5, [(2, 5, 4), (1, 3, 5)]),
]


@pytest.mark.parametrize("kind", KINDS)
def test_sub_arrays_match_literal_definition(kind):
    for engine, signed, l, m, size, subsets in SUB_ARRAY_CASES:
        rng = derive_rng("sub-array-literal", kind, f"{l}.{m}.{size}",
                         str(subsets))
        B = BlockArray.from_function(
            l, m, size, lambda *k: _random_scalar(rng, kind)
            if rng.random() < 0.8 else 0)
        want = _literal_block_sum(_sub_array_literal(B.entries, l, subsets),
                                  l, m, len(subsets[0]) // l, signed)
        value = engine(B, subsets)
        assert value == want
        _check_type(value, kind)


def test_sub_array_unread_entries_of_another_type(monkeypatch):
    # Fraction entries on the subset, polynomial and extension entries
    # off it: the values read are packed as Fractions, and the result is
    # the Fraction the literal definition gives
    rng = derive_rng("sub-array-unread")
    P = (1, 2, 4, 5)
    B = BlockArray(2, 1, 6)
    for i, j in itertools.combinations(range(1, 7), 2):
        if i in P and j in P:
            B.entries[((i, j),)] = Fraction(rng.choice((-3, -1, 2, 5)),
                                            rng.choice((1, 2, 3)))
        else:
            B.entries[((i, j),)] = (poly_gen("y") if i % 2 else omega()) + i
    packed = []
    pack = engines._packed_entries

    def spy(*args):
        packed.append(pack(*args))
        return packed[-1]

    monkeypatch.setattr(engines, "_packed_entries", spy)
    read = _sub_array_literal(B.entries, 2, [P])
    for engine, signed in ((hyperpfaffian, True), (hyperhafnian, False)):
        value = engine(B, [P])
        assert value == _literal_block_sum(read, 2, 1, 2, signed)
        assert type(value) is Fraction
    # the one-digit, all-Fraction packing
    assert len(packed) == 2 and all(p is not None and p[1].func is Fraction
                                    for p in packed)


def test_slot_missing_a_point_is_zero_before_masks_and_plans(monkeypatch):
    # the zero test reads the slots' points, not bitmasks: two entries
    # on 2 * 10**9 points are 0 at once, and no plan is built
    cache = engines._PlanCache(engines.PLAN_CACHE_TRANSITIONS)
    monkeypatch.setattr(engines, "_PLANS", cache)
    huge = BlockArray(2, 1, 2 * 10 ** 9, {((1, 2),): 3, ((3, 4),): 5})
    start = time.perf_counter()
    assert hyperpfaffian(huge) == 0 and hyperhafnian(huge) == 0
    assert time.perf_counter() - start < 0.5
    # point 6 of the subset is on no entry
    B = BlockArray(2, 1, 6, {((1, 2),): 3, ((3, 4),): 5, ((1, 5),): 7})
    assert hyperpfaffian(B, [(1, 2, 5, 6)]) == 0
    assert hyperhafnian(B, [(1, 2, 5, 6)]) == 0
    assert cache.plans == {} and cache.weight == 0
    assert hyperpfaffian(B, [(1, 2, 3, 4)]) == 15
    assert len(cache.plans) == 1


# ----------------------------------------------------------------- flattening

def test_flatten_single_slot_is_identity():
    rng = derive_rng("flatten-id")
    B = _random_block_array(rng, 2, 1, 4)
    assert flatten_matsumoto(B) == B


def test_flatten_one_block_case():
    rng = derive_rng("flatten-n1")
    for _ in range(5):
        B = _random_block_array(rng, 2, 2, 2)
        F = flatten_matsumoto(B)
        assert F.l == 4 and F.m == 1 and F.size == 4
        assert hyperpfaffian(F) == hyperpfaffian(B) == B.entries.get(
            ((1, 2), (1, 2)), 0)


def test_flatten_preserves_hyperpfaffian():
    rng = derive_rng("flatten-random")
    for _ in range(20):
        B = _random_block_array(rng, 2, 2, 4)
        assert hyperpfaffian(flatten_matsumoto(B)) == hyperpfaffian(B)


def test_flatten_rejects_odd_blocks():
    with pytest.raises(OddBlockLength):
        flatten_matsumoto(BlockArray(3, 2, 6))


# ------------------------------------------------------------ minor summation

def _literal_contraction(entries, tables):
    # the r-fold sum as written: every K, every choice of one I_s per slot
    total = {}
    for K, a in entries.items():
        for choice in itertools.product(
                *(tables[s].get(k, {}).items() for s, k in enumerate(K))):
            term = a
            for _, d in choice:
                term = term * d
            key = tuple(itertools.chain.from_iterable(I for I, _ in choice))
            total[key] = total[key] + term if key in total else term
    return {k: v for k, v in total.items() if v != 0}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_contract_slots_matches_literal_sum(r, kind):
    rng = derive_rng("contract-slots", str(r), kind)
    entries = {K: _random_scalar(rng, kind)
               for K in itertools.product(range(3), repeat=r)
               if rng.random() < 0.7}
    # K_s = 2 is missing from the table of slot 0, so it contributes zero
    idx = [(1,), (2,), (1, 2), (3, 1)]
    tables = [{k: {I: _random_scalar(rng, kind)
                   for I in rng.sample(idx, rng.randint(1, 3))}
               for k in range(3) if s or k != 2}
              for s in range(r)]
    out = contract_slots(entries, tables)
    assert out and out == _literal_contraction(entries, tables)
    assert all(v != 0 for v in out.values())


@pytest.mark.parametrize("kind", KINDS)
def test_contract_slots_drops_cancelled_keys(kind):
    rng = derive_rng("contract-cancel", kind)
    a, d = 0, 0
    while a == 0 or d == 0:
        a, d = _random_scalar(rng, kind), _random_scalar(rng, kind)
    # (i, j) cancels at the last slot; (i, k) from K = (2, 2) and (3, 2)
    # cancels after the first, so only (i, k) from K = (0, 0) is left
    entries = {(0, 0): a, (1, 1): a, (2, 2): a, (3, 2): -a}
    tables = [{k: {("i",): 1 if k < 2 else d} for k in range(4)},
              {0: {("j",): d, ("k",): a}, 1: {("j",): -d}, 2: {("k",): 1}}]
    out = contract_slots(entries, tables)
    assert _literal_contraction(entries, tables) == out == {("i", "k"): a * a}
    assert ("i", "j") not in out


def test_msf_worked_example():
    A = BlockArray(2, 1, 3, {(K,): 1
                             for K in itertools.combinations(range(1, 4), 2)})
    H = [Tensor.from_matrix([[1, 0, 0], [0, 1, 1]])]
    Q = msf_build_Q(A, H)
    assert Q.entries == {((1, 2),): 2}
    assert msf_lhs(A, H) == 2 == hyperpfaffian(Q)


def test_msf_single_p_case():
    # N = ln leaves one subset, so the sum is Pf(A) times the dets
    rng = derive_rng("msf-single")
    A = _random_block_array(rng, 2, 2, 4)
    H = [Tensor.from_function((4, 4), lambda *i: rng.randint(-2, 2))
         for _ in range(2)]
    lhs = msf_lhs(A, H)
    dets = math.prod(hyperdet(h) for h in H)
    assert lhs == hyperpfaffian(A) * dets
    assert lhs == hyperpfaffian(msf_build_Q(A, H))


def test_msf_zero_array_gives_zero_kernel():
    A = BlockArray(2, 1, 4)
    H = [Tensor.from_function((2, 4), lambda *i: 1)]
    assert msf_build_Q(A, H).entries == {}
    assert msf_lhs(A, H) == 0


GRID = ([(2, 2, 1, 1), (2, 2, 1, 2)] * 5
        + [(2, 2, 2, 1), (2, 2, 2, 2)] * 4
        + [(2, 4, 1, 1), (2, 4, 1, 2)] * 4
        + [(2, 4, 2, 1)] * 4)


def test_msf_matches_pf_of_kernel_on_random_instances():
    rng = derive_rng("msf-grid")
    assert len(GRID) == 30
    for l, m, r, n in GRID:
        N = rng.randint(l * n, 6)
        A = _random_block_array(rng, l, r, N, lo=-2, hi=2)
        H = [Tensor.from_function((l * n,) * (m - 1) + (N,),
                                  lambda *i: rng.randint(-2, 2))
             for _ in range(r)]
        assert msf_lhs(A, H) == hyperpfaffian(msf_build_Q(A, H))


def test_msf_determinant_specialization():
    # two-axis tensors are plain rectangular matrices; the kernel entries
    # are sums of 2x2 minors weighted by A
    rng = derive_rng("msf-det")
    A = _random_block_array(rng, 2, 1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
    H = [Tensor.from_matrix(rows)]
    Q = msf_build_Q(A, H)
    for i1, i2 in itertools.combinations(range(1, 5), 2):
        expect = 0
        for k1, k2 in itertools.combinations(range(1, 6), 2):
            a = A.entries.get(((k1, k2),), 0)
            minor = (rows[i1 - 1][k1 - 1] * rows[i2 - 1][k2 - 1]
                     - rows[i1 - 1][k2 - 1] * rows[i2 - 1][k1 - 1])
            expect += a * minor
        assert Q.entries.get(((i1, i2),), 0) == expect
    assert msf_lhs(A, H) == hyperpfaffian(Q)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_msf_diagonal_array_gives_pfaffian_hafnian_dichotomy(r):
    # diagonal weights collapse the kernel sum; odd slot counts keep the
    # sign and give a Pfaffian, even ones drop it and give a Hafnian
    rng = derive_rng("pf-hf", str(r))
    l, n, N = 2, 2, 5
    a_weights = {K: rng.randint(-3, 3)
                 for K in itertools.combinations(range(1, N + 1), l)}
    A_diag = BlockArray(l, r, N,
                        {(K,) * r: v for K, v in a_weights.items() if v})
    A_one = BlockArray(l, 1, N, {(K,): v for K, v in a_weights.items() if v})
    H = [Tensor.from_function((l * n, N), lambda *i: rng.randint(-2, 2))
         for _ in range(r)]
    Q = msf_build_Q(A_diag, H)
    rhs = 0
    for P in itertools.combinations(range(1, N + 1), l * n):
        weight = (hyperpfaffian if r % 2 else hyperhafnian)(A_one, [P])
        if weight == 0:
            continue
        dets = math.prod(
            hyperdet(minor_tensor(H[s], [tuple(range(1, l * n + 1)), P]))
            for s in range(r))
        rhs += weight * dets
    assert hyperpfaffian(Q) == rhs


def test_msf_shape_errors():
    A = BlockArray(2, 1, 4)
    with pytest.raises(ShapeMismatch):
        msf_build_Q(A, [])
    with pytest.raises(ShapeMismatch):
        msf_build_Q(A, [Tensor((2, 3))])
    with pytest.raises(ShapeMismatch):
        msf_build_Q(A, [Tensor((3, 4))])
    with pytest.raises(ShapeMismatch):
        msf_build_Q(A, [Tensor((6, 6, 4))])


# -------------------------------------------------------- containers and IO

def test_block_array_sign_synthesis():
    B = BlockArray(2, 1, 4)
    B.set(((3, 1),), 7)
    assert B.entries == {((1, 3),): -7}
    assert B.get(((3, 1),)) == 7
    assert B.get(((1, 3),)) == -7
    assert B.get(((2, 2),)) == 0
    B2 = BlockArray(2, 2, 4, {((1, 2), (3, 4)): 5})
    assert B2.get(((2, 1), (4, 3))) == 5
    assert B2.get(((2, 1), (3, 4))) == -5


def test_block_array_key_checks():
    B = BlockArray(3, 1, 4)
    # a nondecreasing block that repeats an index is not a sorted one
    with pytest.raises(BoundsError, match="repeats an index"):
        B.set(((1, 1, 2),), 5)
    B.set(((1, 2, 2),), 0)
    assert B.entries == {} and B.get(((2, 2, 3),)) == 0
    # sorted and unsorted blocks get the same checks and messages
    for key, message in [
            (((0, 1, 2),), "index 0 out of [1,4]"),
            (((1, 2, 5),), "index 5 out of [1,4]"),
            (((5, 2, 1),), "index 5 out of [1,4]"),
            (((1, 2.0, 3),), "index 2.0 out of [1,4]"),
            ((("1", 2, 3),), "index '1' out of [1,4]"),
            (((1, 2),), "block (1, 2) has length 2, need 3"),
            (((1, 2, 3), (1, 2, 4)),
             "key ((1, 2, 3), (1, 2, 4)) has 2 slots, need 1")]:
        with pytest.raises(BoundsError) as exc:
            B.set(key, 1)
        assert str(exc.value) == message
    doc = {"kind": "block_array", "l": 2, "m": 1, "n": 2,
           "entries": [{"idx": [[2, 2]], "value": "1"}]}
    with pytest.raises(BoundsError, match="repeats an index"):
        block_array_from_json(doc)


def test_tensor_bounds_checks():
    t = Tensor((2,) * 2)
    with pytest.raises(BoundsError):
        t.set((0, 1), 4)
    with pytest.raises(BoundsError):
        t.get((1, 3))
    with pytest.raises(BoundsError):
        t.get((1, 1, 1))


def test_tensor_json_round_trip():
    a = poly_gen("a")
    doc = {"kind": "tensor", "m": 2, "n": 2,
           "entries": [{"idx": [1, 1], "value": "a^2 + 1"},
                       {"idx": [2, 1], "value": "-2"}]}
    assert tensor_from_json(doc) == Tensor(
        (2,) * 2, {(1, 1): a ** 2 + 1, (2, 1): -2})
    rect = {"kind": "tensor", "m": 2, "shape": [2, 3],
            "entries": [{"idx": [1, 3], "value": "5"}]}
    assert tensor_from_json(rect) == Tensor((2, 3), {(1, 3): 5})


def test_block_array_json_round_trip():
    doc = {"kind": "block_array", "l": 2, "m": 1, "n": 2,
           "entries": [{"idx": [[1, 2]], "value": "5"},
                       {"idx": [[4, 1]], "value": "3"}]}
    assert block_array_from_json(doc) == BlockArray(
        2, 1, 4, {((1, 2),): 5, ((1, 4),): -3})
    odd = {"kind": "block_array", "l": 2, "m": 1, "size": 5,
           "entries": [{"idx": [[1, 5]], "value": "1/2"}]}
    assert block_array_from_json(odd) == BlockArray(
        2, 1, 5, {((1, 5),): Fraction(1, 2)})


def test_block_array_json_reads_repeats_like_set():
    entries = [([[1, 2], [3, 4]], "a + 1"), ([[1, 3], [2, 4]], "1/2"),
               ([[2, 1], [3, 4]], "a + 1"), ([[1, 3], [4, 2]], "1/2"),
               ([[1, 4], [2, 3]], "1/2"), ([[1, 4], [3, 2]], "0"),
               ([[2, 2], [1, 3]], "0"), ([[3, 4], [2, 1]], "1/2")]
    doc = {"kind": "block_array", "l": 2, "m": 2, "n": 2,
           "entries": [{"idx": idx, "value": v} for idx, v in entries]}
    expected = BlockArray(2, 2, 4)
    for idx, v in entries:
        expected.set(idx, parse_scalar(v))
    B = block_array_from_json(doc)
    assert B == expected and B.entries == expected.entries
    a = poly_gen("a")
    assert B.entries == {((1, 2), (3, 4)): -(a + 1),
                         ((1, 3), (2, 4)): Fraction(-1, 2),
                         ((3, 4), (1, 2)): Fraction(-1, 2)}


def _set_one_by_one(l, m, size, entries):
    """BlockArray.set applied to each (idx, text) in order: the array,
    or the class and message of the first error."""
    arr = BlockArray(l, m, size)
    try:
        for idx, text in entries:
            arr.set(idx, parse_scalar(text))
    except BoundsError as exc:
        return type(exc), str(exc)
    return arr


def test_block_array_json_matches_set_entry_by_entry():
    # seeded documents with permuted blocks, repeated indices, duplicate
    # keys, zeros after nonzero values, and now and then one bad index
    rng = derive_rng("json-reader-against-set")
    texts = ["0", "1/2", "-3", "a + 1", "2*a^2 - 1/3"]
    bad = [[1, 1], [True, 2], [1, [2]], [2.0, 1], [0, 3]]
    for _ in range(300):
        entries = []
        for _ in range(rng.randint(1, 12)):
            if entries and rng.random() < 0.25:     # a key seen before
                idx = [list(b) for b in rng.choice(entries)[0]]
            else:
                idx = [rng.sample(range(1, 5), 2) for _ in range(2)]
            text = rng.choice(texts)
            if rng.random() < 0.1:                  # a repeated index
                idx[rng.randrange(2)] = [3, 3]
                text = "0" if rng.random() < 0.7 else text
            entries.append((idx, text))
        if rng.random() < 0.3:
            entries.insert(rng.randint(0, len(entries)),
                           ([[1, 2], rng.choice(bad)], "5"))
        doc = {"kind": "block_array", "l": 2, "m": 2, "size": 4,
               "entries": [{"idx": idx, "value": t} for idx, t in entries]}
        want = _set_one_by_one(2, 2, 4, entries)
        if isinstance(want, tuple):
            with pytest.raises(want[0]) as exc:
                block_array_from_json(doc)
            assert str(exc.value) == want[1]
            continue
        got = block_array_from_json(doc).entries
        assert [(k, type(v), v) for k, v in got.items()] == \
            [(k, type(v), v) for k, v in want.entries.items()]


@pytest.mark.parametrize("idx, message", [
    ([[1, 2.0]], "index 2.0 out of [1,4]"),
    ([[1, [2]]], "index [2] out of [1,4]"),
    ([[True, 2]], "index True out of [1,4]")])
def test_block_array_json_checks_each_index_type(idx, message):
    """An index equal to one read before, but not an int, is not taken
    for it: JSON true is no index 1."""
    doc = {"kind": "block_array", "l": 2, "m": 1, "n": 2,
           "entries": [{"idx": [[1, 2]], "value": "5"},
                       {"idx": idx, "value": "3"}]}
    with pytest.raises(BoundsError) as exc:
        block_array_from_json(doc)
    assert str(exc.value) == message


def test_json_bad_value_text_fails_at_first_use():
    doc = {"kind": "block_array", "l": 2, "m": 1, "n": 2,
           "entries": [{"idx": [[1, 2]], "value": "1/0"},
                       {"idx": [[1, 9]], "value": "1/0"},
                       {"idx": [[3, 4]], "value": "1/0"}]}
    with pytest.raises(ParseError, match="bad rational '1/0'"):
        block_array_from_json(doc)


def test_json_quadratic_extension_header():
    w = omega()
    doc = {"kind": "block_array", "l": 2, "m": 1, "n": 1,
           "ext": {"letter": "w", "p": "-1", "r": "-1"},
           "entries": [{"idx": [[1, 2]], "value": "2*w + 1"}]}
    assert block_array_from_json(doc) == BlockArray(
        2, 1, 2, {((1, 2),): 1 + 2 * w})

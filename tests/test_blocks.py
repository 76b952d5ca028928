"""Signed block permutations."""

import itertools
import math

import pytest

from hankelpf.blocks import (SignedBlockPermutation, enum_block_perms,
                             perm_sign)
from hankelpf.errors import BoundsError, NotAPermutation


def test_perm_sign_basics():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 4, 1, 3)) == -1


def test_perm_sign_matches_inversion_count():
    for word in itertools.permutations(range(1, 6)):
        inv = sum(1 for i in range(5) for j in range(i + 1, 5)
                  if word[i] > word[j])
        assert perm_sign(word) == (-1) ** inv


def test_perm_sign_rejects_non_permutations():
    for bad in [(1, 1, 2), (0, 1, 2), (1, 2, 4), (1, 2, "x")]:
        with pytest.raises(NotAPermutation):
            perm_sign(bad)


def test_block_perms_2_2_elements_and_signs():
    got = [(bp.word, bp.sign) for bp in enum_block_perms(2, 2)]
    assert got == [
        ((1, 2, 3, 4), 1),
        ((1, 3, 2, 4), -1),
        ((1, 4, 2, 3), 1),
        ((2, 3, 1, 4), 1),
        ((2, 4, 1, 3), -1),
        ((3, 4, 1, 2), 1),
    ]


def test_block_perms_single_block():
    only = list(enum_block_perms(4, 1))
    assert only == [SignedBlockPermutation(((1, 2, 3, 4),), 1)]


@pytest.mark.parametrize("l,n", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3),
                                 (3, 2), (4, 2), (4, 3)])
def test_block_perm_counts(l, n):
    count = sum(1 for _ in enum_block_perms(l, n))
    assert count == math.factorial(l * n) // math.factorial(l) ** n


@pytest.mark.parametrize("l,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_block_perm_signs_match_words(l, n):
    for bp in enum_block_perms(l, n):
        assert bp.sign == perm_sign(bp.word)
        for block in bp.blocks:
            assert list(block) == sorted(block)


def test_block_perms_lex_order():
    words = [bp.word for bp in enum_block_perms(2, 3)]
    assert words == sorted(words)
    assert len(set(words)) == len(words)


@pytest.mark.parametrize("l,n", [(2, 2), (2, 3), (4, 2)])
def test_canonical_times_reorderings_reconstructs_full_family(l, n):
    full = {}
    for bp in enum_block_perms(l, n):
        full[bp.blocks] = bp.sign
    rebuilt = {}
    # the min-ordered partitions: the family the engines' pinned first
    # slot runs over
    for bp in enum_block_perms(l, n):
        mins = [blk[0] for blk in bp.blocks]
        if mins != sorted(mins):
            continue
        for order in itertools.permutations(range(n)):
            blocks = tuple(bp.blocks[i] for i in order)
            rebuilt[blocks] = bp.sign
    # same underlying set, and for even l the sign survives reordering
    assert rebuilt == full


def test_bounds_errors():
    with pytest.raises(BoundsError):
        list(enum_block_perms(0, 2))
    with pytest.raises(BoundsError):
        list(enum_block_perms(2, 0))

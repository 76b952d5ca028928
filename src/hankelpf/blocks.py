"""Index combinatorics: ordered block partitions with signs.

Everything works on 1-based indices, matching the usual row/column
labelling of matrices. Blocks are sorted tuples of ints. Streams are
generators in lexicographic order of the concatenated word, so runs are
reproducible and nothing factorial-sized is materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BoundsError, NotAPermutation


@dataclass(frozen=True)
class SignedBlockPermutation:
    """An ordered partition of [ln] into n sorted blocks of size l.

    The sign is the permutation sign of the concatenated one-line word.
    """

    blocks: tuple[tuple[int, ...], ...]
    sign: int

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.blocks))


def perm_sign(word) -> int:
    """Sign of a permutation of {1..N} given in one-line notation."""
    word = tuple(word)
    n = len(word)
    seen = [False] * (n + 1)
    for w in word:
        if not isinstance(w, int) or not 1 <= w <= n or seen[w]:
            raise NotAPermutation(f"{word} is not a permutation of [{n}]")
        seen[w] = True
    visited = [False] * (n + 1)
    sign = 1
    for start in range(1, n + 1):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = word[j - 1]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _tail_inversions(block, rest) -> int:
    """Inversions between a sorted block and the sorted pool after it."""
    count = 0
    for b in block:
        for r in rest:
            if r < b:
                count += 1
            else:
                break
    return count


def _blocks_rec(pool, l, sign):
    """Yield (blocks, sign) partitions of the sorted tuple `pool`."""
    if not pool:
        yield (), sign
        return
    for block in itertools.combinations(pool, l):
        rest = tuple(x for x in pool if x not in block)
        s = sign if _tail_inversions(block, rest) % 2 == 0 else -sign
        for blocks, total in _blocks_rec(rest, l, s):
            yield (block,) + blocks, total


def enum_block_perms(l: int, n: int):
    """All (ln)!/(l!)^n ordered partitions of [ln] into n sorted l-blocks.

    Lexicographic on the concatenated word; each carries its sign.
    """
    if l < 1 or n < 1:
        raise BoundsError(f"need l >= 1 and n >= 1, got l={l}, n={n}")
    pool = tuple(range(1, l * n + 1))
    for blocks, sign in _blocks_rec(pool, l, 1):
        yield SignedBlockPermutation(blocks, sign)

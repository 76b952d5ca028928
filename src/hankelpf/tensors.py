"""Sparse exact tensors and antisymmetric block arrays, plus their JSON
reader.

Both containers keep a dict from 1-based index keys to scalars; missing
keys mean zero. A BlockArray stores only sorted block keys and
synthesizes the sign when asked for a permuted one, so indicator-style
arrays stay tiny. `tensor_from_json` and `block_array_from_json` read
the two `hpf eval` document kinds through one routine, which parses and
zero-tests each distinct value text and checks and sorts each distinct
block once per call.
"""

from __future__ import annotations

import functools
import itertools
import sys
from fractions import Fraction
from operator import countOf

from .errors import BoundsError, ParseError, ShapeMismatch
from .scalars import check_combinable
from .scalars.grammar import QuadContext, parse_scalar


class Tensor:
    """An m-dimensional array; entries: {(i_1..i_m): scalar}, 1-based."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries=None):
        self.shape = tuple(shape)
        if any(type(s) is not int or s < 0 for s in self.shape):
            raise ShapeMismatch(f"shape {self.shape} needs ints >= 0")
        self.entries = {}
        if entries:
            for idx, value in (entries.items() if hasattr(entries, "items")
                               else entries):
                self.set(idx, value)

    @property
    def m(self) -> int:
        return len(self.shape)

    @property
    def n(self) -> int:
        sizes = set(self.shape)
        if len(sizes) != 1:
            raise ShapeMismatch(f"tensor is not cubic: shape {self.shape}")
        return sizes.pop()

    @classmethod
    def from_matrix(cls, rows) -> "Tensor":
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("ragged matrix")
        t = cls((len(rows), width))
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if v != 0:
                    t.set((i, j), v)
        return t

    @classmethod
    def from_function(cls, shape, fn) -> "Tensor":
        t = cls(shape)
        for idx in itertools.product(*(range(1, s + 1) for s in shape)):
            v = fn(*idx)
            if v != 0:
                t.entries[idx] = v
        return t

    def _check(self, idx):
        idx = tuple(idx)
        if len(idx) != len(self.shape):
            raise BoundsError(
                f"index {idx} has {len(idx)} axes, tensor has {self.m}")
        for k, (i, s) in enumerate(zip(idx, self.shape)):
            if type(i) is not int or not 1 <= i <= s:
                raise BoundsError(f"index {idx}: axis {k + 1} out of [1,{s}]")
        return idx

    def get(self, idx):
        return self.entries.get(self._check(idx), 0)

    def set(self, idx, value):
        self._set(idx, value, value != 0)

    def _set(self, idx, value, nonzero):
        """`set`, given whether the value is nonzero."""
        idx = self._check(idx)
        if nonzero:
            self.entries[idx] = value
        else:
            self.entries.pop(idx, None)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.entries.get(k, 0) == other.entries.get(k, 0)
                   for k in keys)

    __hash__ = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, {len(self.entries)} entries)"


def _block_signed(block, l, size):
    """(sorted block, sign) of a tuple of indices read as a block of
    length l over [1, size], or (None, 0) when an index repeats;
    BoundsError when its length is not l or an index is not an int in
    [1, size]."""
    if len(block) != l:
        raise BoundsError(f"block {block} has length {len(block)}, need {l}")
    for i in block:
        if type(i) is not int or not 1 <= i <= size:
            raise BoundsError(f"index {i!r} out of [1,{size}]")
    if all(map(int.__lt__, block, block[1:])):
        return block, 1             # already sorted: sign +1
    if len(set(block)) != len(block):
        return None, 0
    inversions = sum(1 for a, b in itertools.combinations(block, 2) if a > b)
    return tuple(sorted(block)), -1 if inversions % 2 else 1


class BlockArray:
    """m slots of sorted l-blocks drawn from {1..size}; sparse values.

    Keys of `entries` are m-tuples of strictly increasing l-tuples.
    `get` accepts arbitrary block orderings and applies the alternating
    sign; repeated indices inside a block give zero.
    """

    __slots__ = ("l", "m", "size", "entries")

    def __init__(self, l: int, m: int, size: int, entries=None):
        if l < 1 or m < 1 or size < 0:
            raise ShapeMismatch(f"bad block array shape l={l} m={m} size={size}")
        self.l = l
        self.m = m
        self.size = size
        self.entries = {}
        if entries:
            for key, value in (entries.items() if hasattr(entries, "items")
                               else entries):
                self.set(key, value)

    @property
    def n(self) -> int:
        if self.size % self.l:
            raise ShapeMismatch(
                f"size {self.size} is not a multiple of block length {self.l}")
        return self.size // self.l

    @classmethod
    def from_function(cls, l, m, size, fn) -> "BlockArray":
        b = cls(l, m, size)
        for key in itertools.product(
                itertools.combinations(range(1, size + 1), l), repeat=m):
            v = fn(*key)
            if v != 0:
                b.entries[key] = v
        return b

    def _canonical(self, key, seen=None):
        """(sorted key, sign) of a key whose blocks may come in any order,
        or (None, 0) when a block repeats an index. `seen`, a dict that
        the caller may keep, holds the result of each block already
        checked; a block found there counts only when its indices are
        exactly ints, since 2.0 and True hash like 2 and 1."""
        key = tuple(key)
        if len(key) != self.m:
            raise BoundsError(f"key {tuple(map(tuple, key))} has {len(key)} "
                              f"slots, need {self.m}")
        if seen is None:
            seen = {}
        sign = 1
        out = []
        for block in key:
            block = tuple(block)
            try:
                found = seen.get(block)
            except TypeError:   # an unhashable index: the check names it
                found = None
            if found is None or countOf(map(type, block), int) < len(block):
                found = seen[block] = _block_signed(block, self.l, self.size)
            block, s = found
            if s == 0:
                return None, 0
            sign *= s
            out.append(block)
        return tuple(out), sign

    def get(self, key):
        canon, sign = self._canonical(key)
        if sign == 0:
            return 0
        v = self.entries.get(canon, 0)
        return v if sign > 0 else -v

    def set(self, key, value):
        self._set(None, key, value, value != 0)

    def _set(self, seen, key, value, nonzero):
        """`set`, given whether the value is nonzero, with `seen` passed
        on to `_canonical`."""
        canon, sign = self._canonical(key, seen)
        if sign == 0:
            if nonzero:
                raise BoundsError(
                    f"key {key} repeats an index inside a block; "
                    "its value is identically zero")
        elif not nonzero:
            self.entries.pop(canon, None)
        else:
            self.entries[canon] = value if sign > 0 else -value

    def __eq__(self, other):
        if not isinstance(other, BlockArray):
            return NotImplemented
        if (self.l, self.m, self.size) != (other.l, other.m, other.size):
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.entries.get(k, 0) == other.entries.get(k, 0)
                   for k in keys)

    __hash__ = None

    def __repr__(self):
        return (f"BlockArray(l={self.l}, m={self.m}, size={self.size}, "
                f"{len(self.entries)} entries)")


# -------------------------------------------------------------- JSON readers

def _ext_context(doc):
    ext = doc.get("ext")
    if ext is None:
        return None
    letter = _field(ext, "letter", "ext header", str)
    coeffs = []
    for key in ("p", "r"):
        v = _field(ext, key, "ext header")
        try:
            coeffs.append(Fraction(v))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ParseError(f"ext header field {key!r} must be a rational "
                             f"number, got {v!r}") from None
    return QuadContext(letter, *coeffs)


def _field(doc, key, what, kind=None):
    """doc[key], or a ParseError naming the missing field or the value
    that is not an object; with `kind`, also a ParseError when the value
    is not exactly of that type, or is an int past sys.maxsize."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be an object, got {doc!r}")
    try:
        v = doc[key]
    except KeyError:
        raise ParseError(f"{what} is missing the {key!r} field") from None
    if kind is not None and type(v) is not kind:
        raise ParseError(f"{what} field {key!r} must be "
                         f"{kind.__name__}, got {v!r}")
    if kind is int and abs(v) > sys.maxsize:
        raise ParseError(f"{what} field {key!r} is past sys.maxsize: {v}")
    return v


def _entries(doc, what):
    """The document's entry list; absent means no entries."""
    return _field(doc, "entries", what, list) if "entries" in doc else []


def _array_from_json(doc, kind):
    """The Tensor or BlockArray that a document of `kind` describes. A
    tensor given by `n` gets its m axes only once the first entry's
    index has as many.

    Entries are stored as `set` would store them, one by one in order,
    through the array's own `_set`. Each distinct value text is parsed
    and tested for zero once per call, and each distinct block checked
    and sorted once, in dicts that live for the call only; scalars are
    immutable, so entries may share one."""
    if doc.get("kind") != kind:
        raise ParseError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    m = _field(doc, "m", kind, int)
    if kind == "tensor":
        if "shape" in doc:
            shape = _field(doc, "shape", kind, list)
            if any(type(s) is not int or abs(s) > sys.maxsize for s in shape):
                raise ParseError(f"tensor field 'shape' must be a list of "
                                 f"ints up to sys.maxsize, got {shape!r}")
        else:
            n = _field(doc, "n", "tensor without 'shape'", int)
            first = (_entries(doc, kind) or [{}])[0]
            idx = first.get("idx") if isinstance(first, dict) else None
            if isinstance(idx, list) and len(idx) != m:
                raise BoundsError(f"index {tuple(idx)} has {len(idx)} axes, "
                                  f"tensor has {m}")
            shape = (n,) * m
        if len(shape) != m:
            raise ParseError("tensor shape does not match m")
        arr, idx_form = Tensor(shape), "a list of indices,"
        store = arr._set
    else:
        l = _field(doc, "l", kind, int)
        if "size" in doc:
            size = _field(doc, "size", kind, int)
        else:
            size = l * _field(doc, "n", "block_array without 'size'", int)
            if abs(size) > sys.maxsize:
                raise ParseError(f"block_array size l * n is past "
                                 f"sys.maxsize: {size}")
        arr = BlockArray(l, m, size)
        idx_form = "a list of blocks, each a list of indices;"
        # positional: a partial with a keyword builds a dict per call
        store = functools.partial(arr._set, {})
    ctx = _ext_context(doc)
    what = f"{kind} entry"
    values = {}     # value text -> (its scalar, nonzero), read once per call
    for e in _entries(doc, kind):
        try:
            idx, text = e["idx"], e["value"]
        except (KeyError, TypeError):   # _field names the fault
            idx, text = _field(e, "idx", what), _field(e, "value", what)
        if type(text) is not str:
            _field(e, "value", what, str)
        known = values.get(text)
        if known is None:
            value = parse_scalar(text, ctx)
            known = values[text] = value, value != 0
        value, nonzero = known
        try:
            store(idx, value, nonzero)
        except TypeError:   # idx is not of the form the array's keys take
            raise ParseError(f"{kind} entry 'idx' must be {idx_form} "
                             f"got {idx!r}") from None
    check_combinable(arr.entries.values())
    return arr


def tensor_from_json(doc: dict) -> Tensor:
    return _array_from_json(doc, "tensor")


def block_array_from_json(doc: dict) -> BlockArray:
    return _array_from_json(doc, "block_array")

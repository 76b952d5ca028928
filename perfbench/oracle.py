"""Independent exact evaluator for the engine-eval correctness check.

Every engine the benchmark calls computes one signed (or unsigned)
block-partition sum: over m ordered partitions of {1..l*n} into l-blocks,
the first slot's blocks ordered by their minimum, the product of the
entries indexed by the k-th block of each slot, times the product of
the slots' word signs. `block_sum` evaluates it with a dynamic program
over one used-point mask per slot, written here from that definition and
sharing no code with the program. The sign of appending a sorted block b
to a slot whose used set is U is (-1)^(number of pairs x in b, y free
after b, y < x), as in the one-line word of the slot.

Scalars are ints, Fractions, or the two small rings below, so the check
at any seed also exercises different arithmetic from the program's
UniPoly and QuadExt.
"""

import itertools
from fractions import Fraction


class Poly:
    """Polynomial over Q as a tuple of coefficients, lowest degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    def _lift(self, other):
        return other if isinstance(other, Poly) else Poly([other])

    def __add__(self, other):
        a, b = self.c, self._lift(other).c
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + (b[k] if k < len(b) else 0) for k, x in enumerate(a)])

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.c, self._lift(other).c
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly([-x for x in self.c])


class Quad:
    """u + v*t in Q(t) with t^2 = p*t + r."""

    __slots__ = ("u", "v", "p", "r")

    def __init__(self, u, v, p, r):
        self.u, self.v = Fraction(u), Fraction(v)
        self.p, self.r = p, r

    def _lift(self, other):
        return other if isinstance(other, Quad) else \
            Quad(other, 0, self.p, self.r)

    def __add__(self, other):
        o = self._lift(other)
        return Quad(self.u + o.u, self.v + o.v, self.p, self.r)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        vv = self.v * o.v
        return Quad(self.u * o.u + vv * self.r,
                    self.u * o.v + self.v * o.u + vv * self.p,
                    self.p, self.r)

    __rmul__ = __mul__

    def __neg__(self):
        return Quad(-self.u, -self.v, self.p, self.r)


def canonical(value):
    """Comparable form of an oracle value or a program result."""
    if isinstance(value, (int, Fraction)):
        return ("q", Fraction(value))
    if isinstance(value, Poly):
        return ("q", value.c[0]) if len(value.c) <= 1 else ("x", value.c)
    if isinstance(value, Quad):
        return ("q", value.u) if value.v == 0 else ("w", value.u, value.v)
    # the program's UniPoly / QuadExt
    if hasattr(value, "coeffs"):
        return canonical(Poly(value.coeffs))
    return canonical(Quad(value.u, value.v, value.p, value.r))


def _word_sign_parity(block, used):
    """Inversions between a sorted block and the points still free after it."""
    free = ~(used | sum(1 << i for i in block))
    return sum((free & ((1 << x) - 1)).bit_count() for x in block) & 1


def block_sum(entries, l, m, points, signed):
    """Sum over block families; entries maps m-tuples of sorted l-blocks
    (1-based points) to values; missing keys are zero."""
    full = (1 << points) - 1
    states = {(0,) * m: 1}
    for _ in range(points // l):
        nxt = {}
        for masks, acc in states.items():
            frees = [[i for i in range(points) if not (mk >> i) & 1]
                     for mk in masks]
            low, rest0 = frees[0][0], frees[0][1:]
            options = [[(low,) + t
                        for t in itertools.combinations(rest0, l - 1)]]
            options += [list(itertools.combinations(f, l)) for f in frees[1:]]
            for choice in itertools.product(*options):
                v = entries.get(tuple(tuple(i + 1 for i in b) for b in choice))
                if v is None:
                    continue
                term = acc * v
                if signed and sum(_word_sign_parity(b, mk)
                                  for b, mk in zip(choice, masks)) % 2:
                    term = -term
                key = tuple(mk | sum(1 << i for i in b)
                            for mk, b in zip(masks, choice))
                nxt[key] = term + nxt[key] if key in nxt else term
        states = nxt
    return states.get((full,) * m, 0)

"""Degree-2 extension elements u + v*theta with theta^2 = p*theta + r.

The two instances the identity checks need are the primitive cube root of
unity (p = -1, r = -1) and sqrt(2) (p = 0, r = 2), but any rational (p, r)
works.  The letter is part of the extension: elements whose p, r or
letter differ do not combine or compare equal.  The factory `quadext`
coerces to Fractions and demotes elements with v = 0 to plain
Fractions, so results like omega**3 compare equal to 1 structurally.
`quad_reduce` turns a polynomial in theta into its element; the
engines' packed kernel and the scalar parser both build elements
through it.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DivisionByZero, IncompatibleTags
from .poly import RATIONAL_TYPES, ScalarOps


def quadext(p, r, u, v, sym: str = "w"):
    """Build u + v*theta from ints or Fractions, demoting to Fraction
    when v = 0."""
    return _quad(Fraction(p), Fraction(r), Fraction(u), Fraction(v), sym)


def _quad(p, r, u, v, sym):
    """u + v*theta from Fractions, or u when v = 0."""
    return QuadExt(p, r, u, v, sym) if v else u


def quad_reduce(p, r, coeffs, den=1, sym: str = "w"):
    """sum(coeffs[k] * theta**k) / den as u + v*theta, for Fractions p
    and r and int or Fraction coefficients; a Fraction when v = 0.

    Each top term c*theta^k becomes c*theta^(k-2) * (p*theta + r), from
    the highest power down. Q[theta] -> Q(theta) is a ring map, so a
    product of elements may be reduced once at the end, and divided by
    den once after that.
    """
    cs = list(coeffs) + [0, 0]
    for k in range(len(cs) - 3, 1, -1):
        c = cs[k]
        if c:
            cs[k - 1] += p * c
            cs[k - 2] += r * c
    return _quad(p, r, Fraction(cs[0], den), Fraction(cs[1], den), sym)


def omega() -> "QuadExt":
    """The primitive cube root of unity: w^2 = -1 - w."""
    return QuadExt(Fraction(-1), Fraction(-1), Fraction(0), Fraction(1), "w")


def sqrt2() -> "QuadExt":
    """sqrt(2): w^2 = 2."""
    return QuadExt(Fraction(0), Fraction(2), Fraction(0), Fraction(1), "w")


class QuadExt(ScalarOps):
    """Element u + v*theta of Q(theta), theta^2 = p*theta + r."""

    __slots__ = ("p", "r", "u", "v", "sym")

    def __init__(self, p, r, u, v, sym="w"):
        self.p, self.r, self.u, self.v, self.sym = p, r, u, v, sym

    def _check(self, other: "QuadExt"):
        if (self.p, self.r, self.sym) != (other.p, other.r, other.sym):
            raise IncompatibleTags(
                "elements of different quadratic extensions "
                f"({self.sym}^2 = {self.p}*{self.sym} + {self.r} vs "
                f"{other.sym}^2 = {other.p}*{other.sym} + {other.r})")

    def __add__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return _quad(self.p, self.r, self.u + other, self.v, self.sym)
        if isinstance(other, QuadExt):
            self._check(other)
            return _quad(self.p, self.r, self.u + other.u,
                         self.v + other.v, self.sym)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(self.p, self.r, -self.u, -self.v, self.sym)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if other == 0:
                return Fraction(0)
            return _quad(self.p, self.r, self.u * other, self.v * other,
                         self.sym)
        if isinstance(other, QuadExt):
            self._check(other)
            # (u1 + v1 t)(u2 + v2 t), t^2 = p t + r
            u = self.u * other.u + self.r * self.v * other.v
            v = (self.u * other.v + self.v * other.u
                 + self.p * self.v * other.v)
            return _quad(self.p, self.r, u, v, self.sym)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self):
        # (u + v t)(u + p v - v t) = u^2 + p u v - r v^2
        norm = self.u * self.u + self.p * self.u * self.v \
            - self.r * self.v * self.v
        if norm == 0:
            raise DivisionByZero("quadratic-extension element has norm 0")
        return _quad(self.p, self.r, (self.u + self.p * self.v) / norm,
                     -self.v / norm, self.sym)

    def __repr__(self):
        return f"QuadExt(p={self.p}, r={self.r}, u={self.u}, v={self.v})"

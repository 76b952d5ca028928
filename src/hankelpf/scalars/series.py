"""Truncated power series with exact rational coefficients.

A TruncSeries of order N is an element of Q[[z]] / z^(N+1); binary
operations truncate to the smaller order.  Square root and division use
coefficient recurrences, never floating arithmetic; `/` and a negative
power go through `reciprocal()`, one `series_div`.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import (ConstantTermNotOne, IncompatibleTags,
                      ZeroConstantDenominator)
from .poly import RATIONAL_TYPES, ScalarOps


class TruncSeries(ScalarOps):
    """coeffs[k] is the coefficient of var^k, k = 0..order."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var, order, coeffs):
        cs = [Fraction(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.var = var
        self.order = order
        self.coeffs = tuple(cs)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def _pair(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return TruncSeries(self.var, self.order, [other])
        if isinstance(other, TruncSeries):
            if other.var != self.var:
                raise IncompatibleTags(
                    f"series in {self.var!r} and {other.var!r}")
            return other
        return None

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncSeries(self.var, n,
                           [self.coeffs[k] + o.coeffs[k] for k in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.var, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return TruncSeries(self.var, self.order,
                               [c * other for c in self.coeffs])
        o = self._pair(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            ci = self.coeffs[i]
            if ci == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ci * o.coeffs[j]
        return TruncSeries(self.var, n, out)

    __rmul__ = __mul__

    def reciprocal(self):
        return series_div(TruncSeries(self.var, self.order, [1]), self)

    def __eq__(self, other):
        # a series never demotes, so a rational is read as its constant
        if isinstance(other, RATIONAL_TYPES):
            other = TruncSeries(self.var, self.order, [other])
        return ScalarOps.__eq__(self, other)

    def shift_down(self, k: int = 1) -> "TruncSeries":
        """Divide by var^k; the k lowest coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ZeroConstantDenominator(
                f"series not divisible by {self.var}^{k}")
        return TruncSeries(self.var, self.order - k, self.coeffs[k:])

    def __repr__(self):
        return f"TruncSeries({self.var!r}, {self.order}, {list(self.coeffs)!r})"


def series_sqrt(s: TruncSeries) -> TruncSeries:
    """Principal square root of a series with constant term 1."""
    n = s.order
    if s.coeffs[0] != 1:
        raise ConstantTermNotOne(
            f"series_sqrt needs constant term 1, got {s.coeffs[0]}")
    t = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = s.coeffs[k]
        for i in range(1, k):
            acc -= t[i] * t[k - i]
        t[k] = acc / 2
    return TruncSeries(s.var, n, t)


def series_div(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """num/den to the lower of their orders; den needs a nonzero
    constant term."""
    n = min(num.order, den.order)
    d0 = den.coeffs[0]
    if d0 == 0:
        raise ZeroConstantDenominator("series division by constant term 0")
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = num.coeffs[k]
        for i in range(1, k + 1):
            acc -= den.coeffs[i] * out[k - i]
        out[k] = acc / d0
    return TruncSeries(num.var, n, out)

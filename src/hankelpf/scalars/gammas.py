"""Exact gamma values at integer and half-integer points, and q-gamma.

Gamma values are carried as (rational coefficient) * (sqrt pi)^e so that
products and quotients of the closed-form evaluations stay exact; for
all-integer inputs e is 0 and the value is a plain factorial ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DivisionByZero, PoleAtQEqualsOne, UnsupportedArgument
from .poly import RATIONAL_TYPES, num_den


class HalfGamma:
    """coeff * (sqrt pi)^pi_half_power."""

    __slots__ = ("coeff", "pi_half_power")

    def __init__(self, coeff, pi_half_power: int = 0):
        self.coeff = Fraction(coeff)
        self.pi_half_power = pi_half_power

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return HalfGamma(self.coeff * other, self.pi_half_power)
        if isinstance(other, HalfGamma):
            return HalfGamma(self.coeff * other.coeff,
                             self.pi_half_power + other.pi_half_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if other == 0:
                raise DivisionByZero("division by zero")
            return HalfGamma(self.coeff / other, self.pi_half_power)
        if isinstance(other, HalfGamma):
            if other.coeff == 0:
                raise DivisionByZero("division by zero gamma value")
            return HalfGamma(self.coeff / other.coeff,
                             self.pi_half_power - other.pi_half_power)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return HalfGamma(Fraction(other), 0).__truediv__(self)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, HalfGamma):
            return (self.coeff == other.coeff
                    and (self.pi_half_power == other.pi_half_power
                         or self.coeff == 0))
        if isinstance(other, RATIONAL_TYPES):
            return self.pi_half_power == 0 and self.coeff == other
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"HalfGamma({self.coeff!r}, {self.pi_half_power})"

    def __str__(self):
        if self.pi_half_power == 0 or self.coeff == 0:
            return str(self.coeff)
        return f"{self.coeff}*sqrtpi^{self.pi_half_power}"


def gamma_exact(x) -> HalfGamma:
    """Gamma(x) for positive x with denominator 1 or 2.

    Gamma(n) = (n-1)!; Gamma(n + 1/2) = ((2n)! / (4^n n!)) * sqrt(pi).
    """
    x = Fraction(x)
    if x <= 0:
        raise UnsupportedArgument(f"gamma_exact needs x > 0, got {x}")
    if x.denominator == 1:
        return HalfGamma(math.factorial(x.numerator - 1), 0)
    if x.denominator == 2:
        n = (x.numerator - 1) // 2  # x = n + 1/2
        return HalfGamma(Fraction(math.factorial(2 * n),
                                  4 ** n * math.factorial(n)), 1)
    raise UnsupportedArgument(f"gamma_exact needs half-integer x, got {x}")


def q_brackets(n: int, a, D) -> list:
    """[D^(j-1) [j]_q for j in 1..n] at q = a/D, where
    [j]_q = 1 + q + ... + q^(j-1).

    Built by D^(j-1) [j]_q = a D^(j-2) [j-1]_q + D^(j-1), with no
    division: ints for a rational q = a/D, and polynomials for a
    polynomial q = a with D = 1.
    """
    row, bracket, power = [], 1, 1
    for _ in range(n):
        row.append(bracket)
        power = power * D
        bracket = bracket * a + power
    return row


def scaled_q_factorials(n: int, a, D) -> list:
    """[D^(k(k-1)/2) [k]_q! for k in 0..n] at q = a/D: the running
    product of `q_brackets(n, a, D)`."""
    if n < 0:
        raise UnsupportedArgument(f"Gamma_q(n+1) needs n >= 0, got n={n}")
    if a == D:
        raise PoleAtQEqualsOne("Gamma_q has a pole at q = 1")
    row = [1]
    for bracket in q_brackets(n, a, D):
        row.append(row[-1] * bracket)
    return row


def q_gamma_int(n: int, q):
    """Gamma_q(n+1) = (q;q)_n / (1-q)^n: at q = a/D the division-free
    `scaled_q_factorials(n, a, D)[n]`, divided by D^(n(n-1)/2) when it is
    an int; a polynomial q has D = 1 and divides nothing."""
    a, D = num_den(q)
    t = scaled_q_factorials(n, a, D)[n]
    return Fraction(t, D ** math.comb(n, 2)) if isinstance(t, int) else t

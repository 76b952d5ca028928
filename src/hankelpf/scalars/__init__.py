"""Exact scalar arithmetic: rationals, polynomials, rational functions in
one variable, quadratic extensions, truncated series, gamma values.

Everything here is exact. The only floating point in the package lives in
the float Jackson sums of harness.checks_qpoly, far away from these types.
Scalars combine with the plain operators; `sdiv` is the one helper, for
division.
"""

import itertools
from fractions import Fraction

from ..errors import DivisionByZero, IncompatibleTags
from .gammas import HalfGamma, gamma_exact, q_gamma_int
from .grammar import QuadContext, format_scalar, parse_scalar
from .poly import (RATIONAL_TYPES, RatFunc, UniPoly, poly_at, poly_gen,
                   ratfunc, unipoly)
from .quadext import QuadExt, omega, quadext, sqrt2
from .sampling import derive_rng
from .series import TruncSeries, series_div, series_sqrt

__all__ = [
    "Fraction", "RATIONAL_TYPES",
    "UniPoly", "RatFunc", "unipoly", "ratfunc", "poly_gen", "poly_at",
    "QuadExt", "quadext", "omega", "sqrt2",
    "TruncSeries", "series_sqrt", "series_div",
    "HalfGamma", "gamma_exact", "q_gamma_int",
    "QuadContext", "format_scalar", "parse_scalar",
    "derive_rng",
    "sdiv", "check_combinable",
]


def sdiv(a, b):
    """Exact division a / b.

    int/int yields a Fraction, never a float. Division by zero raises
    DivisionByZero, and a quotient the operand types do not define (two
    different variables or extensions, a series by a quadratic extension)
    raises IncompatibleTags.
    """
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise DivisionByZero("integer division by zero")
        return Fraction(a, b)
    try:
        return a / b
    except DivisionByZero:
        raise
    except ZeroDivisionError as exc:
        raise DivisionByZero(str(exc) or "division by zero") from None
    except TypeError as exc:
        raise IncompatibleTags(str(exc)) from None


def check_combinable(values):
    """IncompatibleTags unless one value of each scalar type in values
    multiplies with one of each other type: the operators decide."""
    firsts = {}
    for v in values:
        firsts.setdefault(type(v), v)
    for a, b in itertools.combinations(firsts.values(), 2):
        try:
            a * b
        except TypeError:
            raise IncompatibleTags(
                f"{type(a).__name__} and {type(b).__name__} values do "
                "not combine") from None

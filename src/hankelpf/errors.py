"""Exception types shared across the package.

Most errors double as the closest stdlib exception (ZeroDivisionError,
TypeError, ValueError) so callers that do not know about this hierarchy
still get something sensible.
"""


class HpfError(Exception):
    """Base class for all package-specific errors."""


# -- exact scalars ----------------------------------------------------------

class DivisionByZero(HpfError, ZeroDivisionError):
    """Exact division by a zero scalar."""


class IncompatibleTags(HpfError, TypeError):
    """Arithmetic between scalars of incompatible tags (e.g. two different
    quadratic extensions, or polynomials in different variables)."""


class ConstantTermNotOne(HpfError, ValueError):
    """series_sqrt requires constant term exactly 1."""


class ZeroConstantDenominator(HpfError, ZeroDivisionError):
    """series_div requires a denominator with nonzero constant term."""


class UnsupportedArgument(HpfError, ValueError):
    """Argument outside the supported exact domain (e.g. gamma at 1/3)."""


class PoleAtQEqualsOne(HpfError, ZeroDivisionError):
    """q-gamma evaluated at q = 1."""


class ParseError(HpfError, ValueError):
    """Malformed scalar / tensor / measure text."""


# -- index combinatorics ----------------------------------------------------

class BoundsError(HpfError, ValueError):
    """Index or subset outside the declared range."""


class OddBlockLength(HpfError, ValueError):
    """Operation requires an even block length l."""


class NotAPermutation(HpfError, ValueError):
    """Word is not a permutation of 1..N."""


# -- hyper linear algebra ---------------------------------------------------

class OddDimension(HpfError, ValueError):
    """Hyperdeterminants need even tensor dimension m."""


class CardinalityMismatch(HpfError, ValueError):
    """Minor index sets must share one cardinality."""


class OddSize(HpfError, ValueError):
    """Pfaffians need even matrix size."""


class CardinalityNotMultipleOfL(HpfError, ValueError):
    """Subhyperpfaffian index sets must have size divisible by l."""


class ShapeMismatch(HpfError, ValueError):
    """Minor-summation inputs with inconsistent shapes."""


# -- q calculus -------------------------------------------------------------

class PoleInNegativeRange(HpfError, ZeroDivisionError):
    """(a;q)_n with negative n hit a vanishing factor."""


class GeometricPole(HpfError, ZeroDivisionError):
    """Jackson integral of x^m with q^(m+1) = 1."""


class ZeroCoordinate(HpfError, ZeroDivisionError):
    """Delta-product variant dividing by a zero coordinate."""


class SizeBudgetExceeded(HpfError):
    """Brute-force expansion beyond the desk-scale budget."""


class MomentPole(HpfError, ZeroDivisionError):
    """Moment denominator (abq^2;q)_n vanished."""


# -- sequences --------------------------------------------------------------

class NegativeIndex(HpfError, ValueError):
    """Sequence index below its defined range."""


class ZeroDenominatorBinomial(HpfError, ZeroDivisionError):
    """A denominator binomial in the product formula is zero."""


class ZeroQForG(HpfError, ZeroDivisionError):
    """The G-type Rogers-Szego polynomial needs q invertible."""


class NonTerminating(HpfError, ValueError):
    """2F1 sum does not terminate (no nonpositive-integer numerator)."""


class PochhammerPoleInC(HpfError, ZeroDivisionError):
    """(c)_k vanished before the series terminated or was truncated."""


# -- identity harness -------------------------------------------------------

class UnknownTag(HpfError, ValueError):
    """Registry filter matched nothing."""


class UnknownIdentity(HpfError, ValueError):
    """Identity id not present in the registry."""


class PoleEncountered(HpfError):
    """Random-point check could not avoid poles within the retry limit."""

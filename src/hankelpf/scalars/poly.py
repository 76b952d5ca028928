"""Dense univariate polynomials and rational functions.

Ints inside, Fractions at the boundary: a UniPoly is a tuple `nums` of
int numerators over one positive int denominator `den` (the layout of
FLINT's fmpq_poly), with gcd(den, *nums) = 1 and a nonzero top
numerator; a RatFunc is two coprime int tuples `num` and `den` whose
ints share no common factor, with a positive leading `den`.  Sums,
products, gcds and evaluation at a rational run over these ints and
divide once; `coefficient(k)` and `coeffs` give Fractions.  `num_den`
splits one scalar into the ints a/D of a rational.  A product packs each
operand into one int, its value at x = 2^B (Kronecker substitution),
multiplies once and unpacks balanced digits; the engines' kernel shares
`kron_pack` and `kron_unpack`.  `ratfunc` drops the common power of the
variable, the whole gcd when a side is a monomial; else it reads the gcd
of both sides from the int gcd of their values at one power of two,
and keeps the cofactors once their products rebuild both sides (GCDHEU).

The factories (`unipoly`, `poly_gen`, `ratfunc`) take int or Fraction
coefficients, put them over one denominator, and, like `_poly` and
`_ratfunc` on int lists, trim zeros, reduce and demote degenerate values
one step down the chain

    Rational -> UniPoly -> RatFunc

so canonical forms are unique and the derived `==` is structural.
Operations accept plain ints and Fractions on either side; mixing two
different variables raises IncompatibleTags.  Division promotes along
the chain (a quotient of polynomials that does not divide exactly
becomes a RatFunc in lowest terms).  A Laurent polynomial such as
q^-1 + 1 is the RatFunc (q + 1)/(q).

`ScalarOps` is the base of UniPoly, RatFunc, QuadExt and TruncSeries:
it derives `==`, `-`, `/`, `**` and `str` from each type's slots and
its own `+`, unary `-`, `*` and `reciprocal()`.  `horner` evaluates a
coefficient list at any scalar.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DivisionByZero, IncompatibleTags

RATIONAL_TYPES = (int, Fraction)


class ScalarOps:
    """The operators every exact scalar type derives from its slots and
    its own `+`, unary `-`, `*` and `reciprocal()`: equality,
    subtraction, division, integer powers and the text form.

    `==` is structural on canonical forms: the factories coerce and
    demote, so two elements are equal when they are of one type with
    equal slots, and never equal to another type (`x == 0` is a type
    test).

    `x / y` is x times y's reciprocal and `r / x`, for a rational r, is
    x's reciprocal times r; when y has no reciprocal and x and y do not
    combine, `x / y` fails as `x * y` does.  `x ** e` squares and
    multiplies (Knuth, TAOCP Vol. 2, 4.6.3), with no squaring after the
    top bit; `x ** 0` is the one of x's ring, and a negative power is
    the positive power of `x.reciprocal()`, which reports a
    non-invertible x.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __sub__(self, other):
        if isinstance(other, RATIONAL_TYPES) or isinstance(other, ScalarOps):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if other == 0:
                raise DivisionByZero("division by zero")
            return self.__mul__(Fraction(other.denominator, other.numerator))
        if not isinstance(other, ScalarOps):
            return NotImplemented
        try:
            inv = other.reciprocal()
        except ZeroDivisionError:
            if self.__mul__(other) is NotImplemented:
                return NotImplemented
            raise
        return self.__mul__(inv)

    def __rtruediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.reciprocal() * other
        return NotImplemented

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.reciprocal() ** -e
        if e == 0:
            return self * 0 + 1
        out, base = None, self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def __str__(self):
        from .grammar import format_scalar
        return format_scalar(self)


def horner(cs, x):
    """sum(c * x**k for k, c in enumerate(cs)), from the top coefficient
    down; no coefficients give Fraction(0)."""
    if not cs:
        return Fraction(0)
    v = cs[-1]
    for c in reversed(cs[:-1]):
        v = v * x + c
    return v


def num_den(q):
    """(a, D) with q == a / D: coprime ints for an int or a Fraction q,
    else (q, 1)."""
    if isinstance(q, RATIONAL_TYPES):
        return q.numerator, q.denominator
    return q, 1


# -- int coefficient lists ---------------------------------------------------

def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


# Longer lists pack and unpack by halves, in O(n B log n) bit operations
# against one loop's n shifts of up to n B bits each. A half of zeros
# packs to 0 at once, so the zeros of a sparse list such as a^10000 + k
# cost a scan, not shifts.
_KRON_SPLIT = 32


def kron_pack(ints, B):
    """The int sum(c_k << B*k): the polynomial evaluated at x = 2^B."""
    n = len(ints)
    if n > _KRON_SPLIT:
        if not any(ints):
            return 0
        h = n // 2
        return kron_pack(ints[:h], B) + (kron_pack(ints[h:], B) << B * h)
    x = 0
    for c in reversed(ints):
        x = (x << B) + c
    return x


def kron_unpack(x, B, n):
    """The n balanced B-bit digits of x, lowest first.

    Inverts `kron_pack` whenever every coefficient c has |c| < 2^(B-1).
    Adding 2^(B-1) to every digit makes them all nonnegative with no
    carry between them, so each one is read off by shift and mask. One
    digit is x itself, whatever B.
    """
    if n == 1:
        return [x]
    half = 1 << (B - 1)
    x += half * (((1 << B * n) - 1) // ((1 << B) - 1))
    return _balanced(x, B, n, half)


def _balanced(x, B, n, half):
    """The n lowest B-bit digits of the offset x >= 0, each less half."""
    if n > _KRON_SPLIT:
        h = n // 2
        return (_balanced(x & ((1 << B * h) - 1), B, h, half)
                + _balanced(x >> B * h, B, n - h, half))
    mask = (1 << B) - 1
    return [((x >> B * k) & mask) - half for k in range(n)]


def _pmul(a, b):
    """Product of int lists by Kronecker substitution: one big-int
    multiply.  Each product coefficient sums at most min(len a, len b)
    products of one coefficient from each side, which bounds B."""
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        (c,), p = (a, b) if len(a) == 1 else (b, a)
        return [c * x for x in p]
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    B = bound.bit_length() + 1
    return kron_unpack(kron_pack(a, B) * kron_pack(b, B), B,
                       len(a) + len(b) - 1)


def _primitive(cs):
    """An int list divided by its content (the gcd of its entries)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _gcdheu(f, g):
    """(h, f/h, g/h) for nonzero int lists f and g, h their gcd,
    primitive with a positive lead: the heuristic gcd GCDHEU (Char,
    Geddes and Gonnet, J. Symbolic Comput. 7, 1989).

    A round packs f and g at 2^B (`kron_pack`) and takes the int gcd
    gamma > 0 of the two values.  h is the primitive part of gamma's
    balanced digits (`kron_unpack`), the top one positive as gamma is,
    each cofactor the digits of f(2^B) // h(2^B), and the round accepts
    when `_pmul` rebuilds f and g from them; else B doubles.  The first
    B has 2^B >= 2 min(|f|, |g|) + 2, |f| the largest |coefficient| of
    f, so by Cauchy's bound each root of a nonconstant common factor c
    lies within 2^(B-1) of 0, and |c(2^B)| > 2^(B-1).  As c(2^B) divides
    gamma, gamma < 2^(B-1) proves f and g coprime, and a candidate that
    divides both sides is their whole gcd (op. cit., Theorem 1).

    Why doubling ends: with f = h f1 and g = h g1, gamma / h(2^B) divides
    Res(f1, g1) whatever B is, so a round accepts once 2^(B-1) exceeds
    |Res(f1, g1)| |h| and the cofactors' coefficients.  By Hadamard's
    bound on Res and Mignotte's on the factors of f and g, that holds at
    B >= (2d + 1)L + 2, with d the larger degree and L = d + log2 of the
    larger 2-norm, after at most log2 of that many rounds.  For sides of
    degree MAX_EXPONENT (`grammar`) that is B near 2 10^8 bits; the
    quotients of degree 10,000 in the tests take one or two rounds.
    """
    B = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()
    while True:
        F, G = kron_pack(f, B), kron_pack(g, B)
        gamma = math.gcd(F, G)
        if gamma >> (B - 1) == 0:
            return [1], f, g
        h = _primitive(_trim(kron_unpack(gamma, B,
                                         gamma.bit_length() // B + 1)))
        if len(h) <= min(len(f), len(g)):
            hx = kron_pack(h, B)
            cf = kron_unpack(F // hx, B, len(f) - len(h) + 1)
            cg = kron_unpack(G // hx, B, len(g) - len(h) + 1)
            if _pmul(h, cf) == f and _pmul(h, cg) == g:
                return h, cf, cg
        B *= 2


def scale_to_ints(lists):
    """(int lists, D): every int or Fraction coefficient times the lcm D
    of all their denominators, so lists[i][k] == ints[i][k] / D."""
    # Unpack a list, not a generator: CPython sizes the argument tuple
    # of a generator by resizing it, and the freed tuples then pile up
    # on its tuple free lists until a full gc.
    D = math.lcm(*[c.denominator for cs in lists for c in cs])
    return [[c.numerator * (D // c.denominator) for c in cs]
            for cs in lists], D


# -- UniPoly ----------------------------------------------------------------

def _poly(var, nums, den):
    """The polynomial sum(nums[k] * var^k) / den from an int list and a
    positive int: trimmed, reduced, and a Fraction when constant."""
    _trim(nums)
    if len(nums) < 2:
        return Fraction(nums[0], den) if nums else Fraction(0)
    g = math.gcd(den, *nums)
    if g > 1:
        nums, den = [c // g for c in nums], den // g
    return UniPoly(var, nums, den)


def unipoly(var: str, coeffs) -> "UniPoly | Fraction":
    """Build a polynomial from int or Fraction coefficients, demoting
    constants to Fraction."""
    (nums,), D = scale_to_ints([coeffs])
    return _poly(var, nums, D)


def poly_at(p, x):
    """Value at x of a unipoly result; a constant is returned unchanged."""
    return p.evaluate(x) if isinstance(p, UniPoly) else p


def poly_gen(var: str) -> "UniPoly":
    """The generator polynomial `var` itself."""
    return UniPoly(var, [0, 1], 1)


class UniPoly(ScalarOps):
    """Polynomial in one variable: sum(nums[k] * var^k) / den."""

    __slots__ = ("var", "nums", "den")

    def __init__(self, var, nums, den):
        self.var, self.nums, self.den = var, tuple(nums), den

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def _same_var(self, other: "UniPoly"):
        if self.var != other.var:
            raise IncompatibleTags(
                f"polynomials in {self.var!r} and {other.var!r}")

    def __add__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            a, b = other.numerator, other.denominator
            cs = [c * b for c in self.nums] if b != 1 else list(self.nums)
            cs[0] += a * self.den
            return _poly(self.var, cs, self.den * b)
        if isinstance(other, UniPoly):
            self._same_var(other)
            d1, d2 = self.den, other.den
            if d1 == d2:
                return _poly(self.var, _padd(self.nums, other.nums), d1)
            g = math.gcd(d1, d2)
            f1, f2 = d2 // g, d1 // g
            return _poly(self.var, _padd([c * f1 for c in self.nums],
                                         [c * f2 for c in other.nums]),
                         d1 * f1)
        if isinstance(other, RatFunc):
            return other.__radd__(self)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if other == 0:
                return Fraction(0)
            a, b = other.numerator, other.denominator
            return _poly(self.var, [c * a for c in self.nums], self.den * b)
        if isinstance(other, UniPoly):
            self._same_var(other)
            return _poly(self.var, _pmul(self.nums, other.nums),
                         self.den * other.den)
        if isinstance(other, RatFunc):
            return other.__rmul__(self)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self):
        return _ratfunc(self.var, [self.den], list(self.nums))

    def evaluate(self, x):
        """Horner evaluation; x may be any compatible scalar.  For a
        rational x = p/q the sum is taken over ints, homogeneously in p
        and q, and divided once."""
        if isinstance(x, RATIONAL_TYPES):
            p, q = x.numerator, x.denominator
            v, qk = self.nums[-1], 1
            for c in reversed(self.nums[:-1]):
                qk *= q
                v = v * p + c * qk
            return Fraction(v, self.den * qk)
        v = horner(self.nums, x)
        return v / self.den if self.den != 1 else v

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.nums)!r}, {self.den!r})"


# -- RatFunc ----------------------------------------------------------------

def _ratfunc(var, num, den):
    """num/den for int lists, in lowest terms with coprime ints and a
    positive leading denominator; a UniPoly or Fraction when the
    denominator reduces to a constant."""
    _trim(num)
    _trim(den)
    if not den:
        raise DivisionByZero("rational function with zero denominator")
    if not num:
        return Fraction(0)
    # the common power of var; the whole gcd when a side is a monomial
    k = min(next(i for i, c in enumerate(x) if c) for x in (num, den))
    num, den = num[k:], den[k:]
    if any(num[:-1]) and any(den[:-1]):
        _, num, den = _gcdheu(num, den)
    if len(den) == 1:
        d = den[0]
        return _poly(var, num if d > 0 else [-c for c in num], abs(d))
    g = math.gcd(*den, *num)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num, den = [c // g for c in num], [c // g for c in den]
    return RatFunc(var, num, den)


def ratfunc(var: str, num, den):
    """num/den, two lists of int or Fraction coefficients, reduced to
    lowest terms.

    Demotes to UniPoly (and further to Fraction) when the denominator
    reduces to a constant.
    """
    (num, den), _ = scale_to_ints([num, den])
    return _ratfunc(var, num, den)


class RatFunc(ScalarOps):
    """Quotient of two int coefficient lists in one variable."""

    __slots__ = ("var", "num", "den")

    def __init__(self, var, num, den):
        self.var, self.num, self.den = var, tuple(num), tuple(den)

    def _parts(self, other):
        """Coerce other to a (num, den) pair of int lists in this
        variable."""
        if isinstance(other, RATIONAL_TYPES):
            return ([other.numerator] if other else []), [other.denominator]
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise IncompatibleTags(
                    f"rational function in {self.var!r} vs {other.var!r}")
            return other.nums, [other.den]
        if isinstance(other, RatFunc):
            if other.var != self.var:
                raise IncompatibleTags(
                    f"rational functions in {self.var!r} and {other.var!r}")
            return other.num, other.den
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        n2, d2 = p
        return _ratfunc(self.var,
                        _padd(_pmul(self.num, d2), _pmul(n2, self.den)),
                        _pmul(self.den, d2))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.var, [-c for c in self.num], self.den)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        n2, d2 = p
        return _ratfunc(self.var, _pmul(self.num, n2), _pmul(self.den, d2))

    __rmul__ = __mul__

    def reciprocal(self):
        return _ratfunc(self.var, list(self.den), list(self.num))

    def __repr__(self):
        return f"RatFunc({self.var!r}, {list(self.num)!r}, {list(self.den)!r})"

"""Dense univariate polynomials and rational functions.

Ints inside, Fractions at the boundary: `.coeffs`, `.num` and `.den`
hold Fractions, and so do the coefficient lists the helpers return, but
products and gcds run over Python ints.  `scale_to_ints` clears the
denominators, here, in the engines' kernel and in the exact loops of
`qcalc` (the pair expansion of the beta-type integrals and the rows
that feed it); `num_den` splits one scalar into the ints a/D of a
rational.  A product packs each operand into one int, its value at
x = 2^B (Kronecker substitution), multiplies once and unpacks balanced
digits; the engines' kernel shares `kron_pack` and `kron_unpack`.  A gcd
runs the primitive remainder sequence over ints, and `ratfunc` divides
by it exactly over ints.

The factory functions (`unipoly`, `ratfunc`) trim zeros and demote
degenerate values one step down the chain

    Rational -> UniPoly -> RatFunc

so canonical forms are unique and `==` is structural.  Operations accept
plain ints and Fractions on either side; mixing two different variables
raises IncompatibleTags.  Division promotes along the chain (a quotient of
polynomials that does not divide exactly becomes a RatFunc with monic,
gcd-reduced denominator).  A Laurent polynomial such as q^-1 + 1 is the
RatFunc (q + 1)/(q).

`ScalarOps` is the base of UniPoly, RatFunc, QuadExt and TruncSeries:
it derives `-`, `/`, `**` and `str` from each type's own `+`, unary `-`,
`*` and `reciprocal()`.  `horner` evaluates a coefficient list at any
scalar.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DivisionByZero, IncompatibleTags

RATIONAL_TYPES = (int, Fraction)


class ScalarOps:
    """The operators every exact scalar type derives from its own `+`,
    unary `-`, `*` and `reciprocal()`: subtraction, division, integer
    powers and the text form.

    `x / y` is x times y's reciprocal and `r / x`, for a rational r, is
    x's reciprocal times r; when y has no reciprocal and x and y do not
    combine, `x / y` fails as `x * y` does.  `x ** e` squares and
    multiplies (Knuth, TAOCP Vol. 2, 4.6.3), with no squaring after the
    top bit; `x ** 0` is the one of x's ring, and a negative power is
    the positive power of `x.reciprocal()`, which reports a
    non-invertible x.
    """

    __slots__ = ()

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
            return self.__mul__(1 / _frac(other))
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


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# -- low-level coefficient-list arithmetic ----------------------------------

def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _padd(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def scale_to_ints(lists):
    """(int lists, D): every coefficient times the lcm D of all their
    denominators, so lists[i][k] == ints[i][k] / D."""
    # Unpack a list, not a generator: CPython sizes the argument tuple
    # of a generator by resizing it, and the freed tuples then pile up
    # on its tuple free lists until a full gc (240 KB per 3,000 calls
    # under tracemalloc), which raised the peak resident memory.
    D = math.lcm(*[c.denominator for cs in lists for c in cs])
    return [[c.numerator * (D // c.denominator) for c in cs]
            for cs in lists], D


def num_den(q):
    """(a, D) with q == a / D: coprime ints for an int or a Fraction q,
    else (q, 1)."""
    if isinstance(q, RATIONAL_TYPES):
        return q.numerator, q.denominator
    return q, 1


def kron_pack(ints, B):
    """The int sum(c_k << B*k): the polynomial evaluated at x = 2^B."""
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
    mask = (1 << B) - 1
    x += half * (((1 << B * n) - 1) // mask)
    return [((x >> B * k) & mask) - half for k in range(n)]


def _pmul(a, b):
    """Product by Kronecker substitution: one big-int multiply.

    Each product coefficient sums at most min(len a, len b) products of
    one scaled coefficient from each side, which bounds B.
    """
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        (c,), p = (a, b) if len(a) == 1 else (b, a)
        return _trim([c * x for x in p])
    (ia, ib), D = scale_to_ints((a, b))
    bound = min(len(a), len(b)) * max(map(abs, ia)) * max(map(abs, ib))
    B = bound.bit_length() + 1
    prod = kron_pack(ia, B) * kron_pack(ib, B)
    D *= D
    return _trim([Fraction(d, D)
                  for d in kron_unpack(prod, B, len(a) + len(b) - 1)])


def _pquo(a, b):
    """a / b for int lists, when b divides a exactly over the ints."""
    a, n, lead = list(a), len(b), b[-1]
    quo = [0] * (len(a) - n + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = a[k + n - 1] // lead
        for i in range(n - 1):
            a[k + i] -= c * b[i]
    return quo


def _primitive(cs):
    """An int list divided by its content (the gcd of its entries)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _prem(a, b):
    """Pseudo-remainder of int lists: a times a power of lc(b), mod b."""
    r, lead, n = list(a), b[-1], len(b)
    while len(r) >= n:
        c = r.pop()
        k = len(r) - n + 1
        r = [x * lead for x in r]
        for i in range(n - 1):
            r[k + i] -= c * b[i]
        _trim(r)
    return r


def _pgcd(a, b):
    """Monic gcd, by the primitive remainder sequence over ints.

    Both sides are scaled to ints, and each pseudo-remainder is divided
    by its content, which keeps the ints small (Collins, JACM 1967;
    Knuth, TAOCP vol. 2, 4.6.1).  A monomial c*q^k on either side, as
    every Laurent denominator is, gives q^min(k, ord of the other side)
    directly.
    """
    if not a or not b:
        g = a or b
        return [c / g[-1] for c in g]
    for x, y in ((a, b), (b, a)):
        if not any(x[:-1]):
            order = next(i for i, c in enumerate(y) if c)
            return [Fraction(0)] * min(len(x) - 1, order) + [Fraction(1)]
    (a, b), _ = scale_to_ints((a, b))
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return [Fraction(c, a[-1]) for c in a]


# -- UniPoly ----------------------------------------------------------------

def unipoly(var: str, coeffs) -> "UniPoly | Fraction":
    """Build a polynomial, demoting constants to Fraction."""
    cs = _trim([_frac(c) for c in coeffs])
    if not cs:
        return Fraction(0)
    if len(cs) == 1:
        return cs[0]
    return UniPoly(var, cs)


def poly_at(p, x):
    """Value at x of a unipoly result; a constant is returned unchanged."""
    return p.evaluate(x) if isinstance(p, UniPoly) else p


def poly_gen(var: str) -> "UniPoly":
    """The generator polynomial `var` itself."""
    return UniPoly(var, [Fraction(0), Fraction(1)])


class UniPoly(ScalarOps):
    """Polynomial in one variable; coeffs[k] is the coefficient of var^k."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        self.var = var
        self.coeffs = tuple([_frac(c) for c in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _same_var(self, other: "UniPoly"):
        if self.var != other.var:
            raise IncompatibleTags(
                f"polynomials in {self.var!r} and {other.var!r}")

    def __add__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return unipoly(self.var, cs)
        if isinstance(other, UniPoly):
            self._same_var(other)
            return unipoly(self.var, _padd(self.coeffs, other.coeffs))
        if isinstance(other, RatFunc):
            return other.__radd__(self)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if other == 0:
                return Fraction(0)
            return unipoly(self.var, [c * other for c in self.coeffs])
        if isinstance(other, UniPoly):
            self._same_var(other)
            return unipoly(self.var, _pmul(self.coeffs, other.coeffs))
        if isinstance(other, RatFunc):
            return other.__rmul__(self)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self):
        return ratfunc(self.var, [1], self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return len(self.coeffs) == 1 and self.coeffs[0] == other \
                or (not self.coeffs and other == 0)
        if isinstance(other, UniPoly):
            return self.var == other.var and self.coeffs == other.coeffs
        if isinstance(other, RatFunc):
            return other.__eq__(self)
        return NotImplemented

    def evaluate(self, x):
        """Horner evaluation; x may be any compatible scalar."""
        return horner(self.coeffs, x)

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"


# -- RatFunc ----------------------------------------------------------------

def ratfunc(var: str, num, den):
    """num/den reduced to lowest terms with monic denominator.

    Demotes to UniPoly (and further to Fraction) when the denominator
    reduces to a constant.
    """
    num = _trim([_frac(c) for c in num])
    den = _trim([_frac(c) for c in den])
    if not den:
        raise DivisionByZero("rational function with zero denominator")
    if not num:
        return Fraction(0)
    g = _pgcd(num, den)
    if not any(g[:-1]):     # g = q^k: drop k low terms (k = 0: coprime)
        k = len(g) - 1
        num, den = num[k:], den[k:]
    else:
        # the primitive int form of g divides the scaled num and den
        # exactly over the ints (Gauss's lemma)
        (num, den, g), _ = scale_to_ints((num, den, g))
        g = _primitive(g)
        num, den = ([Fraction(c) for c in _pquo(x, g)] for x in (num, den))
    lead = den[-1]
    if lead != 1:
        num = [c / lead for c in num]
        den = [c / lead for c in den]
    if len(den) == 1:
        return unipoly(var, num)
    return RatFunc(var, num, den)


class RatFunc(ScalarOps):
    """Quotient of two UniPoly coefficient lists in one variable."""

    __slots__ = ("var", "num", "den")

    def __init__(self, var, num, den):
        self.var = var
        self.num = tuple(num)
        self.den = tuple(den)

    def _parts(self, other):
        """Coerce other to a (num, den) pair in this variable."""
        if isinstance(other, RATIONAL_TYPES):
            return ([_frac(other)] if other != 0 else []), [Fraction(1)]
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise IncompatibleTags(
                    f"rational function in {self.var!r} vs {other.var!r}")
            return list(other.coeffs), [Fraction(1)]
        if isinstance(other, RatFunc):
            if other.var != self.var:
                raise IncompatibleTags(
                    f"rational functions in {self.var!r} and {other.var!r}")
            return list(other.num), list(other.den)
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        n2, d2 = p
        return ratfunc(self.var,
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
        return ratfunc(self.var, _pmul(self.num, n2), _pmul(self.den, d2))

    __rmul__ = __mul__

    def reciprocal(self):
        return ratfunc(self.var, self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return (self.var == other.var and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (UniPoly, *RATIONAL_TYPES)):
            # canonical RatFunc has denominator of degree >= 1
            return False
        return NotImplemented

    def evaluate(self, x):
        num, den = horner(self.num, x), horner(self.den, x)
        if den == 0:
            raise DivisionByZero("rational function evaluated at a pole")
        return num / den

    def __repr__(self):
        return f"RatFunc({self.var!r}, {list(self.num)!r}, {list(self.den)!r})"

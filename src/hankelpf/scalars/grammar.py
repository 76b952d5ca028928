"""Text form of scalars, shared by the CLI and the JSON formats.

Grammar by example:
    rationals                "7", "-3/4"
    polynomials              "a^2 + 2*a - 1/2"   (single letter, * required)
    negative exponents       "q^-1"              (a rational function,
                                                  printed "(1)/(q)")
    quadratic extension      "1 + 2*w", "w^-1"   (letter declared by context)
    truncated series         "[1, -2, -2, -4] @z up to 3"
    rational functions       "(a^2 - 1)/(a + 2)"

Without a quadratic-extension context, a letter parses as a polynomial
variable.  An exponent's absolute value is at most MAX_EXPONENT.

A sum of terms is read over ints: each coefficient is a numerator and a
denominator, the terms are summed per exponent in one pass, and each
exponent's sum becomes one Fraction at the end.  For the extension
letter, that polynomial in theta is reduced by theta^2 = p*theta + r
with `quad_reduce`, the helper the engines' kernel uses, and a negative
lowest exponent lo contributes one theta**lo factor.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ParseError
from .gammas import HalfGamma
from .poly import RATIONAL_TYPES, RatFunc, UniPoly, ratfunc, unipoly
from .quadext import QuadExt, quad_reduce, quadext
from .series import TruncSeries


class QuadContext:
    """Declares which letter means theta and its minimal polynomial."""

    def __init__(self, letter: str, p, r):
        self.letter = letter
        self.p = Fraction(p)
        self.r = Fraction(r)


# -- formatting --------------------------------------------------------------

def _fmt_terms(pairs, var: str) -> str:
    """pairs: (exponent, coefficient) with nonzero coefficients, any order."""
    pieces = []
    for e, c in sorted(pairs, reverse=True):
        if c < 0:
            sign, c = " - ", -c
        else:
            sign = " + "
        if e == 0:
            body = str(c)
        elif c == 1:
            body = var if e == 1 else f"{var}^{e}"
        else:
            body = f"{c}*{var}" if e == 1 else f"{c}*{var}^{e}"
        pieces.append((sign, body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == " - " else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def format_scalar(x) -> str:
    if isinstance(x, RATIONAL_TYPES):
        return str(x)
    if isinstance(x, UniPoly):
        return _fmt_terms([(e, c) for e, c in enumerate(x.coeffs) if c != 0],
                          x.var)
    if isinstance(x, QuadExt):
        return _fmt_terms([(e, c) for e, c in ((0, x.u), (1, x.v)) if c != 0],
                          x.sym)
    if isinstance(x, TruncSeries):
        inner = ", ".join(str(c) for c in x.coeffs)
        return f"[{inner}] @{x.var} up to {x.order}"
    if isinstance(x, RatFunc):
        num = _fmt_terms([(e, c) for e, c in enumerate(x.num) if c != 0],
                         x.var)
        den = _fmt_terms([(e, c) for e, c in enumerate(x.den) if c != 0],
                         x.var)
        return f"({num})/({den})"
    if isinstance(x, HalfGamma):
        return str(x)
    raise ParseError(f"cannot format {type(x).__name__}")


# -- parsing -----------------------------------------------------------------

_SERIES = re.compile(
    r"^\s*\[(?P<body>[^\]]*)\]\s*@(?P<var>[A-Za-z])\s+up\s+to\s+(?P<ord>\d+)\s*$")
_QUOTIENT = re.compile(r"^\s*\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)\s*$")
_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<var1>[A-Za-z])(?:\^(?P<exp1>-?\d+))?)?"
    r"|(?P<var2>[A-Za-z])(?:\^(?P<exp2>-?\d+))?"
    r")\s*")
# Larger exponents would build dense coefficient lists of that length.
MAX_EXPONENT = 10_000


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def parse_scalar(text: str, ext: QuadContext | None = None):
    """Parse the scalar grammar; see the module docstring."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty scalar text")
    m = _SERIES.match(text) if "[" in text else None
    if m:
        body = m.group("body").strip()
        coeffs = [_parse_rational(p.strip()) for p in body.split(",")] \
            if body else []
        order = int(m.group("ord"))
        if len(coeffs) != order + 1:
            raise ParseError(
                f"series lists {len(coeffs)} coefficients but order is {order}")
        return TruncSeries(m.group("var"), order, coeffs)
    m = _QUOTIENT.match(text) if "(" in text else None
    if m:
        num = parse_scalar(m.group("num"), ext)
        den = parse_scalar(m.group("den"), ext)
        if den == 0:
            raise ParseError("zero denominator")
        return num / den

    # sum of signed terms: int coefficients, summed per exponent
    sums = {}                    # exponent -> [numerator, denominator]
    letter, others = None, set()
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse scalar {text!r} at offset {pos}")
        sign, coef, var1, exp1, var2, exp2 = m.groups()
        if pos and sign is None:
            raise ParseError(f"missing +/- between terms in {text!r}")
        var, exp = (var2, exp2) if coef is None else (var1, exp1)
        num, _, den = (coef or "1").partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:      # beyond int()'s digit limit
            den = 0
        if not den:
            raise ParseError(f"bad rational {coef!r}")
        if sign == "-":
            num = -num
        e = 0
        if var is not None:
            # the length test spares int() an exponent of 4,300 digits
            if exp and (len(exp.lstrip("-0")) > len(str(MAX_EXPONENT))
                        or abs(int(exp)) > MAX_EXPONENT):
                raise ParseError(f"exponent of term {m.group().strip()!r} "
                                 f"exceeds {MAX_EXPONENT} in absolute value")
            e = int(exp) if exp else 1
            if letter is None:
                letter = var
            elif var != letter:
                others.add(var)
        acc = sums.get(e)
        if acc is None:
            sums[e] = [num, den]
        elif acc[1] == den:
            acc[0] += num
        else:
            acc[0] = acc[0] * den + num * acc[1]
            acc[1] *= den
        pos = m.end()

    if others:
        raise ParseError(f"more than one variable in {text!r}: "
                         f"{sorted(others | {letter})}")
    if letter is None:
        return Fraction(*sums[0])
    lo = min(min(sums), 0)
    coeffs = [Fraction(*sums[e]) if e in sums else 0
              for e in range(lo, max(sums) + 1)]
    if ext is not None and letter == ext.letter:
        x = quad_reduce(ext.p, ext.r, coeffs, letter)
        if lo < 0:
            x = x * quadext(ext.p, ext.r, 0, 1, letter) ** lo
        return x
    if lo < 0:
        return ratfunc(letter, coeffs, [0] * (-lo) + [1])
    return unipoly(letter, coeffs)

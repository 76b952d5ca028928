"""Text form of scalars, shared by the CLI and the JSON formats.

Grammar by example:
    rationals                "7", "-3/4"
    polynomials              "a^2 + 2*a - 1/2"   (single letter, * required)
    negative exponents       "q^-1"              (a rational function,
                                                  printed "(1)/(q)")
    quadratic extension      "1 + 2*w"           (letter declared by context)
    truncated series         "[1, -2, -2, -4] @z up to 3"
    rational functions       "(a^2 - 1)/(a + 2)"

Without a quadratic-extension context, a letter parses as a polynomial
variable.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ParseError
from .gammas import HalfGamma
from .poly import RATIONAL_TYPES, RatFunc, UniPoly, ratfunc, unipoly
from .quadext import QuadExt
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


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def parse_scalar(text: str, ext: QuadContext | None = None):
    """Parse the scalar grammar; see the module docstring."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty scalar text")
    m = _SERIES.match(text)
    if m:
        body = m.group("body").strip()
        coeffs = [_parse_rational(p.strip()) for p in body.split(",")] \
            if body else []
        order = int(m.group("ord"))
        if len(coeffs) != order + 1:
            raise ParseError(
                f"series lists {len(coeffs)} coefficients but order is {order}")
        return TruncSeries(m.group("var"), order, coeffs)
    m = _QUOTIENT.match(text)
    if m:
        num = parse_scalar(m.group("num"), ext)
        den = parse_scalar(m.group("den"), ext)
        if den == 0:
            raise ParseError("zero denominator")
        if isinstance(num, RATIONAL_TYPES) and isinstance(den, RATIONAL_TYPES):
            return Fraction(num) / Fraction(den)
        return num / den

    # sum of signed terms
    pos = 0
    terms: list[tuple[Fraction, str | None, int]] = []
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse scalar {text!r} at offset {pos}")
        if not first and m.group("sign") is None:
            raise ParseError(f"missing +/- between terms in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("coef") is not None:
            coef = _parse_rational(m.group("coef")) * sign
            var = m.group("var1")
            exp = int(m.group("exp1")) if m.group("exp1") else (1 if var else 0)
        else:
            coef = Fraction(sign)
            var = m.group("var2")
            exp = int(m.group("exp2")) if m.group("exp2") else 1
        terms.append((coef, var, exp))
        pos = m.end()
        first = False

    letters = {v for _, v, _ in terms if v is not None}
    if len(letters) > 1:
        raise ParseError(f"more than one variable in {text!r}: {sorted(letters)}")
    if not letters:
        return sum((c for c, _, _ in terms), Fraction(0))
    letter = letters.pop()

    if ext is not None and letter == ext.letter:
        acc = Fraction(0)
        theta = QuadExt(ext.p, ext.r, 0, 1, ext.letter)
        for c, v, e in terms:
            acc = acc + (c if v is None else c * theta ** e)
        return acc

    exps = {}
    for c, v, e in terms:
        key = e if v is not None else 0
        exps[key] = exps.get(key, Fraction(0)) + c
    lo, hi = min(exps), max(exps)
    coeffs = [exps.get(e, Fraction(0)) for e in range(lo, hi + 1)]
    if lo < 0:
        return ratfunc(letter, coeffs, [0] * (-lo) + [1])
    return unipoly(letter, [Fraction(0)] * lo + coeffs)

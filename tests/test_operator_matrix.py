"""Every operator on every pair of scalar kinds, against a fixture.

The operands cover each exact type (polynomials and series in two
variables, Laurent and non-monomial rational functions, two quadratic
extensions and two letters for one of them), a gamma value, and three
foreign values. An outcome is the result's type and text or the
exception's class; `tests/operator_matrix.json` pins them all.

Regenerate the fixture, after checking that a change of outcome is
meant, with

    PYTHONPATH=src python tests/test_operator_matrix.py
"""

import json
import operator
import pathlib
import sys
from fractions import Fraction

import pytest

from hankelpf.scalars import (HalfGamma, TruncSeries, format_scalar,
                              quadext, ratfunc, sdiv, unipoly)

FIXTURE = pathlib.Path(__file__).with_name("operator_matrix.json")

OPERANDS = [
    ("0", 0),
    ("1", 1),
    ("-3", -3),
    ("1/2", Fraction(1, 2)),
    ("-4/3", Fraction(-4, 3)),
    ("a^2-2a+1", unipoly("a", [1, -2, 1])),
    ("a", unipoly("a", [0, 1])),
    ("3b^2-1", unipoly("b", [-1, 0, 3])),
    ("(2q+1)/q^2", ratfunc("q", [1, 2], [0, 0, 1])),
    ("(q^2+q)/(q^2+1)", ratfunc("q", [0, 1, 1], [1, 0, 1])),
    ("(a^2+1)/(a-1)", ratfunc("a", [1, 0, 1], [-1, 1])),
    ("1+2w omega", quadext(-1, -1, 1, 2, "w")),
    ("-1/2+w sqrt2", quadext(0, 2, Fraction(-1, 2), 1, "w")),
    ("t omega", quadext(-1, -1, 0, 1, "t")),
    ("1-2z+5z^3 @3", TruncSeries("z", 3, [1, -2, 0, 5])),
    ("-3 @z2", TruncSeries("z", 2, [-3])),
    ("y @y3", TruncSeries("y", 3, [0, 1])),
    ("sqrtpi/2", HalfGamma(Fraction(1, 2), 1)),
    ("1.5", 1.5),
    ("'a'", "a"),
    ("None", None),
]

BINARY = {
    "==": operator.eq,
    "!=": operator.ne,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "sdiv": sdiv,
}

POWERS = range(-2, 4)


def _text(v):
    if isinstance(v, (float, str)) or v is None:
        return repr(v)
    return format_scalar(v)


def _outcome(f, *args):
    """'Type: text' of f(*args), or '!ExceptionClass'."""
    try:
        v = f(*args)
    except Exception as exc:
        return "!" + type(exc).__name__
    return f"{type(v).__name__}: {_text(v)}"


def _hash_outcome(x):
    # str and None hash differently from one process to the next
    try:
        h = hash(x)
    except Exception as exc:
        return "!" + type(exc).__name__
    if isinstance(x, (int, Fraction, float)):
        return f"{type(h).__name__}: {h}"
    return type(h).__name__


def outcomes(op):
    """The rows of one operation: one list per left operand."""
    if op in BINARY:
        f = BINARY[op]
        return [[_outcome(f, x, y) for _, y in OPERANDS] for _, x in OPERANDS]
    if op == "**":
        return [[_outcome(operator.pow, x, e) for e in POWERS]
                for _, x in OPERANDS]
    return [[_hash_outcome(x)] for _, x in OPERANDS]


OPS = [*BINARY, "**", "hash"]


def _fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_names_these_operands():
    doc = _fixture()
    assert doc["operands"] == [name for name, _ in OPERANDS]
    assert doc["powers"] == list(POWERS)
    assert list(doc["outcomes"]) == OPS


@pytest.mark.parametrize("op", OPS)
def test_operator_outcomes(op):
    want = _fixture()["outcomes"][op]
    got = outcomes(op)
    cols = [n for n, _ in OPERANDS] if op in BINARY else \
        [f"^{e}" for e in POWERS] if op == "**" else ["hash"]
    diff = [f"{OPERANDS[i][0]} {op} {cols[j]}: {w} -> {g}"
            for i, (wrow, grow) in enumerate(zip(want, got))
            for j, (w, g) in enumerate(zip(wrow, grow)) if w != g]
    assert not diff, "\n".join(diff)
    assert got == want


if __name__ == "__main__":
    # one row per line, so that a diff of the fixture names the operands
    ops = [f"{json.dumps(op)}: [\n" + ",\n".join(
        json.dumps(row) for row in outcomes(op)) + "]" for op in OPS]
    FIXTURE.write_text(
        f'{{"operands": {json.dumps([name for name, _ in OPERANDS])},\n'
        f'"powers": {json.dumps(list(POWERS))},\n'
        '"outcomes": {\n' + ",\n".join(ops) + "}}\n", encoding="utf-8")
    sys.exit(0)

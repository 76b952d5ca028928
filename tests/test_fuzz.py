"""Seeded fuzz over the command line: `--param` values for every
identity, and mutated copies of the `hpf eval` demo documents.

Every run exits 0 or 2, never 1 and never with an exception, and an
exit of 2 prints exactly one `hpf:` line. The draws come from a fixed
seed, so a failure reproduces.
"""

import copy
import json
import pathlib
import random

from hankelpf.harness import all_identities
from hankelpf.harness.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# each demo document with the evaluation it is written for
DEMO_KINDS = {
    "pfaffian_matrix.json": "pfaffian",
    "pair_blocks.json": "hyperpfaffian",
    "poly_blocks.json": "hyperpfaffian",
    "quad_blocks.json": "hyperpfaffian",
    "ratfunc_blocks.json": "hyperpfaffian",
    "series_blocks.json": "hyperpfaffian",
    "order4_tensor.json": "hyperdet",
}
EVAL_KINDS = ("pfaffian", "hyperpfaffian", "hyperdet", "hafnian")

# values no grid names, as --param text
STRANGE_TEXTS = ("x", "none", "1.5", "true", "-", "1e3", "u-r1", "A")

# what a mutation writes over a document field: wrong JSON types, scalar
# text of another kind, and small sizes
JUNK = (None, True, 1.5, "x", "", "1/0", "w", "[1, 2] @x up to 1", [], {},
        [[]], [1, "a"], -1, 0, 1, 3, 5)


def _assert_clean_exit(code, captured, what):
    assert code in (0, 2), (what, captured.out, captured.err)
    if code == 2:
        assert captured.err.startswith("hpf: "), what
        assert captured.err.count("\n") == 1 and captured.out == "", what


def _param_text(rng, spec, key):
    """A --param value for key: an int near one its grids give it, a
    fraction, or a string no grid names."""
    grid_ints = [inst[key] for inst in spec.smoke + spec.full
                 if type(inst.get(key)) is int]
    roll = rng.random()
    if roll < 0.6:
        return str(rng.choice(grid_ints or [0]) + rng.randint(-2, 2))
    if roll < 0.8:
        return f"{rng.randint(-5, 5)}/{rng.randint(1, 5)}"
    return rng.choice(STRANGE_TEXTS)


def test_fuzz_verify_params(capsys):
    rng = random.Random(20201)
    codes = []
    for spec in all_identities():
        keys = sorted(spec.schema) or ["bogus"]
        for _ in range(4):
            argv = ["verify", spec.id]
            for key in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
                argv += ["--param", f"{key}={_param_text(rng, spec, key)}"]
            codes.append(main(argv))
            _assert_clean_exit(codes[-1], capsys.readouterr(), argv)
    # the draws reach the checks, not only the schema
    assert codes.count(0) > len(codes) // 5


def _paths(node, prefix=()):
    """The path of every field and list item in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, rng):
    """A copy of doc with one to three fields dropped, retyped, or, inside
    an index list, set to an index out of range."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = rng.choice(("drop", "retype", "index"))
        if op == "drop":
            del parent[path[-1]]
        elif op == "index" and "idx" in path:
            parent[path[-1]] = rng.choice((0, -1, 9, 10 ** 9))
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(JUNK))
    return doc


def test_fuzz_eval_documents(capsys, tmp_path):
    rng = random.Random(20202)
    docs = {name: json.loads((DEMOS / name).read_text())
            for name in DEMO_KINDS}
    path = tmp_path / "doc.json"
    for _ in range(250):
        name = rng.choice(sorted(docs))
        doc = _mutate(docs[name], rng)
        path.write_text(json.dumps(doc))
        kind = (DEMO_KINDS[name] if rng.random() < 0.8
                else rng.choice(EVAL_KINDS))
        code = main(["eval", kind, "--input", str(path)])
        _assert_clean_exit(code, capsys.readouterr(), (kind, doc))


"""Regenerate the benchmark's references under perfbench/refs.

    python3 perfbench/make_refs.py

Writes, from the program at this checkout:
  statuses.json          [identity, params, status] of every full-grid
                         check; the same at seeds 0 and 7, checked here
  suite-seed0.json       the full suite's report JSON at seed 0, as
                         `hpf suite --level full --json` writes it
  engine-eval-seed0.json the format_scalar text of every engine-eval
                         result at seed 0

Each engine-eval result is cross-checked before it is written: against
the benchmark's own evaluator (oracle.py), against hyperdet_via_exterior
for hyperdet, against the literal sum over enum_block_perms with
perm_sign signs where that sum has at most LITERAL_LIMIT terms, and a
pfaffian against the l=2, m=1 hyperpfaffian of the same array.
"""

import itertools
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402
from oracle import canonical  # noqa: E402

LITERAL_LIMIT = 200_000


def literal_sum(case):
    """n! times the engine value, from the definition: every m-tuple of
    ordered block partitions, signed by perm_sign of each slot's word."""
    from hankelpf.blocks import enum_block_perms, perm_sign
    signed = case.engine != "hyperhafnian"
    n = case.size // case.l
    perms = [(bp.blocks, perm_sign([i for b in bp.blocks for i in b]))
             for bp in enum_block_perms(case.l, n)]
    total = 0
    for combo in itertools.product(perms, repeat=case.m):
        prod = 1
        for k in range(n):
            v = case.values.get(tuple(blocks[k] for blocks, _ in combo))
            if v is None:
                prod = None
                break
            prod = prod * v
        if prod is None:
            continue
        if signed and math.prod(s for _, s in combo) < 0:
            prod = -prod
        total = prod + total
    return total, math.factorial(n)


def _require(ok, case, oracle):
    if not ok:
        raise SystemExit(f"{case.name}: the engine disagrees with {oracle}")


def cross_check(case, value):
    from hankelpf import BlockArray, Tensor, hyperpfaffian
    from hankelpf.engines import hyperdet_via_exterior
    from hankelpf.tensors import block_array_from_json, tensor_from_json
    got = canonical(value)
    _require(got == W.expected_value(case), case, "the oracle")
    if case.engine == "hyperdet":
        t = tensor_from_json(case.doc) if case.kind != "int" else \
            Tensor.from_function(
                (case.size,) * case.m,
                lambda *i: case.values.get(tuple((x,) for x in i), 0))
        _require(canonical(hyperdet_via_exterior(t)) == got, case,
                 "hyperdet_via_exterior")
        return
    n = case.size // case.l
    terms = math.factorial(case.size) // math.factorial(case.l) ** n
    if terms ** case.m <= LITERAL_LIMIT:
        total, scale = literal_sum(case)
        _require(canonical(total) == canonical(value * scale), case,
                 "the literal sum")
    if case.engine == "pfaffian":
        b = block_array_from_json(case.doc) if case.kind != "int" else \
            BlockArray.from_function(2, 1, case.size,
                                     lambda *k: case.values.get(k, 0))
        _require(canonical(hyperpfaffian(b)) == got, case,
                 "the l=2, m=1 hyperpfaffian")


def main():
    from hankelpf.harness import dump_reports, run_suite, summarize
    from hankelpf.harness.reports import canonical_params
    os.makedirs(W.REFS, exist_ok=True)
    reports = run_suite(level="full", seed=W.DEFAULT_SEED, jobs=2)
    other = run_suite(level="full", seed=7, jobs=2)
    statuses = [[r.identity, canonical_params(r.params), r.status]
                for r in reports]
    if statuses != [[r.identity, canonical_params(r.params), r.status]
                    for r in other]:
        raise SystemExit("full-grid statuses differ between seeds 0 and 7")
    with open(os.path.join(W.REFS, "statuses.json"), "w",
              encoding="utf-8") as fh:
        json.dump(statuses, fh, indent=0)
        fh.write("\n")
    with open(os.path.join(W.REFS, "suite-seed0.json"), "w",
              encoding="utf-8") as fh:
        fh.write(dump_reports(reports, summarize(reports)))
    texts = {}
    for case in W.prepare_engine_eval(W.DEFAULT_SEED):
        value, text = W.evaluate(case)
        cross_check(case, value)
        texts[case.name] = text if text is not None else str(value)
    with open(os.path.join(W.REFS, "engine-eval-seed0.json"), "w",
              encoding="utf-8") as fh:
        json.dump(texts, fh, indent=1)
        fh.write("\n")
    print(f"{len(statuses)} statuses, {len(texts)} engine-eval results")


if __name__ == "__main__":
    main()

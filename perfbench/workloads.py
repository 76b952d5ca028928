"""The four workloads: seeded inputs, one timed pass, and its checks.

An operation is one check (suite workloads) or one evaluation
(engine-eval). `prepare_suite` / `prepare_engine_eval` build a
workload's inputs from the seed; `run_suite_pass` / `run_eval_pass` run
every operation once and return a `Pass`. Outputs are
checked after the timed region: statuses against refs/statuses.json at
any seed, report JSON byte for byte against refs/suite-seed0.json at
seed 0, and engine results against the independent oracle at any seed
and against refs/engine-eval-seed0.json at seed 0.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from oracle import Poly, Quad, block_sum, canonical

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
DEFAULT_SEED = 0
WORKLOADS = ("suite-full", "suite-full-jobs2", "engine-eval", "closed-forms")
KINDS = ("int", "rational", "poly", "quadext")

# The full-grid identities whose checks make no engine call (found by
# tracing the full suite: 187 of its 405 checks).
CLOSED_FORM_IDS = (
    "delta-relations", "delta-integral", "selberg", "aomoto", "selberg-phi",
    "ahk", "ftilde-rec", "rs-moment-u", "bf-u-integral", "gx-defs",
    "gf-narayana-a", "gf-narayana-b", "gf-narayana-d", "special-cat",
    "special-sch", "special-cbc", "special-del", "special-dcount",
    "special-motzkin", "special-ctc", "special-motd",
)

# engine-eval: (engine, kind, l, m, size); for hyperdet l=1, m is the
# order and size the side. The int shapes straddle the enumeration / DP
# crossover: (2,2,8) and (2,3,6) are large enumerations, (4,2,8) a small
# one; m=1 is the Pfaffian-like path. No single evaluation is more than
# about a third of a pass.
ENGINE_CASES = (
    ("pfaffian", "int", 2, 1, 14),
    ("hyperpfaffian", "int", 2, 1, 12),
    ("hyperpfaffian", "int", 2, 2, 8),
    ("hyperpfaffian", "int", 2, 3, 6),
    ("hyperpfaffian", "int", 4, 2, 8),
    ("hyperhafnian", "int", 2, 2, 6),
    ("hyperhafnian", "int", 3, 2, 6),
    ("hyperdet", "int", 1, 4, 4),
    ("pfaffian", "rational", 2, 1, 12),
    ("hyperpfaffian", "rational", 2, 1, 10),
    ("hyperpfaffian", "rational", 2, 2, 6),
    ("hyperpfaffian", "rational", 2, 3, 4),
    ("hyperpfaffian", "rational", 4, 2, 8),
    ("hyperhafnian", "rational", 2, 2, 6),
    ("hyperdet", "rational", 1, 4, 4),
    ("pfaffian", "poly", 2, 1, 10),
    ("hyperpfaffian", "poly", 2, 2, 6),
    ("hyperpfaffian", "poly", 2, 3, 4),
    ("hyperpfaffian", "poly", 4, 2, 8),
    ("hyperhafnian", "poly", 2, 2, 6),
    ("hyperdet", "poly", 1, 4, 3),
    ("pfaffian", "quadext", 2, 1, 12),
    ("hyperpfaffian", "quadext", 2, 2, 6),
    ("hyperpfaffian", "quadext", 2, 3, 4),
    ("hyperpfaffian", "quadext", 4, 2, 8),
    ("hyperhafnian", "quadext", 2, 2, 6),
    ("hyperdet", "quadext", 1, 4, 4),
)
QUAD_EXT = {"letter": "w", "p": "-1", "r": "-1"}   # w^2 = -w - 1


def case_name(case):
    engine, kind, l, m, size = case
    return f"{engine}-{kind}-{l}.{m}.{size}"


@dataclass
class Pass:
    wall: float
    op_times: list
    attempted: int
    failed: int
    kind_times: dict = field(default_factory=dict)


def load_ref(name):
    with open(os.path.join(REFS, name), encoding="utf-8") as fh:
        return fh.read()


# -- suites ------------------------------------------------------------------

def _timed(fn):
    """run_check wrapper that records each check's latency on its report."""
    def run_check(p):
        start = perf_counter()
        report = fn(p)
        report.__dict__["_bench_s"] = perf_counter() - start
        return report
    run_check.bench_timed = True
    return run_check


@dataclass
class SuiteState:
    name: str
    seed: int
    tasks: list
    index: list          # position of each task in the full grid
    ref_status: list
    ref_reports: list    # seed-0 report dicts of the full grid
    ref_text: str


def build_tasks(name, seed):
    """The workload's checks and their positions in the full grid."""
    from hankelpf.harness.suite import suite_tasks
    tasks = suite_tasks(level="full", seed=seed)
    index = list(range(len(tasks)))
    if name == "closed-forms":
        index = [i for i, p in enumerate(tasks)
                 if p.identity in CLOSED_FORM_IDS]
        tasks = [tasks[i] for i in index]
    return tasks, index


def prepare_suite(name, seed):
    from hankelpf.harness import suite
    from hankelpf.harness.reports import canonical_params
    if not getattr(suite.run_check, "bench_timed", False):
        suite.run_check = _timed(suite.run_check)
    tasks, index = build_tasks(name, seed)
    ref_status = json.loads(load_ref("statuses.json"))
    ref_text = load_ref("suite-seed0.json")
    keys = [[p.identity, canonical_params(p.params)] for p in tasks]
    if keys != [ref_status[i][:2] for i in index]:
        raise RuntimeError("the full-grid task list differs from "
                           "refs/statuses.json")
    return SuiteState(name, seed, tasks, index, ref_status,
                      json.loads(ref_text)["reports"], ref_text)


def op_keys(state):
    """Check key -> operation id, as the tracer's run_check wrapper sees it."""
    from hankelpf.harness.reports import canonical_params
    return {(p.identity, canonical_params(p.params)): i
            for i, p in enumerate(state.tasks)}


def run_suite_pass(state, tracer=None):
    from hankelpf.harness import run_check, run_suite
    if state.name == "closed-forms":
        reports, op_times = [], []
        start = perf_counter()
        for p in state.tasks:
            t = perf_counter()
            try:
                reports.append(run_check(p))
            except Exception:    # counted as a failed operation
                reports.append(None)
            op_times.append(perf_counter() - t)
        wall = perf_counter() - start
    else:
        jobs = 2 if state.name == "suite-full-jobs2" else 1
        start = perf_counter()
        try:
            reports = run_suite(level="full", seed=state.seed, jobs=jobs)
        except Exception:        # the whole pass failed
            reports = [None] * len(state.tasks)
        wall = perf_counter() - start
        op_times = [r.__dict__.pop("_bench_s") for r in reports
                    if r is not None]
    if tracer is not None:
        for r in reports:
            if r is not None:
                tracer.merge_worker_spans(r)
    return Pass(wall, op_times, len(state.tasks),
                _check_reports(state, reports))


def _check_reports(state, reports):
    from hankelpf.harness import dump_reports, summarize
    failed = 0
    for k, r in enumerate(reports):
        i = state.index[k]
        if r is None or r.status != state.ref_status[i][2]:
            failed += 1
        elif (state.seed == DEFAULT_SEED
              and r.to_json() != state.ref_reports[i]):
            failed += 1
    if (failed == 0 and state.seed == DEFAULT_SEED
            and state.name != "closed-forms"
            and dump_reports(reports, summarize(reports)) != state.ref_text):
        failed = 1
    return failed


# -- engine-eval -------------------------------------------------------------

def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _terms_text(coeffs, var):
    """Scalar-grammar text of sum(coeffs[e] * var^e); '' when zero."""
    pieces = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        body = str(abs(c)) if e == 0 else \
            f"{abs(c)}*{var}" + (f"^{e}" if e > 1 else "")
        pieces.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text.replace("- ", "-", 1)


def _entry(rng, kind):
    """(oracle value, text) of one seeded entry, or None for a zero."""
    if rng.random() < 0.1:
        return None
    if kind == "int":
        v = rng.choice((-1, 1)) * rng.randint(1, 9)
        return v, str(v)
    if kind == "rational":
        v = _rational(rng)
        return v, str(v)
    if kind == "poly":
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(3)]
        if not any(cs):
            return None
        return Poly(cs), _terms_text(cs, "x")
    u, v = _rational(rng), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Quad(u, v, Fraction(QUAD_EXT["p"]), Fraction(QUAD_EXT["r"])), \
        _terms_text([u, v], QUAD_EXT["letter"])


@dataclass
class EvalCase:
    name: str
    engine: str
    kind: str
    l: int
    m: int
    size: int
    values: dict        # oracle key (m-tuple of sorted blocks) -> value
    doc: dict           # hpf eval JSON input (non-int kinds)
    expected: tuple = None   # canonical oracle value, filled in lazily


def make_case(case, seed):
    engine, kind, l, m, size = case
    rng = random.Random(f"engine-eval:{seed}:{case_name(case)}")
    if engine == "hyperdet":
        keys = [tuple((i,) for i in idx)
                for idx in itertools.product(range(1, size + 1), repeat=m)]
    else:
        keys = list(itertools.product(
            itertools.combinations(range(1, size + 1), l), repeat=m))
    values, texts = {}, {}
    for key in keys:
        e = _entry(rng, kind)
        if e is not None:
            values[key], texts[key] = e
    if engine == "hyperdet":
        doc = {"kind": "tensor", "m": m, "n": size,
               "entries": [{"idx": [b[0] for b in k], "value": t}
                           for k, t in texts.items()]}
    else:
        doc = {"kind": "block_array", "l": l, "m": m, "size": size,
               "entries": [{"idx": [list(b) for b in k], "value": t}
                           for k, t in texts.items()]}
    if kind == "quadext":
        doc["ext"] = dict(QUAD_EXT)
    return EvalCase(case_name(case), engine, kind, l, m, size, values, doc)


def prepare_engine_eval(seed):
    return [make_case(c, seed) for c in ENGINE_CASES]


def evaluate(case):
    """One operation: int entries through the library API, the other
    kinds through the `hpf eval` path (JSON loader, engine, format)."""
    import hankelpf
    from hankelpf.scalars import format_scalar
    from hankelpf.tensors import block_array_from_json, tensor_from_json
    engine = getattr(hankelpf, case.engine)
    if case.kind == "int":
        if case.engine == "hyperdet":
            arr = hankelpf.Tensor.from_function(
                (case.size,) * case.m,
                lambda *idx: case.values.get(tuple((i,) for i in idx), 0))
        else:
            arr = hankelpf.BlockArray.from_function(
                case.l, case.m, case.size,
                lambda *key: case.values.get(key, 0))
        return engine(arr), None
    if case.engine == "hyperdet":
        value = engine(tensor_from_json(case.doc))
    else:
        value = engine(block_array_from_json(case.doc))
    return value, format_scalar(value)


def expected_value(case):
    """The oracle's canonical value for a case (computed once)."""
    if case.expected is None:
        signed = case.engine != "hyperhafnian"
        case.expected = canonical(block_sum(case.values, case.l, case.m,
                                            case.size, signed))
    return case.expected


def run_eval_pass(cases, seed, refs, tracer=None):
    outputs, op_times = [], []
    kind_times = dict.fromkeys(KINDS, 0.0)
    start = perf_counter()
    for op, case in enumerate(cases):
        if tracer is not None:
            tracer.op = op
        t = perf_counter()
        try:
            out = evaluate(case)
        except Exception:        # counted as a failed operation
            out = None
        dt = perf_counter() - t
        op_times.append(dt)
        kind_times[case.kind] += dt
        outputs.append(out)
    wall = perf_counter() - start
    failed = 0
    for case, out in zip(cases, outputs):
        if out is None or canonical(out[0]) != expected_value(case):
            failed += 1
        elif seed == DEFAULT_SEED and \
                (out[1] or str(out[0])) != refs.get(case.name):
            failed += 1
    return Pass(wall, op_times, len(cases), failed, kind_times=kind_times)

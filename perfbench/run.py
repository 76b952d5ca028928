"""hankelpf benchmark: one workload per call, or all four with --workload all.

    python3 perfbench/run.py --workload suite-full --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 the run measures the end-to-end metrics with no
tracing. With --trace 1 it runs one untraced pass, then one traced pass
in a fresh interpreter, and reports the per-layer metrics. The last line
of standard output is the JSON result; the lines before it are the
environment record and a table of the metrics with their units. The
exit code is 0 when every output matched its reference, 1 when one did
not, 2 when the run could not start.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

SETUP_PROBES = 5

PER_LAYER_FUNCTIONS = {
    "engines": ["pfaffian", "hyperpfaffian", "hyperhafnian", "hyperdet",
                "hyperdet_laplace", "hyperdet_via_exterior", "minor_tensor",
                "msf_build_Q", "msf_lhs", "restrict_block_array",
                "flatten_matsumoto"],
    "blocks": ["enum_block_perms", "enum_canonical_blocks", "perm_sign"],
    "tensors": ["block_array_from_json", "tensor_from_json",
                "BlockArray.from_function"],
    "scalars": ["parse_scalar", "format_scalar", "UniPoly.__mul__",
                "UniPoly.__add__", "QuadExt.__mul__"],
    "qcalc": ["delta_product", "discrete_moment", "q_pochhammer",
              "jackson_poly_exact", "askey_lhs_exact", "debruijn_kernel",
              "discrete_ordered_integral", "mp_mul"],
    "sequences": ["binomial", "narayana_number", "narayana_poly",
                  "sequence_value"],
}
HARNESS_METRICS = {"harness.run_check.calls": "count",
                   "harness.check_self_s": "s", "harness.import_s": "s",
                   "harness.task_max_s": "s", "harness.worker_idle_s": "s",
                   "harness.lpt_bound_s": "s", "harness.check_p90_ms": "ms",
                   "harness.check_samples": "count"}
# check_p90_ms is not among these: on the suite grid the 90th percentile
# falls where check times thin out (ranks 38-44 of 405 run from 43 to
# 25 ms), so it moved 22-35 ms between seeds, beyond any allowed bound.
# It is printed on every run and reported as harness.check_p90_ms.
END_TO_END = {"wall_s": "s", "setup_s": "s", "max_rss_mb": "MB"}


def per_layer_names():
    """Every per-layer metric name, in report order, with its unit."""
    out = {}
    for layer, fns in PER_LAYER_FUNCTIONS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_s"] = "s"
        out[f"{layer}.self_s"] = "s"
    out.update(HARNESS_METRICS)
    for kind in W.KINDS:
        out[f"scalars.{kind}.eval_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


# -- environment -------------------------------------------------------------

def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _src_digest():
    import hashlib
    h = hashlib.sha256()
    base = os.path.join(SRC, "hankelpf")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _commit(), "src_sha256": _src_digest(),
            "loadavg_before": list(os.getloadavg())}


# -- set-up time -------------------------------------------------------------

def build_inputs(workload, seed):
    """What a run needs before its first operation: the program's
    imports and the task list or the evaluation inputs."""
    if workload == "engine-eval":
        import hankelpf.tensors  # noqa: F401
        return W.prepare_engine_eval(seed)
    import hankelpf.harness  # noqa: F401
    return W.build_tasks(workload, seed)


def setup_seconds(workload, seed):
    """Fresh interpreter to ready-for-the-first-operation, median of
    SETUP_PROBES runs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


# -- runs --------------------------------------------------------------------

def prepare(workload, seed, tracer=None):
    if workload == "engine-eval":
        cases = W.prepare_engine_eval(seed)
        for case in cases:
            W.expected_value(case)
        refs = json.loads(W.load_ref("engine-eval-seed0.json"))
        return lambda: W.run_eval_pass(cases, seed, refs, tracer)
    state = W.prepare_suite(workload, seed)
    if tracer is not None:
        tracer.op_index = W.op_keys(state)
    return lambda: W.run_suite_pass(state, tracer)


def timed_passes(run_pass, seconds):
    """At least one pass; another only while it should end in time."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        if perf_counter() - start + passes[-1].wall > seconds:
            return passes


def max_rss_mb():
    """Peak resident memory of this process or its largest child
    (pool workers on suite-full-jobs2)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def p90(times):
    if len(times) < 2:
        return max(times)
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end(args):
    setup = setup_seconds(args.workload, args.seed)
    passes = timed_passes(prepare(args.workload, args.seed), args.seconds)
    times = [t for p in passes for t in p.op_times] or [passes[0].wall]
    # The mean pass, not the median: this host's speed drifts over tens
    # of seconds rather than spiking, and across ten runs the mean of a
    # run's passes spread less than their median (0.12 against 0.18 of
    # the median on engine-eval, 0.22 against 0.28 on suite-full-jobs2).
    metrics = {"wall_s": statistics.fmean(p.wall for p in passes),
               "setup_s": setup, "max_rss_mb": max_rss_mb()}
    extra = {"passes": len(passes), "pass_walls_s": [p.wall for p in passes],
             "check_p90_ms": 1000.0 * p90(times), "check_samples": len(times)}
    return passes, metrics, END_TO_END, extra


def _traced_pass(args):
    """Child of a --trace 1 run: wrap, import, one pass, report."""
    from spans import Tracer
    tracer = Tracer()
    start = perf_counter()
    import hankelpf  # noqa: F401
    import_s = perf_counter() - start
    tracer.install_layers()
    start = perf_counter()
    import hankelpf.harness  # noqa: F401
    import_s += perf_counter() - start
    tracer.install_harness()
    run_pass = prepare(args.workload, args.seed, tracer)
    p = run_pass()
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"))
    print(json.dumps({"wall": p.wall, "attempted": p.attempted,
                      "failed": p.failed, "import_s": import_s,
                      "aggregate": tracer.aggregate()}))
    return 0


def per_layer(args):
    untraced = prepare(args.workload, args.seed)()
    cmd = [sys.executable, os.path.abspath(__file__), "--traced-pass",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=True)
    traced = json.loads(done.stdout.decode().strip().splitlines()[-1])
    agg = traced["aggregate"]
    units = per_layer_names()
    metrics = {}
    for layer, fns in PER_LAYER_FUNCTIONS.items():
        for fn in fns:
            calls, own = agg.get(f"{layer}.{fn}", (0, 0.0))
            metrics[f"{layer}.{fn}.calls"] = calls
            metrics[f"{layer}.{fn}.self_s"] = own
        metrics[f"{layer}.self_s"] = sum(
            own for name, (_, own) in agg.items()
            if name.startswith(layer + "."))
    jobs = 2 if args.workload == "suite-full-jobs2" else 1
    tasks = untraced.op_times or [untraced.wall]
    calls, own = agg.get("harness.run_check", (0, 0.0))
    metrics.update({
        "harness.run_check.calls": calls,
        "harness.check_self_s": own,
        "harness.import_s": traced["import_s"],
        "harness.task_max_s": max(tasks),
        "harness.worker_idle_s": jobs * untraced.wall - sum(tasks),
        "harness.lpt_bound_s": max(max(tasks), sum(tasks) / jobs),
        "harness.check_p90_ms": 1000.0 * p90(tasks),
        "harness.check_samples": len(tasks),
    })
    for kind in W.KINDS:
        metrics[f"scalars.{kind}.eval_s"] = untraced.kind_times.get(kind, 0.0)
    metrics["trace.overhead_s"] = traced["wall"] - untraced.wall
    passes = [untraced, W.Pass(traced["wall"], [], traced["attempted"],
                               traced["failed"])]
    extra = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced["wall"]}
    return passes, metrics, units, extra


def _result_path(workload, seed, trace):
    return os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")


def _print_p90(extra):
    if "check_p90_ms" in extra:
        print(f"  {'check_p90_ms':42s} {extra['check_p90_ms']:>14.6g} ms "
              f"(of {extra['check_samples']} operations; printed only)")


def run_one(args):
    env = environment()
    passes, metrics, units, extra = \
        (per_layer if args.trace else end_to_end)(args)
    env["loadavg_after"] = list(os.getloadavg())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    print("env " + json.dumps(env))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"error_rate={failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed) " + json.dumps(extra))
    for k in units:
        print(f"  {k:42s} {metrics[k]:>14.6g} {units[k]}")
    _print_p90(extra)
    os.makedirs(OUT, exist_ok=True)
    with open(_result_path(args.workload, args.seed, args.trace), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "extra": extra, "error_rate":
                   failed / attempted, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in turn, one fresh interpreter each, then a table."""
    rows, code = [], 0
    for workload in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        code = max(code, done.returncode)
        lines = done.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        rows.append((workload, result))
    for workload, result in rows:
        if result is None:
            print(f"{workload}: no result")
            continue
        rate = result["failed"] / result["attempted"]
        print(f"{workload}: error_rate {rate:.6g} "
              f"({result['failed']} of {result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        with open(_result_path(workload, args.seed, args.trace),
                  encoding="utf-8") as fh:
            _print_p90(json.load(fh)["extra"])
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--traced-pass", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hankelpf", "__init__.py")):
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        build_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.traced_pass:
        return _traced_pass(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run registered checks, single or batched, with deterministic reports.

A report for a given (identity, params, seed) triple is byte-identical
across runs and across worker counts: the random stream is derived by
hashing that triple, results are aggregated in registry order, and
elapsed_ms stays 0 unless wall-clock timing is requested explicitly.

A checker that raises something other than an HpfError gives a
`check-error` report naming the exception and the file and line where
it was raised, and the suite goes on; such
a report gates the exit code whatever the identity's status.
"""

import os
import re
import time

from ..errors import (BoundsError, HpfError, PoleEncountered,
                      SizeBudgetExceeded)
from .registry import GATING_STATUSES, filter_identities, get_identity
from .reports import (CheckParams, CheckReport, canonical_params,
                      params_json, scalar_text)

FAILING_REPORT_STATUSES = ("counterexample", "numeric-fail")


def _where(exc):
    """'<file>:<line>' of the innermost frame an exception passed, the
    file without its directory."""
    import traceback
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno}"


def run_check(p: CheckParams) -> CheckReport:
    """Execute one check and package the outcome as a report. Params
    outside the identity's schema raise UnsupportedArgument first."""
    # imported here: planning or listing a suite needs no scalar type
    from ..scalars import derive_rng
    spec = get_identity(p.identity)
    spec.validate(p.params)
    rng = derive_rng(p.identity, canonical_params(p.params), p.seed)
    start = time.perf_counter()
    try:
        outcome = spec.check(dict(p.params), rng, p)
    except (SizeBudgetExceeded, PoleEncountered) as exc:
        outcome = None
        status, lhs, rhs, terms = "budget-exceeded", "", "", 0
        note = f"{type(exc).__name__}: {exc}"
    except HpfError:
        raise
    except Exception as exc:
        outcome = None
        status, lhs, rhs, terms = "check-error", "", "", 0
        note = f"{type(exc).__name__}: {exc} ({_where(exc)})"
    elapsed = time.perf_counter() - start
    if outcome is not None:
        status = outcome.status
        lhs = scalar_text(outcome.lhs)
        rhs = scalar_text(outcome.rhs)
        terms = int(outcome.terms)
        note = outcome.note
    return CheckReport(
        identity=p.identity,
        params=params_json(p.params),
        status=status,
        lhs=lhs,
        rhs=rhs,
        terms=terms,
        elapsed_ms=int(elapsed * 1000) if p.timing else 0,
        note=note)


def _run_task(p: CheckParams) -> CheckReport:
    # module-level so ProcessPoolExecutor can pickle it
    return run_check(p)


def suite_tasks(level="smoke", filter_tag=None, seed=0, trials=5,
                timing=False):
    """The ordered list of CheckParams a suite run will execute."""
    if level not in ("smoke", "full"):
        raise ValueError(f"level must be smoke or full, got {level!r}")
    tasks = []
    for spec in filter_identities(filter_tag):
        grid = spec.smoke if level == "smoke" else spec.full
        for params in grid:
            tasks.append(CheckParams(
                identity=spec.id, params=dict(params), seed=seed,
                trials=trials, timing=timing))
    return tasks


def run_suite(level="smoke", filter_tag=None, jobs=1, seed=0, trials=5,
              timing=False):
    """Run every applicable check, preserving registry order.

    `jobs` (>= 1) caps the worker processes; no more are started than
    there are tasks or CPUs, and one worker means a serial run.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise BoundsError(f"jobs must be an integer >= 1, got {jobs!r}")
    tasks = suite_tasks(level=level, filter_tag=filter_tag, seed=seed,
                        trials=trials, timing=timing)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # load every checker here, so that forked workers inherit the
        # modules rather than each importing them on every run
        for identity in dict.fromkeys(p.identity for p in tasks):
            try:
                get_identity(identity).check
            except Exception:
                pass    # the workers report it as a check-error
        # imported here: it pulls in multiprocessing, which only a pooled
        # run needs, and costs every other command's start-up
        from concurrent.futures import ProcessPoolExecutor
        # tasks go out 16 at a time, which saves a round trip per check
        # (the full grid's 405 take about 0.2 s less on 2 workers than
        # one at a time); map still returns them in registry order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_task, tasks, chunksize=16))
    else:
        reports = [run_check(p) for p in tasks]
    return reports


_RANGE_NOTE = re.compile(r"verified range ([^;\s]+)")


def _gating_failure(report) -> bool:
    """A checker that raised (check-error), or a hard failure
    (counterexample or numeric-fail) of a theorem or corollary.
    Conjecture mismatches, reported discrepancies and budget overruns
    never gate."""
    if report.status == "check-error":
        return True
    return (report.status in FAILING_REPORT_STATUSES
            and get_identity(report.identity).status in GATING_STATUSES)


def summarize(reports) -> dict:
    verified = 0
    failed = 0
    ranges = {}
    for report in reports:
        spec = get_identity(report.identity)
        if report.status in ("verified", "numeric-pass"):
            verified += 1
        elif _gating_failure(report):
            failed += 1
        if spec.status == "conjecture":
            m = _RANGE_NOTE.search(report.note)
            if m:
                ranges[report.identity] = m.group(1)
    return {"verified": verified, "failed": failed,
            "conjecture_ranges": ranges}


def suite_exit_code(reports) -> int:
    """1 when some report is a gating failure, that is when summarize
    counts one as failed; else 0."""
    return int(any(_gating_failure(r) for r in reports))

"""Command line front end.

Subcommands:
  list    registered identities, optionally filtered
  verify  run one identity at chosen parameters
  suite   run the smoke or full battery
  eval    evaluate one array read from a JSON file

Exit codes: 0 all good (reported discrepancies and open conjectures do
not count against), 1 hard failure on a theorem-status check or a
checker that raised, 2 usage or input-parsing trouble.

Each command imports what it runs: `eval` the engines, tensors and
scalars, the others the registry and suite, whose checkers load when a
check first runs.
"""

import argparse
import json
import sys
from fractions import Fraction

from ..errors import HpfError, ParseError


def coerce_param(text: str):
    """CLI parameter strings to the kinds checks expect."""
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    return text


def _parse_param_overrides(pairs):
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ParseError(f"--param needs key=value, got {pair!r}")
        out[key] = coerce_param(value)
    return out


def _write_json(path, payload):
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _cmd_list(args):
    from .registry import filter_identities
    for spec in filter_identities(args.filter):
        print(f"{spec.id:<18} {spec.status:<21} {spec.strategy:<36} "
              f"{spec.title}")
    return 0


def _cmd_verify(args):
    from .registry import get_identity
    from .reports import CheckParams, format_report_line
    from .suite import run_check, suite_exit_code
    spec = get_identity(args.identity)
    params = dict(spec.smoke[0])
    params.update(_parse_param_overrides(args.param))
    p = CheckParams(identity=spec.id, params=params, seed=args.seed,
                    trials=args.trials, timing=args.timing)
    report = run_check(p)
    print(format_report_line(report))
    if args.json:
        _write_json(args.json,
                    json.dumps(report.to_json(), indent=2) + "\n")
    return suite_exit_code([report])


def _cmd_suite(args):
    from .reports import dump_reports, format_report_table
    from .suite import run_suite, suite_exit_code, summarize
    reports = run_suite(level=args.level, filter_tag=args.filter,
                        jobs=args.jobs, seed=args.seed, trials=args.trials,
                        timing=args.timing)
    print(format_report_table(reports))
    summary = summarize(reports)
    print(f"verified {summary['verified']}  failed {summary['failed']}  "
          f"out of {len(reports)} checks")
    for cid, rng in sorted(summary["conjecture_ranges"].items()):
        print(f"  {cid}: verified range {rng}")
    if args.json:
        _write_json(args.json, dump_reports(reports, summary))
    return suite_exit_code(reports)


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise ParseError(f"cannot read {path} as JSON: {exc}") from None


def _pfaffian(arr):
    """The Pfaffian of a block array or of a matrix tensor's upper half."""
    from ..engines import pfaffian
    from ..tensors import BlockArray
    if isinstance(arr, BlockArray):
        return pfaffian(arr)
    if arr.m != 2:
        raise ParseError(f"pfaffian needs a square matrix, got tensor "
                         f"order {arr.m}")
    return pfaffian({(i, j): v for (i, j), v in arr.entries.items() if i < j},
                    size=arr.n)


# eval kind -> (the document kinds it reads, its engine in
# hankelpf.engines; pfaffian's is _pfaffian)
_EVALS = {"pfaffian": (("tensor", "block_array"), "pfaffian"),
          "hyperpfaffian": (("block_array",), "hyperpfaffian"),
          "hyperdet": (("tensor",), "hyperdet"),
          "hafnian": (("block_array",), "hyperhafnian")}


def _cmd_eval(args):
    from .. import engines
    from ..scalars import format_scalar
    from ..tensors import block_array_from_json, tensor_from_json
    doc = _load_json_file(args.input)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("input file needs a top-level object with a "
                         "'kind' field")
    kinds, name = _EVALS[args.kind]
    if doc["kind"] not in kinds:
        raise ParseError(f"{args.kind} needs a {' or '.join(kinds)} input")
    read = tensor_from_json if doc["kind"] == "tensor" else \
        block_array_from_json
    engine = _pfaffian if name == "pfaffian" else getattr(engines, name)
    print(format_scalar(engine(read(doc))))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hpf",
        description="Exact checks for Pfaffian and hyperpfaffian "
                    "evaluations of moment arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show registered identities")
    p_list.add_argument("--filter", default=None,
                        help="id, status, or tag to match")
    p_list.set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", help="check one identity")
    p_verify.add_argument("identity")
    p_verify.add_argument("--param", action="append", metavar="K=V",
                          help="override a parameter (repeatable)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=5)
    p_verify.add_argument("--timing", action="store_true",
                          help="record wall-clock elapsed_ms (breaks "
                               "byte-for-byte reproducibility)")
    p_verify.add_argument("--json", metavar="FILE",
                          help="also write the report as JSON ('-' for "
                               "stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    p_suite = sub.add_parser("suite", help="run a battery of checks")
    p_suite.add_argument("--level", choices=("smoke", "full"),
                         default="smoke")
    p_suite.add_argument("--filter", default=None)
    p_suite.add_argument("--jobs", type=int, default=1)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--trials", type=int, default=5)
    p_suite.add_argument("--timing", action="store_true")
    p_suite.add_argument("--json", metavar="FILE")
    p_suite.set_defaults(func=_cmd_suite)

    p_eval = sub.add_parser("eval", help="evaluate an array from JSON")
    p_eval.add_argument("kind", choices=tuple(_EVALS))
    p_eval.add_argument("--input", required=True, metavar="FILE")
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HpfError, json.JSONDecodeError, OSError) as exc:
        print(f"hpf: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

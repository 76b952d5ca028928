"""Report records for identity checks and their JSON and table forms.

A report is deterministic for a fixed (identity, params, seed) triple:
elapsed_ms is recorded as 0 unless wall-clock timing is explicitly
requested, so serialized output is byte-identical across runs.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import BoundsError, ParseError

REPORT_KEYS = ("identity", "params", "status", "lhs", "rhs", "terms",
               "elapsed_ms")


def scalar_text(value) -> str:
    """Human-readable rendering of whatever a check put on one side."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    # imported here: the scalar package is loaded once a check has run
    from ..scalars import format_scalar
    try:
        return format_scalar(value)
    except ParseError:
        return str(value)


def param_value_json(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [param_value_json(v) for v in value]
    return str(value)


def params_json(params: dict) -> dict:
    return {k: param_value_json(params[k]) for k in sorted(params)}


def canonical_params(params: dict) -> str:
    """Stable text key for seeding and for report ordering."""
    return json.dumps(params_json(params), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class CheckParams:
    """Everything a single check invocation depends on."""

    identity: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    trials: int = 5
    timing: bool = False

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise BoundsError(
                f"trials must be an integer >= 1, got {self.trials!r}")


@dataclass
class CheckReport:
    identity: str
    params: dict
    status: str
    lhs: str
    rhs: str
    terms: int
    elapsed_ms: int = 0
    note: str = ""

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": params_json(self.params),
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "terms": self.terms,
            "elapsed_ms": self.elapsed_ms,
        }


def report_from_json(doc: dict) -> CheckReport:
    return CheckReport(identity=doc["identity"], params=doc["params"],
                       status=doc["status"], lhs=doc["lhs"], rhs=doc["rhs"],
                       terms=doc["terms"],
                       elapsed_ms=doc.get("elapsed_ms", 0))


def dump_reports(reports, summary=None) -> str:
    """Serialize reports (and an optional suite summary) to JSON text."""
    if summary is None:
        doc = [r.to_json() for r in reports]
    else:
        doc = {"reports": [r.to_json() for r in reports],
               "summary": summary}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


_CELL_LIMIT = 40


def _clip(text: str) -> str:
    text = text.replace("\n", " ")
    if len(text) > _CELL_LIMIT:
        return text[:_CELL_LIMIT - 3] + "..."
    return text


def format_report_line(report: CheckReport) -> str:
    params = canonical_params(report.params)
    cells = [report.identity.ljust(18), report.status.ljust(21),
             _clip(params).ljust(_CELL_LIMIT)]
    tail = f"lhs={_clip(report.lhs)} rhs={_clip(report.rhs)}"
    if report.note:
        tail += f"  [{report.note}]"
    cells.append(tail)
    return "  ".join(cells).rstrip()


def format_report_table(reports) -> str:
    lines = [format_report_line(r) for r in reports]
    return "\n".join(lines)

"""Mechanical verification harness for the identity catalogue.

The exports resolve on first access, so `hpf eval`, which runs no
check, loads neither the registry nor the suite.
"""

from .. import _lazy_exports

__all__ = _lazy_exports(globals(), {
    "registry": ("IdentitySpec", "all_identities", "filter_identities",
                 "get_identity"),
    "reports": ("CheckParams", "CheckReport", "dump_reports",
                "format_report_line", "format_report_table",
                "report_from_json"),
    "suite": ("run_check", "run_suite", "suite_exit_code", "summarize"),
})

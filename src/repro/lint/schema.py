"""Structural validator for the linter's machine-readable output.

Built on the same :func:`repro.bench.schema.check_fields` idiom as the
bench and chaos report validators: one shared helper, one list of
human-readable problems per document, empty list = valid.  CI runs
``python -m repro.lint --validate`` over the ``--format json`` report so
a schema drift fails the build instead of silently breaking downstream
tooling.
"""

from __future__ import annotations

from typing import Any

from repro.bench.schema import check_fields
from repro.lint.report import JSON_SCHEMA_VERSION

_SEVERITIES = {"error", "warning"}


def _check_finding(obj: Any, where: str) -> list[str]:
    problems = check_fields(
        obj,
        {
            "rule": str,
            "severity": str,
            "path": str,
            "line": int,
            "col": int,
            "message": str,
            "fix_hint": str,
        },
        where,
    )
    if not problems and obj["severity"] not in _SEVERITIES:
        problems.append(
            f"{where}.severity: expected one of {sorted(_SEVERITIES)}, "
            f"got {obj['severity']!r}"
        )
    return problems


def validate_lint_report(report: Any) -> list[str]:
    """Structurally validate a ``--format json`` report."""
    problems = check_fields(
        report,
        {
            "version": int,
            "files_checked": int,
            "rules_run": list,
            "counts": dict,
            "findings": list,
            "stale_suppressions": list,
        },
        "report",
    )
    if problems:
        return problems
    if report["version"] != JSON_SCHEMA_VERSION:
        problems.append(
            f"report.version: expected {JSON_SCHEMA_VERSION}, "
            f"got {report['version']}"
        )
    for i, rule in enumerate(report["rules_run"]):
        if not isinstance(rule, str):
            problems.append(f"report.rules_run[{i}]: expected str")
    for rule, count in report["counts"].items():
        if not isinstance(rule, str) or not isinstance(count, int):
            problems.append(f"report.counts[{rule!r}]: expected str -> int")
    for key in ("findings", "stale_suppressions"):
        for i, finding in enumerate(report[key]):
            problems.extend(_check_finding(finding, f"report.{key}[{i}]"))
    return problems


__all__ = ["validate_lint_report"]

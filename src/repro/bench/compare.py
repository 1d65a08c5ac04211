"""The baseline gate: a fresh bench report against a checked-in one.

Every value in a report is a pure function of (case, size), so the gate
is exact equality, entry by entry: each drifted ``case.key`` is one
finding.  A counter drift means a substrate or observability change
perturbed a seeded schedule; a fingerprint drift means paper-facing
numbers moved.  A case the baseline lacks has nothing to regress against
and is skipped.

:func:`load_baseline` reads and validates the baseline *before* any case
runs; a baseline that is missing, corrupt, not a v3 report or of the
other mode (which ran other workloads) is unusable input, not a verdict.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.bench.schema import validate_report

Report = dict[str, Any]


def load_baseline(path: str | Path, *, mode: str) -> Report:
    """The validated baseline report at ``path``, which must be of ``mode``.

    Raises:
        ValueError: one line saying why the baseline is unusable.
    """
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from None
    problems = validate_report(report)
    if problems:
        raise ValueError(f"baseline {path} invalid: {'; '.join(problems)}")
    if report["mode"] != mode:
        raise ValueError(
            f"nothing comparable — baseline {path} is {report['mode']!r}, "
            f"this run is {mode!r}: different workloads"
        )
    return report


def compare_reports(fresh: Report, baseline: Report) -> list[str]:
    """One finding per drifted ``case.key`` (empty = the gate passes)."""
    problems: list[str] = []
    for name, entry in fresh["cases"].items():
        base = baseline["cases"].get(name)
        if base is None:
            continue  # new case: nothing to regress against yet
        problems.extend(
            f"{name}.{key}: {base.get(key)} -> {value}"
            for key, value in entry.items()
            if base.get(key) != value
        )
    return problems


def format_comparison(fresh: Report, problems: list[str]) -> str:
    """One-line verdict plus findings, for the CLI/CI log."""
    mode = fresh["mode"]
    if not problems:
        return f"bench gate: OK ({mode}, {len(fresh['cases'])} cases)"
    return "\n".join([f"bench gate: FAIL ({mode})", *(f"  {p}" for p in problems)])


__all__ = ["compare_reports", "format_comparison", "load_baseline"]

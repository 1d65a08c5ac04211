"""Schema of the ``repro.bench`` report (``BENCH_macro*.json``).

A report holds only values that are pure functions of (case, size)::

    {"schema_version": 3, "mode": "full" | "smoke",
     "cases": {name: {"fingerprint_sha256": <hex>, <GATED_COUNTERS>: int}}}

Hand-rolled structural validation — the container deliberately carries
no ``jsonschema`` dependency.  :func:`validate_report` returns a list of
human-readable problems (empty = valid); the CLI's baseline loader goes
through it, so a malformed baseline fails before any case runs.
"""

from __future__ import annotations

from typing import Any

#: v3: one flat entry per case keyed by name (v2 carried a 13-field
#: ``measurement`` with wall-clock, RSS and ``messages_packed``)
SCHEMA_VERSION = 3

#: per-run counters of :data:`repro.sim.fastpath.STATS` that are pure
#: functions of (case, size).  ``messages_packed`` is not one: its intern
#: table outlives a case, so it depends on what ran earlier in the process.
GATED_COUNTERS = (
    "events",
    "messages",
    "eq_evals",
    "eq_rows_scanned",
    "eq_rows_saved",
    "eq_batched_scans",
    "values_interned",
)

_TOP_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "mode": str,
    "cases": dict,
}

_CASE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "fingerprint_sha256": str,
    **dict.fromkeys(GATED_COUNTERS, int),
}


def check_fields(
    obj: Any, fields: dict[str, type | tuple[type, ...]], where: str
) -> list[str]:
    """Type-check required keys of one JSON object; returns problems.

    Used by the bench baseline validator (an input read from disk) and
    by the ``repro.obs`` CLI tests, which hold its ``--format json``
    output to the field contracts they define.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"{where}: expected an object, got {type(obj).__name__}"]
    for key, types in fields.items():
        if key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            continue
        value = obj[key]
        allowed = types if isinstance(types, tuple) else (types,)
        ok = isinstance(value, allowed)
        if ok and isinstance(value, bool) and bool not in allowed:
            ok = False  # bool subclasses int; reject True for numeric fields
        if not ok:
            names = "|".join(t.__name__ for t in allowed)
            problems.append(
                f"{where}.{key}: expected {names}, got {type(value).__name__}"
            )
    return problems


def validate_report(report: Any) -> list[str]:
    """Structurally validate a bench report; returns problems (empty = ok)."""
    problems = check_fields(report, _TOP_FIELDS, "report")
    if isinstance(report, dict) and report.get("schema_version") != SCHEMA_VERSION:
        # another version is another shape: one line, not a field-by-
        # field list of everything that moved
        return [
            f"report.schema_version: expected {SCHEMA_VERSION}, got "
            f"{report.get('schema_version')!r} — regenerate it with "
            "`python -m repro.bench`"
        ]
    if problems:
        return problems
    if report["mode"] not in ("full", "smoke"):
        problems.append(f"report.mode: expected 'full'|'smoke', got {report['mode']!r}")
    if not report["cases"]:
        problems.append("report.cases: empty")
    for name, case in report["cases"].items():
        case_problems = check_fields(case, _CASE_FIELDS, f"report.cases.{name}")
        problems.extend(case_problems)
        if not case_problems and len(case["fingerprint_sha256"]) != 64:
            problems.append(
                f"report.cases.{name}.fingerprint_sha256: not a sha256 hex digest"
            )
    return problems


__all__ = ["GATED_COUNTERS", "SCHEMA_VERSION", "check_fields", "validate_report"]

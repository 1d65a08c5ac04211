"""Schema for the ``repro.bench`` report (``BENCH_macro.json``).

Hand-rolled structural validation — the container deliberately carries
no ``jsonschema`` dependency.  :func:`validate_report` returns a list of
human-readable problems (empty = valid); the CLI's ``--validate`` and
the CI bench-smoke job both go through it, so a schema drift fails fast
instead of producing an unreadable trajectory file.
"""

from __future__ import annotations

from typing import Any

#: v2: one ``measurement`` object per case (v1 carried a ``fast``/``slow``
#: pair, a ``speedup`` ratio and ``metrics_identical``)
SCHEMA_VERSION = 2

#: required keys of one case measurement, with their types
_MEASUREMENT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "wall_s_min": (int, float),
    "wall_s_all": list,
    "events": int,
    "messages": int,
    "events_per_s": (int, float),
    "messages_per_s": (int, float),
    "peak_rss_kb": int,
    "eq_evals": int,
    "eq_rows_scanned": int,
    "eq_rows_saved": int,
    "eq_batched_scans": int,
    "values_interned": int,
    "messages_packed": int,
}

_CASE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "name": str,
    "description": str,
    "lockstep": bool,
    "measurement": dict,
    "fingerprint_sha256": str,
}

_TOP_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "generated_by": str,
    "mode": str,
    "repeats": int,
    "warmup": int,
    "cases": list,
}

#: optional top-level keys (type-checked only when present)
_OPTIONAL_TOP_FIELDS: dict[str, type | tuple[type, ...]] = {
    "workers": int,
}


def check_fields(
    obj: Any, fields: dict[str, type | tuple[type, ...]], where: str
) -> list[str]:
    """Type-check required keys of one JSON object; returns problems.

    Shared by the bench report validator and the chaos campaign report
    validator (:mod:`repro.chaos.schema`) — one structural-validation
    idiom for every checked-in machine-readable report.
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
    if problems:
        return problems
    problems.extend(
        check_fields(
            report,
            {k: t for k, t in _OPTIONAL_TOP_FIELDS.items() if k in report},
            "report",
        )
    )
    if report["schema_version"] != SCHEMA_VERSION:
        # another version is another shape: one line, not a field-by-
        # field list of everything that moved
        return [
            f"report.schema_version: expected {SCHEMA_VERSION}, got "
            f"{report['schema_version']} — regenerate it with "
            "`python -m repro.bench`"
        ]
    if report["mode"] not in ("full", "smoke"):
        problems.append(f"report.mode: expected 'full'|'smoke', got {report['mode']!r}")
    if not report["cases"]:
        problems.append("report.cases: empty")
    for i, case in enumerate(report["cases"]):
        where = f"report.cases[{i}]"
        case_problems = check_fields(case, _CASE_FIELDS, where)
        problems.extend(case_problems)
        if case_problems:
            continue
        problems.extend(
            check_fields(
                case["measurement"], _MEASUREMENT_FIELDS, f"{where}.measurement"
            )
        )
        if len(case["fingerprint_sha256"]) != 64:
            problems.append(f"{where}.fingerprint_sha256: not a sha256 hex digest")
    return problems


__all__ = ["SCHEMA_VERSION", "check_fields", "validate_report"]

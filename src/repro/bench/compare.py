"""Determinism gate: diff a fresh bench report against a baseline.

The CI bench-smoke job runs ``python -m repro.bench --smoke --baseline
BENCH_macro.smoke.json``: the fresh report is diffed against the
checked-in one of the *same mode* and the build fails on any drift.  The
two reports ran the identical seeded workloads, so the metric
fingerprint and the deterministic counters must match **exactly** — a
counter drift means a substrate or observability change perturbed a
seeded schedule; a fingerprint drift means paper-facing numbers moved.

Wall-clock is never compared (it is machine- and contention-dependent;
``benchmarks/ledger`` owns timing and its regression bounds), which is
also why a ``--workers`` report gates exactly like a serial one.
Reports of different modes ran different workloads and share nothing
comparable: :func:`compare_reports` raises :class:`ValueError`.
"""

from __future__ import annotations

from typing import Any

#: per-run counters that are pure functions of (case, mode).
#: ``messages_packed`` is not one: its intern table outlives a case, so
#: it depends on what ran earlier in the same process.
GATED_COUNTERS = (
    "events",
    "messages",
    "eq_evals",
    "eq_rows_scanned",
    "eq_rows_saved",
    "eq_batched_scans",
    "values_interned",
)

Report = dict[str, Any]


def compare_reports(fresh: Report, baseline: Report) -> list[str]:
    """Human-readable drift findings (empty = gate passes).

    Raises:
        ValueError: the reports are of different modes.
    """
    if fresh.get("mode") != baseline.get("mode"):
        raise ValueError(
            f"fresh report is {fresh.get('mode')!r}, baseline is "
            f"{baseline.get('mode')!r}: different workloads"
        )
    problems: list[str] = []
    base_cases = {case["name"]: case for case in baseline.get("cases", ())}
    for case in fresh.get("cases", ()):
        name = case["name"]
        base = base_cases.get(name)
        if base is None:
            continue  # new case: nothing to regress against yet
        for key in GATED_COUNTERS:
            was, now = base["measurement"][key], case["measurement"][key]
            if was != now:
                problems.append(
                    f"{name}.{key}: {was} -> {now} — a seeded schedule was "
                    "perturbed"
                )
        if case["fingerprint_sha256"] != base["fingerprint_sha256"]:
            problems.append(
                f"{name}: metric fingerprint changed "
                f"({base['fingerprint_sha256'][:12]}… -> "
                f"{case['fingerprint_sha256'][:12]}…) — paper-facing "
                "numbers drifted from the baseline"
            )
    return problems


def format_comparison(fresh: Report, problems: list[str]) -> str:
    """One-line verdict plus findings, for the CLI/CI log."""
    mode = fresh.get("mode")
    if not problems:
        return f"bench gate: OK ({mode}, {len(fresh.get('cases', ()))} cases)"
    lines = [f"bench gate: FAIL ({mode})"]
    lines.extend(f"  {problem}" for problem in problems)
    return "\n".join(lines)


__all__ = ["GATED_COUNTERS", "compare_reports", "format_comparison"]

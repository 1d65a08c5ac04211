"""Bench baseline gate: exact same-mode equality, nothing cross-mode, CLI."""

import copy
import json

import pytest

from repro.bench.compare import compare_reports, format_comparison
from repro.bench.schema import SCHEMA_VERSION


def report(mode="smoke", **case_overrides):
    case = {
        "name": "table1",
        "description": "d",
        "lockstep": True,
        "measurement": {
            "wall_s_min": 0.1,
            "wall_s_all": [0.1],
            "events": 100,
            "messages": 400,
            "events_per_s": 1000,
            "messages_per_s": 4000,
            "peak_rss_kb": 1,
            "eq_evals": 50,
            "eq_rows_scanned": 120,
            "eq_rows_saved": 130,
            "eq_batched_scans": 3,
            "values_interned": 20,
            "messages_packed": 300,
        },
        "fingerprint_sha256": "ab" * 32,
    }
    case.update(case_overrides)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.bench",
        "mode": mode,
        "repeats": 1,
        "warmup": 0,
        "cases": [case],
    }


def test_identical_reports_pass():
    fresh = report()
    assert compare_reports(fresh, copy.deepcopy(fresh)) == []


def test_same_mode_counter_drift_fails():
    base = report()
    for key in ("events", "messages", "eq_rows_scanned"):
        fresh = report()
        fresh["cases"][0]["measurement"][key] += 1
        problems = compare_reports(fresh, base)
        assert any("seeded schedule was perturbed" in p for p in problems), key


def test_same_mode_fingerprint_drift_fails():
    base = report()
    fresh = report(fingerprint_sha256="cd" * 32)
    problems = compare_reports(fresh, base)
    assert any("fingerprint changed" in p for p in problems)


def test_cross_mode_is_nothing_comparable():
    """Smoke and full ran different workloads: no verdict, not a pass."""
    with pytest.raises(ValueError, match="different workloads"):
        compare_reports(report(mode="smoke"), report(mode="full"))


def test_sub_threshold_runs_skip_timing_but_not_counters():
    """Wall-clock is never compared, however short or different the run
    (and ``messages_packed`` depends on process history, so it is not
    gated either); deterministic counters are compared exactly."""
    base = report()
    fresh = report()
    fresh["cases"][0]["measurement"].update(
        wall_s_min=0.001, wall_s_all=[0.001], events_per_s=9, messages_packed=0
    )
    assert compare_reports(fresh, base) == []
    fresh["cases"][0]["measurement"]["events"] += 1
    problems = compare_reports(fresh, base)
    assert any("seeded schedule was perturbed" in p for p in problems)


def test_workers_report_exempt_from_speedup_but_not_counters():
    """A --workers report gates exactly like a serial one: its wall-clock
    is machine-dependent (and never compared), its counters and
    fingerprint must still match."""
    base = report()
    fresh = report()
    fresh["workers"] = 4
    fresh["cases"][0]["measurement"]["wall_s_min"] = 0.9
    assert compare_reports(fresh, base) == []
    fresh["cases"][0]["measurement"]["events"] += 1
    problems = compare_reports(fresh, base)
    assert any("seeded schedule was perturbed" in p for p in problems)
    drifted = report(fingerprint_sha256="cd" * 32)
    drifted["workers"] = 4
    problems = compare_reports(drifted, base)
    assert any("fingerprint changed" in p for p in problems)


def test_new_case_without_baseline_is_ignored():
    base = report()
    fresh = report(name="brand_new_case")
    assert compare_reports(fresh, base) == []


def test_format_comparison_verdicts():
    fresh = report()
    assert "OK" in format_comparison(fresh, [])
    out = format_comparison(fresh, ["table1: boom"])
    assert "FAIL" in out and "table1: boom" in out


def test_cli_baseline_gate(tmp_path, capsys):
    """End-to-end through the CLI with a real (smoke) bench run."""
    from repro.bench.__main__ import main as bench_main

    out = tmp_path / "fresh.json"
    assert bench_main(["views", "--smoke", "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = json.loads(out.read_text())

    # a same-mode baseline (its own previous run) passes
    base_ok = tmp_path / "base.json"
    base_ok.write_text(json.dumps(fresh))
    run = ["views", "--smoke", "--out", str(out)]
    assert bench_main(run + ["--baseline", str(base_ok)]) == 0
    assert "bench gate: OK" in capsys.readouterr().out

    # a doctored baseline counter fails the gate
    doctored = copy.deepcopy(fresh)
    for case in doctored["cases"]:
        case["measurement"]["events"] += 1
    base_bad = tmp_path / "bad.json"
    base_bad.write_text(json.dumps(doctored))
    assert bench_main(run + ["--baseline", str(base_bad)]) == 1
    assert "bench gate: FAIL" in capsys.readouterr().out

    # a baseline of the other mode is not silently passed: exit 2
    other = copy.deepcopy(fresh)
    other["mode"] = "full"
    base_full = tmp_path / "full.json"
    base_full.write_text(json.dumps(other))
    assert bench_main(run + ["--baseline", str(base_full)]) == 2
    assert "nothing comparable" in capsys.readouterr().err

"""Bench baseline gate: exact same-mode equality, nothing cross-mode, CLI."""

import copy
import json

import pytest

from repro.bench.compare import compare_reports, format_comparison
from repro.bench.schema import GATED_COUNTERS, SCHEMA_VERSION


def report(mode="smoke", name="table1", **overrides):
    entry = {
        "fingerprint_sha256": "ab" * 32,
        **{key: 10 * (i + 1) for i, key in enumerate(GATED_COUNTERS)},
    }
    entry.update(overrides)
    return {"schema_version": SCHEMA_VERSION, "mode": mode, "cases": {name: entry}}


def test_identical_reports_pass():
    fresh = report()
    assert compare_reports(fresh, copy.deepcopy(fresh)) == []


def test_same_mode_counter_drift_fails():
    base = report()
    for key in GATED_COUNTERS:
        fresh = report()
        fresh["cases"]["table1"][key] += 1
        was = base["cases"]["table1"][key]
        assert compare_reports(fresh, base) == [f"table1.{key}: {was} -> {was + 1}"]


def test_same_mode_fingerprint_drift_fails():
    base = report()
    fresh = report(fingerprint_sha256="cd" * 32)
    assert compare_reports(fresh, base) == [
        f"table1.fingerprint_sha256: {'ab' * 32} -> {'cd' * 32}"
    ]


def test_new_case_without_baseline_is_ignored():
    base = report()
    fresh = report(name="brand_new_case")
    assert compare_reports(fresh, base) == []


def test_format_comparison_verdicts():
    fresh = report()
    assert "OK" in format_comparison(fresh, [])
    out = format_comparison(fresh, ["table1.events: 1 -> 2"])
    assert "FAIL" in out and "table1.events: 1 -> 2" in out


def test_cross_mode_is_nothing_comparable(tmp_path, capsys, monkeypatch):
    """Smoke and full ran different workloads: no verdict, not a pass —
    exit 2 before any case runs."""
    import repro.bench.__main__ as cli

    monkeypatch.setattr(cli, "run_bench", lambda *a, **kw: pytest.fail("a case ran"))
    base = tmp_path / "full.json"
    base.write_text(json.dumps(report(mode="full")))
    run = ["byzantine", "--smoke", "--out", str(tmp_path / "r.json")]
    assert cli.main(run + ["--baseline", str(base)]) == 2
    assert "nothing comparable" in capsys.readouterr().err


def test_cli_baseline_gate(tmp_path, capsys):
    """End-to-end through the CLI with a real (smoke) bench run."""
    from repro.bench.__main__ import main as bench_main

    out = tmp_path / "fresh.json"
    assert bench_main(["byzantine", "--smoke", "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = json.loads(out.read_text())

    # a same-mode baseline (its own previous run) passes
    base_ok = tmp_path / "base.json"
    base_ok.write_text(json.dumps(fresh))
    run = ["byzantine", "--smoke", "--out", str(out)]
    assert bench_main(run + ["--baseline", str(base_ok)]) == 0
    assert "bench gate: OK" in capsys.readouterr().out

    # a doctored baseline counter fails the gate and names case.key
    doctored = copy.deepcopy(fresh)
    doctored["cases"]["byzantine"]["events"] += 1
    base_bad = tmp_path / "bad.json"
    base_bad.write_text(json.dumps(doctored))
    assert bench_main(run + ["--baseline", str(base_bad)]) == 1
    captured = capsys.readouterr().out
    assert "bench gate: FAIL" in captured and "byzantine.events" in captured

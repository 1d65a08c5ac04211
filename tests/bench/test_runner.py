"""End-to-end tests of the repro.bench runner and CLI (smoke-sized)."""

import itertools
import json

import pytest

from repro.bench.compare import compare_reports
from repro.bench.runner import CASES, BenchCase, FingerprintMismatch, run_bench
from repro.bench.schema import validate_report


def test_case_registry_shape():
    assert list(CASES) == [
        "table1",
        "scale_k",
        "interference",
        "byzantine",
        "contender_latency",
        "shard_throughput",
        "shard_scan_tail",
    ]


def test_smoke_bench_single_case_valid_and_identical():
    """One smoke case end-to-end: the report validates and a second run
    reproduces the fingerprint and every deterministic counter."""
    report = run_bench(["scale_k"], smoke=True)
    assert validate_report(report) == []
    (name,) = report["cases"]
    assert name == "scale_k"
    assert report["cases"][name]["events"] > 0
    assert report["cases"][name]["messages"] > 0
    again = run_bench(["scale_k"], smoke=True)
    assert compare_reports(again, report) == []


def test_two_runs_that_disagree_fail(monkeypatch, tmp_path, capsys):
    """Every case runs twice; a workload whose metrics differ between the
    two runs is a determinism failure (exit 1), not a report."""
    ticks = itertools.count()
    monkeypatch.setitem(CASES, "drifty", BenchCase(lambda: next(ticks), {}))
    with pytest.raises(FingerprintMismatch, match="drifty.*fingerprint_sha256"):
        run_bench(["drifty"])
    from repro.bench.__main__ import main

    out = tmp_path / "r.json"
    assert main(["drifty", "--out", str(out)]) == 1
    assert "bench failed: drifty" in capsys.readouterr().err
    assert not out.exists()


def test_cli_roundtrip(tmp_path, capsys):
    from repro.bench.__main__ import main

    out = tmp_path / "bench.json"
    assert main(["scale_k", "--smoke", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert validate_report(report) == []
    assert report["mode"] == "smoke"
    captured = capsys.readouterr()
    assert "scale_k" in captured.out and f"wrote {out}" in captured.out

"""End-to-end tests of the repro.bench runner and CLI (smoke-sized)."""

import json

import pytest

from repro.bench.compare import compare_reports
from repro.bench.runner import CASES, BenchError, format_report, run_bench
from repro.bench.schema import validate_report


def test_unknown_case_rejected():
    with pytest.raises(BenchError, match="unknown case"):
        run_bench(["warp-drive"], smoke=True)


def test_bad_repeats_rejected():
    with pytest.raises(BenchError):
        run_bench(["byzantine"], smoke=True, repeats=0)


def test_case_registry_shape():
    assert set(CASES) == {
        "table1",
        "scale_k",
        "interference",
        "contender_latency",
        "shard_throughput",
        "shard_scan_tail",
        "byzantine",
        "views",
    }
    lockstep = {name for name, case in CASES.items() if case.lockstep}
    assert lockstep == {
        "table1",
        "scale_k",
        "contender_latency",
        "shard_throughput",
        "shard_scan_tail",
        "views",
    }


def test_smoke_bench_single_case_valid_and_identical():
    """One smoke case end-to-end: the report validates and a second run
    reproduces the fingerprint and every deterministic counter."""
    report = run_bench(["byzantine"], smoke=True, repeats=1, warmup=0)
    assert validate_report(report) == []
    (case,) = report["cases"]
    assert case["name"] == "byzantine"
    assert case["measurement"]["events"] > 0
    assert case["measurement"]["messages"] > 0
    again = run_bench(["byzantine"], smoke=True, repeats=1, warmup=0)
    assert compare_reports(again, report) == []
    assert "byzantine" in format_report(report)


def test_views_case_reports_data_plane_counters():
    """The views case is EQ-bound by construction: the incremental EQ
    evaluation must report row savings."""
    report = run_bench(["views"], smoke=True, repeats=1, warmup=0)
    assert validate_report(report) == []
    (case,) = report["cases"]
    m = case["measurement"]
    assert m["eq_evals"] > 0
    assert m["eq_rows_saved"] > 0  # incremental EQ skipped clean rows
    assert m["eq_rows_scanned"] < m["eq_evals"] * 6  # n=6: fewer than full rescans
    assert m["values_interned"] > 0


def test_cli_roundtrip(tmp_path, capsys):
    from repro.bench.__main__ import main

    out = tmp_path / "bench.json"
    assert main(["byzantine", "--smoke", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert validate_report(report) == []
    assert report["mode"] == "smoke"
    assert main(["--validate", str(out)]) == 0
    captured = capsys.readouterr()
    assert "valid" in captured.out


def test_cli_validate_rejects_corrupt_report(tmp_path, capsys):
    from repro.bench.__main__ import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    assert main(["--validate", str(bad)]) == 1
    # the previous schema's checked-in shape: one line, exit 1
    capsys.readouterr()
    old = {
        "schema_version": 1,
        "generated_by": "repro.bench",
        "mode": "full",
        "repeats": 3,
        "warmup": 1,
        "cases": [{"name": "table1", "fast": {}, "slow": {}, "speedup": 2.0}],
    }
    bad.write_text(json.dumps(old))
    assert main(["--validate", str(bad)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert main(["--validate", str(tmp_path / "missing.json")]) == 1

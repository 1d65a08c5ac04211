"""Bench CLI: the 0/1/2 exit contract, one ``error:`` line, no tracebacks."""

from __future__ import annotations

import json

import pytest

import repro.bench.__main__ as cli
import repro.bench.runner as runner
from repro.bench.runner import BenchCase

V2_SHAPED = {
    "schema_version": 2,
    "generated_by": "repro.bench",
    "mode": "smoke",
    "repeats": 1,
    "warmup": 0,
    "cases": [{"name": "byzantine", "lockstep": False, "measurement": {}}],
}


@pytest.mark.parametrize(
    "kind",
    [
        "missing",
        "corrupt",
        "not-an-object",
        "v2-shaped",
        "unknown-case",
        "unwritable-out",
        "out-is-baseline",
    ],
)
def test_unusable_input_exits_two_before_any_case_runs(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_bench", lambda *a, **kw: pytest.fail("a case ran"))
    baseline = tmp_path / "base.json"
    contents = {
        "corrupt": '{"schema_version": 3, "mo',
        "not-an-object": "[1, 2]",
        "v2-shaped": json.dumps(V2_SHAPED),
    }
    if kind in contents:
        baseline.write_text(contents[kind])
    case = "warp-drive" if kind == "unknown-case" else "byzantine"
    out = tmp_path / ("missing-dir" if kind == "unwritable-out" else "") / "r.json"
    if kind == "out-is-baseline":
        out = baseline
    argv = [case, "--smoke", "--out", str(out)]
    if kind not in ("unknown-case", "unwritable-out"):
        argv += ["--baseline", str(baseline)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert kind != "out-is-baseline" or "would overwrite the baseline" in err
    assert not out.exists()


def test_failing_gate_leaves_its_baseline_alone(tmp_path, monkeypatch, capsys):
    """Regression: ``--out`` defaulted to ``BENCH_macro.json`` and the
    report was written before the comparison, so a drifted gate run
    rewrote the baseline it had just failed against (and passed when run
    again).  No ``--out``, no file."""
    report = runner.run_bench(["scale_k"], smoke=True)
    report["cases"]["scale_k"]["events"] += 1
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_macro.json"
    baseline.write_text(json.dumps(report, indent=2) + "\n")
    before = baseline.read_bytes()
    assert cli.main(["scale_k", "--smoke", "--baseline", "BENCH_macro.json"]) == 1
    assert "scale_k.events" in capsys.readouterr().out
    assert baseline.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_macro.json"]


def test_unknown_case_fails_cleanly(capsys):
    assert cli.main(["no-such-case"]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown case(s) ['no-such-case']; choose from {sorted(runner.CASES)}\n"
    )


def test_case_keyerror_maps_to_one_line_message(monkeypatch, tmp_path, capsys):
    """Regression: a KeyError escaping a case workload (e.g. an unknown
    algorithm profile) used to traceback; it must surface as the
    registry's one-line choices message, unquoted, exit 1."""

    def boom():
        from repro.chaos.algos import get_profile

        get_profile("no-such-algo")

    monkeypatch.setitem(runner.CASES, "boom", BenchCase(boom, {}))
    code = cli.main(["boom", "--smoke", "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "bench failed: unknown algorithm 'no-such-algo'" in err
    assert "choose from" in err
    assert "Traceback" not in err

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
    ["missing", "corrupt", "not-an-object", "v2-shaped", "unknown-case", "unwritable-out"],
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
    argv = [case, "--smoke", "--out", str(out)]
    if kind not in ("unknown-case", "unwritable-out"):
        argv += ["--baseline", str(baseline)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


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

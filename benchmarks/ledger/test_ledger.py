"""Smoke test of the ledger (run explicitly: ``pytest benchmarks/ledger``;
not part of tier-1).  One ``all --smoke`` run feeds every check."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
RUN = os.path.join(LEDGER_DIR, "run.py")

sys.path.insert(0, LEDGER_DIR)
import compare  # noqa: E402
from attribution import LAYERS  # noqa: E402


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def result_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run([sys.executable, RUN, "all", "--smoke", "--out", str(out)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return json.load(fh)


def test_benchmark_json_limits(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_every_name_is_declared_and_emitted(bench, result_set):
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    assert {r["workload"] for r in result_set["runs"]} == set(workloads)
    for workload in workloads:
        traced = [r for r in result_set["runs"] if r["workload"] == workload and r["trace"]]
        assert len(traced) == 1
        emitted = set(traced[0]["metrics"]) | set(result_set["probes"])
        assert emitted == declared, (workload, emitted ^ declared)


def test_layer_fractions_sum_to_one(result_set):
    for run in result_set["runs"]:
        if run["trace"]:
            total = sum(run["metrics"][f"{layer}.self_frac"] for layer in LAYERS)
            assert abs(total - 1.0) <= 0.01, (run["workload"], total)


def test_nothing_failed_and_counts_repeat_exactly(result_set):
    by_workload: dict[str, list] = {}
    for run in result_set["runs"]:
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert run["passes"] >= 2  # a single run already repeated its pass
        by_workload.setdefault(run["workload"], []).append(run)
    for workload, runs in by_workload.items():
        assert len(runs) == 2  # one untraced, one traced, same seed
        assert runs[0]["fingerprint"] == runs[1]["fingerprint"]
        for name in compare.EXACT:
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], (workload, name)


def test_compare_against_itself_is_all_ok(bench, result_set):
    rows, regressions, unresolved, differences = compare.compare(result_set, result_set, bench)
    assert regressions == 0 and unresolved == 0 and differences == []
    assert all(row.endswith("  ok") for row in rows[1:])


def test_compare_flags_a_regression(bench, result_set):
    slower = json.loads(json.dumps(result_set))
    for run in slower["runs"]:
        run["metrics"]["ops_per_s"] *= 0.5
    _rows, regressions, _unresolved, _differences = compare.compare(result_set, slower, bench)
    assert regressions == len(bench["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_result_line(bench, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "chaos_sweep_all", "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())

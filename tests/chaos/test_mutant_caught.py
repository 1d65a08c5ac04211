"""Acceptance: an injected bug is caught, shrunk, and exported.

The mutants in :mod:`repro.chaos.mutants` are Delporte-style algorithms
with deliberately weakened quorum checks.  A chaos campaign must (a)
catch them, (b) delta-debug the schedule to a minimal failing plan, and
(c) export a counterexample bundle whose every artifact independently
reproduces the violation — the end-to-end claim of the subsystem.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.campaign import run_campaign
from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import run_plan
from repro.obs import Trace
from repro.spec.order import order_check
from repro.spec.serialize import history_from_dict

MUTANT = "mut-delporte-weak-write"
#: seed-index window (master seed 0) known to contain failures for both
#: mutants; pinned so the test is fast and deterministic
WINDOW = (20, 30)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos-out")
    report = run_campaign(
        [MUTANT], seed_range=WINDOW, master_seed=0, budget=80, out=out
    )
    return report, out


def test_campaign_catches_the_mutant(campaign):
    report, _ = campaign
    assert report.total_failures >= 1
    record = report.algos[0].failures[0]
    assert record.kind == "atomicity"
    assert "not linearizable" in record.detail


def test_failure_is_shrunk(campaign):
    report, _ = campaign
    record = report.algos[0].failures[0]
    assert record.shrunk_size <= record.original_size
    assert record.shrink_moves
    s_ops, s_faults, _ = record.shrunk_size
    # the weak-write violation needs only a handful of ops and no crash
    assert s_ops <= 4
    assert s_faults == 0


def test_exported_plan_replays_to_the_same_failure(campaign):
    report, _ = campaign
    record = report.algos[0].failures[0]
    with open(record.export_paths["plan"]) as fh:
        payload = json.load(fh)
    plan = ChaosPlan.from_dict(payload["plan"])
    result = run_plan(plan)
    assert result.failure is not None
    assert result.failure.kind == "atomicity"


def test_exported_history_still_fails_the_checker(campaign):
    """history.json is checker-ready without re-simulation."""
    report, _ = campaign
    record = report.algos[0].failures[0]
    with open(record.export_paths["history"]) as fh:
        history = history_from_dict(json.load(fh))
    assert not order_check(history, real_time=True).ok


def test_exported_trace_loads_and_matches_the_execution(campaign):
    report, _ = campaign
    record = report.algos[0].failures[0]
    trace = Trace.load(record.export_paths["trace"])
    assert trace.meta["chaos_algo"] == MUTANT
    assert trace.meta["failure"] == "atomicity"
    plan = ChaosPlan.from_dict(record.shrunk_plan_dict)
    assert len(trace.spans) == plan.op_count


#: per quorum mutant, one campaign index (master seed 0) that fails, and
#: the condition its shrunk counterexample violates
NAMED_CONDITIONS = {
    "mut-delporte-weak-write": (
        26,
        "[A2] update 0 (1, 1) precedes scan 1 but is missing from its base (ops (0, 1))",
    ),
    "mut-delporte-weak-scan": (
        33,
        "[A3] scan 4 precedes scan 5 but B(sc1) ⊄ B(sc2) (ops (4, 5))",
    ),
    "mut-bfk-weak-store": (
        6,
        "[A4] update 2 precedes update 3 which is in the base of scan 1, "
        "but 2 is not (ops (2, 3, 1))",
    ),
    "mut-impr-weak-collect": (
        5,
        "[A3] scan 1 precedes scan 2 but B(sc1) ⊄ B(sc2) (ops (1, 2))",
    ),
}


@pytest.mark.parametrize("algo", sorted(NAMED_CONDITIONS))
def test_bundle_names_the_violated_condition(algo, tmp_path):
    """repro.txt opens with one ``#`` line naming the paper's condition
    (so it still runs as a shell script); the failure record keeps only
    the cycle."""
    index, named = NAMED_CONDITIONS[algo]
    report = run_campaign(
        [algo], seed_range=(index, index + 1), master_seed=0, budget=60, out=tmp_path
    )
    (record,) = report.algos[0].failures
    assert "violating cycle op_ids=" in record.detail and "[A" not in record.detail
    lines = open(record.export_paths["repro"]).read().splitlines()
    assert lines[0] == f"# {named}"
    assert [line.startswith("python -m ") for line in lines[1:]] == [True] * 3

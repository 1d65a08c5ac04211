"""Every lockstep experiment is a plan: each plan builder's smallest plan
survives a JSON round trip unchanged, replays with
``python -m repro.chaos --plan`` to ``PASS``, and re-runs to the same
handle latencies."""

import json
from dataclasses import replace

import pytest

from repro.chaos.__main__ import main as chaos_main
from repro.chaos.plan import ChaosPlan, OpChainSpec
from repro.harness.ablations import interference_plan
from repro.harness.adversary import VICTIM, quiet_plan, run_checked, staircase_plan
from repro.harness.byzantine import byz_safety_plan, byz_scaling_plan
from repro.harness.contenders import scan_under_updaters_plan
from repro.harness.messages import message_costs_plan
from repro.harness.registry import trace_plan
from repro.harness.scaling import failure_free_plan


def _staircase() -> ChaosPlan:
    plan = staircase_plan("eq_aso", 1)
    victim = OpChainSpec(VICTIM, (("scan", None),), start=2.0)
    return replace(plan, workload=plan.workload + (victim,))


PLANS = {
    "staircase": _staircase,
    "contenders-lone-op": lambda: quiet_plan("bfk", 9, (0, "update", "v")),
    "contenders-scan-vs-c": lambda: scan_under_updaters_plan("impr", 1, 9),
    "failure_free": lambda: failure_free_plan("la_based", "scan", 4),
    "messages": lambda: message_costs_plan("scd", 4),
    "byz_scaling": lambda: byz_scaling_plan(
        1, "tag-flooder", n=7, f=1, ops_per_honest=1
    ),
    "byz_safety_matrix": lambda: byz_safety_plan("equivocator", num_byzantine=1, n=4),
    "trace": trace_plan,
    "ablation-interference": lambda: interference_plan("no-borrowing"),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_round_trips_and_replays(name, tmp_path, capsys):
    plan = PLANS[name]()
    data = json.loads(json.dumps(plan.to_dict()))
    assert ChaosPlan.from_dict(data) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(data))
    assert chaos_main(["--plan", str(path)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out

    def latencies(plan: ChaosPlan) -> list[float | None]:
        # a crashed chain hop's op never responds
        return [h.latency if h.done else None for h in run_checked(plan).handles]

    first = latencies(plan)
    assert latencies(ChaosPlan.from_dict(data)) == first
    assert first[-1] is not None

"""Runner: healthy algorithms survive chaos; broken liveness is flagged."""

from __future__ import annotations

import pytest

from repro.chaos.algos import CAMPAIGN_ALGOS, get_profile
from repro.chaos.gen import generate_plan
from repro.chaos.plan import ChaosPlan, OpChainSpec, TimedCrashSpec
from repro.chaos.runner import BRUTE_LIMIT, run_plan


@pytest.mark.parametrize("name", sorted(CAMPAIGN_ALGOS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_healthy_algorithms_survive_chaos(name, seed):
    plan = generate_plan(get_profile(name), seed)
    result = run_plan(plan)
    assert result.ok, f"{name} seed {seed}: {result.failure}"
    assert result.history is not None
    if result.effective_op_count <= BRUTE_LIMIT:
        assert result.cross_validated


@pytest.mark.parametrize("name", ["byz_aso", "byz_sso"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_byzantine_tolerant_algorithms_survive_chaos(name, seed):
    plan = generate_plan(get_profile(name), seed)
    result = run_plan(plan)
    assert result.ok, f"{name} seed {seed}: {result.failure}"


def test_run_plan_is_deterministic():
    plan = generate_plan(get_profile("delporte"), 5)
    a = run_plan(plan)
    b = run_plan(plan)
    assert a.ok == b.ok
    assert len(a.history) == len(b.history)
    assert [(op.t_inv, op.t_resp, repr(op.result)) for op in a.history] == [
        (op.t_inv, op.t_resp, repr(op.result)) for op in b.history
    ]


def test_too_many_crashes_is_a_liveness_failure():
    """Crashing f+1 nodes exceeds the model; quorums die and the runner
    must report it as a liveness failure, not hang or crash."""
    plan = ChaosPlan(
        algo="delporte",
        n=5,
        f=2,
        seed=0,
        crashes=(
            TimedCrashSpec(0, 0.0),
            TimedCrashSpec(1, 0.0),
            TimedCrashSpec(2, 0.0),
        ),
        workload=(OpChainSpec(node=3, ops=(("update", "x"), ("scan", None))),),
    )
    result = run_plan(plan)
    assert not result.ok
    assert result.failure.kind == "liveness"


def test_empty_workload_is_trivially_ok():
    plan = ChaosPlan(algo="eq_aso", n=5, f=2, seed=0)
    result = run_plan(plan)
    assert result.ok
    assert result.effective_op_count == 0


def test_phantom_update_is_an_atomicity_failure_not_a_crash():
    """A scan naming an update that was never invoked used to kill the
    campaign with an AssertionError from the checker's own validation."""
    from repro.chaos.runner import check_history
    from tests.spec.builders import HistoryBuilder

    plan = generate_plan(get_profile("delporte"), 0)
    b = HistoryBuilder(plan.n)
    b.update(0, "a", 0.0, 1.0)
    sc = b.scan(1, 2.0, 3.0, {0: ("never-written", 4)})
    result = check_history(plan, b.done())
    assert result.failure is not None
    assert result.failure.kind == "atomicity"
    assert f"op_ids=[{sc.op_id}]" in result.failure.detail
    assert result.cross_validated  # brute force agrees: nothing can serialize it

"""Plan data model: serialization round-trips and fresh materialization."""

from __future__ import annotations

import json
from dataclasses import replace

from repro.chaos.plan import (
    BcastCrashSpec,
    ByzSpec,
    ChainCrashSpec,
    ChaosPlan,
    DelaySpec,
    OpChainSpec,
    TimedCrashSpec,
    build_crash_plan,
    build_delay_model,
    writers_of,
)
from repro.chaos.shrink import _candidates
from repro.baselines.register_array import MWrite
from repro.baselines.scd_broadcast import MForward, ScdSync, ScdWrite
from repro.baselines.store_collect import MStore
from repro.core.messages import MValue
from repro.core.tags import Timestamp, ValueTs
from repro.net.delays import AdversarialDelay, ConstantDelay, UniformDelay


def sample_plan() -> ChaosPlan:
    return ChaosPlan(
        algo="byz_aso",
        n=7,
        f=2,
        seed=42,
        delay=DelaySpec(kind="uniform", lo=0.1),
        crashes=(
            TimedCrashSpec(node=0, time=2.5),
            BcastCrashSpec(node=1, deliver_to=(2, 3), nth=2),
            ChainCrashSpec(chain=(2, 3, 4)),
        ),
        workload=(
            OpChainSpec(node=3, ops=(("update", "a"), ("scan", None)), start=1.0),
            OpChainSpec(node=4, ops=(("scan", None),), gap=0.5),
        ),
        byzantine=(ByzSpec(node=0, behaviour="silent"),),
    )


def test_round_trip_through_json():
    plan = sample_plan()
    data = json.loads(json.dumps(plan.to_dict()))
    assert ChaosPlan.from_dict(data) == plan


def test_sizes():
    plan = sample_plan()
    assert plan.op_count == 3
    assert plan.crash_count == 4  # 1 timed + 1 bcast + chain of 2 hops
    assert plan.size() == (3, 5, 1)  # + 1 byzantine; non-constant delay


def test_flatten_delay():
    """The first shrink move swaps the delay adversary for lockstep D."""
    move, flat = next(_candidates(sample_plan()))
    assert move == "flatten-delay"
    assert flat.delay == DelaySpec() and flat.delay.kind == "constant"
    assert flat.size()[2] == 0


def test_build_crash_plan_is_fresh_per_call():
    """Each materialization has pristine runtime state AND pristine
    predicate closures (the nth-broadcast countdown must restart)."""
    plan = ChaosPlan(
        algo="eq_aso",
        n=5,
        f=2,
        seed=0,
        crashes=(BcastCrashSpec(node=1, deliver_to=(2,), nth=2),),
    )
    first = build_crash_plan(plan)
    # burn the countdown: first broadcast survives, second one crashes
    dests, crashed = first.filter_broadcast(1, "p1", [0, 2, 3, 4])
    assert not crashed and dests == [0, 2, 3, 4]
    dests, crashed = first.filter_broadcast(1, "p2", [0, 2, 3, 4])
    assert crashed and dests == [2]
    first.mark_crashed(1)

    second = build_crash_plan(plan)
    assert second.crashed_nodes == frozenset()
    dests, crashed = second.filter_broadcast(1, "p1", [0, 2, 3, 4])
    assert not crashed, "countdown state leaked between materializations"


def test_build_delay_model_kinds():
    base = sample_plan()
    assert isinstance(build_delay_model(replace(base, delay=DelaySpec())), ConstantDelay)
    assert isinstance(build_delay_model(base), UniformDelay)
    targeted = ChaosPlan(
        algo="eq_aso",
        n=5,
        f=2,
        seed=7,
        delay=DelaySpec(kind="targeted", lo=0.2, slow_sources=(1,)),
    )
    model = build_delay_model(targeted)
    assert isinstance(model, AdversarialDelay)
    assert model.sample(1, 3, "p", 0.0) == 1.0
    assert model.sample(2, 3, "p", 0.0) == 0.2
    # doomed: only values written by a chain head take the full D
    doomed = ChaosPlan(
        algo="delporte",
        n=5,
        f=2,
        seed=0,
        delay=DelaySpec(kind="doomed", lo=0.1),
        crashes=(ChainCrashSpec(chain=(1, 2, 0)), TimedCrashSpec(3, 1.0)),
    )
    model = build_delay_model(doomed)
    assert isinstance(model, AdversarialDelay)
    assert model.sample(2, 0, MWrite(1, 1, "doomed"), 0.0) == 1.0
    assert model.sample(1, 0, MWrite(2, 1, "other"), 0.0) == 0.1
    assert model.sample(1, 0, MWrite(3, 1, "timed"), 0.0) == 0.1
    assert model.sample(1, 0, "no value", 0.0) == 0.1


def test_writers_of_reads_the_writer_off_each_value_message():
    assert writers_of(MValue(ValueTs("v", Timestamp(2, 3), 1))) == (3,)
    assert writers_of(MWrite(3, 1, "v")) == (3,)
    assert writers_of(MForward((0, 1), ScdWrite(4, 1, "v"))) == (4,)
    assert writers_of(MForward((0, 2), ScdSync(0, 1))) == ()
    view = frozenset({(1, 1, "a"), (2, 1, "b")})
    assert sorted(writers_of(MStore(1, view))) == [1, 2]
    assert writers_of("not a value message") == ()


def test_uniform_delays_are_plan_seed_deterministic():
    plan = sample_plan()
    a = build_delay_model(plan)
    b = build_delay_model(plan)
    draws_a = [a.sample(0, 1, None, 0.0) for _ in range(16)]
    draws_b = [b.sample(0, 1, None, 0.0) for _ in range(16)]
    assert draws_a == draws_b

"""Line 41's forward-once filter is the view vector's own answer.

``ViewVector.learn`` reports whether a received value was new to the
receiver's row, and the three equivalence-quorum algorithms forward on
exactly that (unless the message is their own broadcast coming back).
The ``_seen`` sets they used to keep are gone; the oracle under
``tests/support/forward_once.py`` still applies that rule, and every
node of every run below must have forwarded what it says, when it says.
"""

from unittest import mock

import pytest

from repro.chaos.algos import all_profiles, healthy_profiles
from repro.chaos.campaign import campaign_seed
from repro.chaos.gen import generate_plan
from repro.chaos import runner
from repro.core import EqAso
from repro.core.lattice_agreement import EarlyStoppingLA, LAElement, MLAValue
from repro.core.messages import MValue
from repro.core.one_shot import OneShotAso
from repro.core.tags import Timestamp, ValueTs
from repro.net.delays import UniformDelay
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import _Broadcast
from repro.sim.rng import SeededRng
from tests.support.forward_once import seen_set_oracle, watch

N, F = 5, 2


def _jittered(factory, seed):
    rng = SeededRng(seed)
    return Cluster(
        factory,
        n=N,
        f=F,
        delay_model=UniformDelay(1.0, rng.child("delay"), lo=0.1, hi=1.0),
    )


def _assert_logs_match_the_oracle(logs, *, expect_forwards):
    forwards = 0
    for node, log in enumerate(logs):
        assert log == seen_set_oracle(log), f"node {node} forwarded otherwise"
        forwards += sum(entry[0] == "fwd" for entry in log)
    if expect_forwards:
        assert forwards > 0


@pytest.mark.parametrize("seed", [11, 2408])
def test_eq_aso_forwards_what_the_seen_set_would(seed):
    cluster = _jittered(EqAso, seed)
    logs = watch(cluster)
    handles = []
    for node in range(N):
        ops = [
            ("update", (f"v{node}.{i}",)) if (node + i) % 3 else ("scan", ())
            for i in range(4)
        ]
        handles += cluster.chain_ops(node, ops)
    cluster.run_until_complete(handles)
    assert all(h.done for h in handles)
    _assert_logs_match_the_oracle(logs, expect_forwards=True)
    # every update was forwarded by each of the other nodes, once
    updates = sum(h.kind == "update" for h in handles)
    cluster.run()  # let the forwarding still in flight finish
    forwards = sum(entry[0] == "fwd" for log in logs for entry in log)
    assert forwards == updates * (N - 1)


@pytest.mark.parametrize("seed", [11, 2408])
def test_one_shot_aso_forwards_what_the_seen_set_would(seed):
    cluster = _jittered(OneShotAso, seed)
    logs = watch(cluster)
    handles = [cluster.invoke_at(0.1 * node, node, "update", node) for node in range(3)]
    handles += [cluster.invoke_at(0.5, node, "scan") for node in (3, 4)]
    cluster.run_until_complete(handles)
    cluster.run()
    _assert_logs_match_the_oracle(logs, expect_forwards=True)
    assert sum(e[0] == "fwd" for log in logs for e in log) == 3 * (N - 1)


@pytest.mark.parametrize("seed", [11, 2408])
def test_lattice_agreement_forwards_what_the_seen_set_would(seed):
    cluster = _jittered(EarlyStoppingLA, seed)
    logs = watch(cluster)
    handles = [
        cluster.invoke_at(0.0, node, "propose", [f"x{node}", f"y{node}"])
        for node in range(N)
    ]
    cluster.run_until_complete(handles)
    cluster.run()
    _assert_logs_match_the_oracle(logs, expect_forwards=True)
    assert sum(e[0] == "fwd" for log in logs for e in log) == 2 * N * (N - 1)


def _smoke_and_byzantine_plans():
    """The ``repro.chaos --smoke`` sweep (master seed 0, four plans per
    healthy algorithm) and the same indices of the two Byzantine
    profiles, whose plans put ``ByzantineShell`` nodes in the cluster."""
    byzantine = sorted(set(all_profiles()) - set(healthy_profiles()))
    for algo in sorted(healthy_profiles()) + [a for a in byzantine if a.startswith("byz")]:
        for index in range(4):
            yield pytest.param(algo, index, id=f"{algo}-{index}")


@pytest.mark.parametrize("algo, index", _smoke_and_byzantine_plans())
def test_chaos_plans_forward_what_the_seen_set_would(algo, index):
    profile = all_profiles()[algo]
    plan = generate_plan(profile, campaign_seed(0, algo, index), max_ops_per_node=3)
    watched = []

    def build_and_watch(plan, *, tracer=None):
        cluster = build_cluster(plan, tracer=tracer)
        watched.append(watch(cluster))
        return cluster

    build_cluster = runner.build_cluster
    with mock.patch.object(runner, "build_cluster", build_and_watch):
        result = runner.run_plan(plan)
    assert result.ok
    (logs,) = watched
    # only the EqAso family sends ``value`` messages; the other
    # algorithms' logs are empty and agree with the oracle trivially
    _assert_logs_match_the_oracle(
        logs, expect_forwards=algo in ("eq_aso", "sso_fast_scan")
    )


# -- the two edges of the rule, per algorithm --------------------------------


def _value(writer, tag=1):
    return ValueTs(f"w{writer}", Timestamp(tag, writer), 1)


CASES = [
    pytest.param(EqAso, MValue, _value, id="eq_aso"),
    pytest.param(OneShotAso, MValue, _value, id="one_shot"),
    pytest.param(
        EarlyStoppingLA, MLAValue, lambda writer: LAElement(writer, "x"), id="la"
    ),
]


def _broadcasts(node, kind):
    sent = [item for item in node.outbox if type(item) is _Broadcast]
    node.outbox.clear()
    return [item.payload for item in sent if type(item.payload) is kind]


@pytest.mark.parametrize("factory, kind, make", CASES)
def test_own_value_is_not_forwarded_again_on_self_delivery(factory, kind, make):
    me = 1
    node = factory(me, 3, 1)
    mine = kind(make(me))
    node.on_message(me, mine)  # the line-6 broadcast, delivered to its sender
    assert _broadcasts(node, kind) == []
    assert make(me) in node.V.row(me)  # ... and learned, as line 40 says
    node.on_message(0, mine)  # node 0's forward of it, later
    node.on_message(2, mine)
    assert _broadcasts(node, kind) == []
    assert all(make(me) in node.V.row(j) for j in range(3))


@pytest.mark.parametrize("factory, kind, make", CASES)
def test_a_value_naming_the_receiver_as_writer_is_forwarded_like_any_other(
    factory, kind, make
):
    """A value that claims node 1 wrote it, arriving at node 1 from node 0,
    which node 1 never wrote (a forged writer field — no crash-model run
    produces one).  The ``_seen`` set held what a node had *broadcast or
    received*, not what named it as writer, so such a value was unseen:
    learned, and forwarded once.  That is still what happens — the filter
    asks who sent the message, never who the value says wrote it."""
    me = 1
    node = factory(me, 3, 1)
    forged = kind(make(me))
    node.on_message(0, forged)
    assert _broadcasts(node, kind) == [forged]  # forwarded: first receipt
    node.on_message(2, forged)
    node.on_message(me, forged)  # its own forward, delivered to itself
    assert _broadcasts(node, kind) == []  # ... and only once
    assert all(make(me) in node.V.row(j) for j in range(3))

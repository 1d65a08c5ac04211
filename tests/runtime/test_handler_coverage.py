"""The handler table and the kinds a run delivers are the same set.

This is the exact, executed form of what the retired static rule RL007
approximated from source: a kind that is sent but has no table entry is
the ``TypeError`` of ``ProtocolNode.on_message`` at its first delivery
(the episode below would not complete), and a table entry no run ever
reaches — a dead handler — shows up as ``table − delivered``.

The Byzantine variants keep a validating ``on_message`` envelope in
front of the inherited table, so their two differences are pinned by
name: a change to either shows up here.
"""

import pytest

from repro.chaos.algos import BYZANTINE_ALGOS, CAMPAIGN_ALGOS, AlgoProfile
from repro.core.byz_messages import MByzGoodLA, MHave
from repro.core.messages import MGoodLA, MValue
from repro.harness.workloads import random_workload
from repro.net.delays import UniformDelay
from repro.net.rbc import REcho, RInit, RReady
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng


def _delivered_kinds(profile: AlgoProfile) -> set[type]:
    """Payload types delivered in one seeded, jittered, mixed episode."""
    rng = SeededRng(7)
    cluster = Cluster(
        profile.factory,
        n=profile.n,
        f=profile.f,
        delay_model=UniformDelay(1.0, rng.child("delay"), lo=0.1, hi=1.0),
        record_net_trace=True,
    )
    ops = random_workload(cluster, rng.child("workload"), ops_per_node=4)
    cluster.run_until_complete(ops)
    assert all(op.done for op in ops)
    return {type(rec.payload) for rec in cluster.network.trace}


@pytest.mark.parametrize("name", list(CAMPAIGN_ALGOS))
def test_delivered_kinds_are_exactly_the_handler_table(name):
    profile = CAMPAIGN_ALGOS[name]
    assert _delivered_kinds(profile) == set(profile.factory._handlers)


@pytest.mark.parametrize("name", list(BYZANTINE_ALGOS))
def test_the_byzantine_envelope_differs_from_its_table_by_pinned_kinds(name):
    profile = BYZANTINE_ALGOS[name]
    delivered = _delivered_kinds(profile)
    table = set(profile.factory._handlers)
    # inherited from EqAso, unreachable behind the envelope: values travel
    # by reliable broadcast + MHave, good-LA claims as MByzGoodLA
    assert table - delivered == {MValue, MGoodLA}
    # consumed outside the table: ``match`` on untrusted payloads, and the
    # BrachaRBC component's own three kinds
    assert delivered - table == {MHave, MByzGoodLA, RInit, REcho, RReady}

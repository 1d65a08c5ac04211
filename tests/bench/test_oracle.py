"""The whole-run oracle: every bench case, shipped vs reference substrate.

Each ``repro.bench`` smoke case runs once as shipped and once with the
reference event queue, one-event-per-message network, frozenset view
vectors and plain message construction patched in
(:mod:`tests.support.reference_substrate`).  The paper-facing metrics
must be byte-identical (canonical-JSON fingerprint) and the protocol
traffic equal: the burst lane, broadcast batching, interned bitset views
and interned messages may change how long a run takes, never what it
computes.
"""

import pytest

from repro.bench.runner import CASES, run_case
from repro.core import EqAso
from repro.core.messages import MEchoTag
from repro.core.views import ViewVector
from repro.net.network import Network
from repro.runtime.cluster import Cluster
from repro.sim.events import EventQueue
from tests.support.reference_substrate import (
    ReferenceEventQueue,
    ReferenceNetwork,
    ReferenceViewVector,
    reference_substrate,
)


def _built_types():
    cluster = Cluster(EqAso, n=3, f=1)
    return (
        type(cluster.sim.queue),
        type(cluster.network),
        type(cluster.nodes[0].V),
        MEchoTag(41) is MEchoTag(41),
    )


def test_reference_patch_reaches_every_construction_site():
    """Guard against a vacuous oracle: inside the block a cluster really
    is built from the references, and the patch undoes itself."""
    shipped = (EventQueue, Network, ViewVector, True)
    assert _built_types() == shipped
    with reference_substrate():
        assert _built_types() == (
            ReferenceEventQueue,
            ReferenceNetwork,
            ReferenceViewVector,
            False,
        )
    assert _built_types() == shipped


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_reference_substrate(name):
    shipped = run_case(CASES[name], smoke=True, repeats=1, warmup=0)
    with reference_substrate():
        reference = run_case(CASES[name], smoke=True, repeats=1, warmup=0)
    assert shipped["fingerprint_sha256"] == reference["fingerprint_sha256"]
    ours, theirs = shipped["measurement"], reference["measurement"]
    assert ours["messages"] == theirs["messages"] > 0
    assert ours["eq_evals"] == theirs["eq_evals"]
    # batching only ever merges kernel events; the references neither
    # skip EQ rows nor intern anything
    assert ours["events"] <= theirs["events"]
    assert theirs["eq_rows_saved"] == theirs["values_interned"] == 0
    assert theirs["messages_packed"] == 0

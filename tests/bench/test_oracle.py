"""The whole-run oracle and the smoke gate: every bench case, once as
shipped and once on the reference substrate.

Each ``repro.bench`` smoke case runs once as shipped and once with the
reference event queue, one-event-per-message network, frozenset view
vectors and plain message construction patched in
(:mod:`tests.support.reference_substrate`).  The shipped run is the
tier-1 smoke gate: its fingerprint and gated counters must equal the
checked-in ``BENCH_macro.smoke.json`` entry.  The reference run must
produce the byte-identical paper-facing metrics (canonical-JSON
fingerprint) and equal protocol traffic: the burst lane, broadcast
batching, interned bitset views and interned messages may change how
long a run takes, never what it computes.
"""

from pathlib import Path

import pytest

from repro.bench.compare import compare_reports, load_baseline
from repro.bench.runner import CASES, run_case
from repro.core import EqAso
from repro.core.messages import MEchoTag
from repro.core.views import ViewVector
from repro.net.network import Network
from repro.runtime.cluster import Cluster
from repro.sim.events import EventQueue
from repro.sim.fastpath import STATS
from repro.sim.kernel import Simulator
from tests.support.reference_substrate import (
    ReferenceEventQueue,
    ReferenceNetwork,
    ReferenceViewVector,
    reference_loop,
    reference_substrate,
)

SMOKE = load_baseline(
    Path(__file__).resolve().parents[2] / "BENCH_macro.smoke.json", mode="smoke"
)


def _built_types():
    cluster = Cluster(EqAso, n=3, f=1)
    return (
        type(cluster.sim.queue),
        type(cluster.sim)._loop,
        type(cluster.network),
        type(cluster.nodes[0].V),
        MEchoTag(41) is MEchoTag(41),
    )


def test_reference_patch_reaches_every_construction_site():
    """Guard against a vacuous oracle: inside the block a cluster really
    is built from the references, and the patch undoes itself."""
    shipped = (EventQueue, Simulator._loop, Network, ViewVector, True)
    assert _built_types() == shipped
    with reference_substrate():
        assert _built_types() == (
            ReferenceEventQueue,
            reference_loop,
            ReferenceNetwork,
            ReferenceViewVector,
            False,
        )
    assert _built_types() == shipped


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_reference_substrate(name):
    ours = run_case(CASES[name], smoke=True)
    assert name in SMOKE["cases"]
    assert compare_reports({"cases": {name: ours}}, SMOKE) == []
    packed = STATS.messages_packed
    with reference_substrate():
        theirs = run_case(CASES[name], smoke=True)
    assert ours["fingerprint_sha256"] == theirs["fingerprint_sha256"]
    assert ours["messages"] == theirs["messages"] > 0
    assert ours["eq_evals"] == theirs["eq_evals"]
    # batching only ever merges kernel events; the references neither
    # skip EQ rows nor intern anything
    assert ours["events"] <= theirs["events"]
    assert theirs["eq_rows_saved"] == theirs["values_interned"] == 0
    assert STATS.messages_packed == packed

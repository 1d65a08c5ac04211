"""Tests for long-lived state garbage collection (gc_tag_window)."""

from repro.core.eq_aso import EqAso
from repro.runtime.cluster import Cluster
from repro.spec import is_linearizable

from tests.conftest import run_random_execution


class GcEqAso(EqAso):
    gc_tag_window = 3


def test_gc_bounds_good_la_views():
    cluster = Cluster(GcEqAso, n=4, f=1)
    # a long sequence of updates pumps the tag far past the window
    handles = cluster.chain_ops(
        0, [("update", (f"v{i}",)) for i in range(12)]
    )
    cluster.run_until_complete(handles)
    cluster.run(until=cluster.sim.now + 3.0)
    for node in cluster.nodes:
        live_tags = sorted(node._good_la_views)
        assert len(live_tags) <= GcEqAso.gc_tag_window + 1, live_tags
        assert all(t >= node.max_tag - GcEqAso.gc_tag_window for t in live_tags)


def test_gc_preserves_correctness_and_liveness():
    for seed in range(4):
        cluster, handles = run_random_execution(
            GcEqAso, seed=seed, ops_per_node=4
        )
        assert all(h.done for h in handles)
        assert is_linearizable(cluster.history)


def test_gc_disabled_by_default():
    cluster = Cluster(EqAso, n=4, f=1)
    handles = cluster.chain_ops(0, [("update", (f"v{i}",)) for i in range(6)])
    cluster.run_until_complete(handles)
    cluster.run(until=cluster.sim.now + 3.0)
    # without a window, every tag's record is retained
    node = cluster.node(1)
    assert len(node._good_la_views) >= 5


def test_gc_matches_ungc_results():
    """GC must be observationally invisible: same workload, same scans."""

    def run(factory):
        cluster = Cluster(factory, n=4, f=1)
        handles = []
        for node in range(3):
            handles += cluster.chain_ops(
                node,
                [("update", (f"a{node}",)), ("scan", ()), ("update", (f"b{node}",)), ("scan", ())],
                start=node * 0.3,
            )
        cluster.run_until_complete(handles)
        return [
            h.result.values for h in handles if h.kind == "scan" and h.done
        ]

    assert run(EqAso) == run(GcEqAso)


def test_gc_prunes_view_plane_tag_state():
    """A tag restriction leaves no state in the view plane at all (a
    view is a handle on the row's bits); what _gc_old_tags retires is
    the per-tag bookkeeping — incremental EQ states and cumulative masks
    — so a long-lived node's tables track the window, not the run."""

    def tables(factory):
        cluster = Cluster(factory, n=4, f=1)
        handles = cluster.chain_ops(
            0, [("update", (f"v{i}",)) for i in range(20)]
        )
        cluster.run_until_complete(handles)
        cluster.run(until=cluster.sim.now + 3.0)
        return [node.V.cache_stats() for node in cluster.nodes]

    for stats in tables(GcEqAso):
        # everything the plane keeps, and none of it per restriction
        assert set(stats) == {
            "plane", "eq_states", "interned", "tag_masks", "cum_masks"
        }
        # only tags >= maxTag - window survive the last prune
        assert int(stats["cum_masks"]) <= GcEqAso.gc_tag_window + 2, stats
        assert int(stats["eq_states"]) <= GcEqAso.gc_tag_window + 2, stats
    # without a window the same run keeps one cumulative mask per tag
    assert max(int(s["cum_masks"]) for s in tables(EqAso)) >= 15

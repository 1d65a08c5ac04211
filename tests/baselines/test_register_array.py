"""Tests for the segment array the pull-based rows share
(:mod:`repro.baselines.register_array`): Delporte [19], BFK and IMPR."""

import pytest

from repro.baselines.impr import ImprRegisterAso
from repro.baselines.register_array import RegisterArray, merge
from repro.runtime.cluster import Cluster

A = ((1, "v"), (0, None), (0, None), (0, None), (0, None))
B = ((0, None), (0, None), (0, None), (0, None), (1, "w"))


def _seeded(factory, arrays):
    """A 5-node cluster whose replica ``i`` starts with ``arrays[i]``."""
    cluster = Cluster(factory, n=5, f=2)
    for node, array in zip(cluster.nodes, arrays):
        node.reg = array
    return cluster


def test_resilience_bound():
    with pytest.raises(ValueError, match="RegisterArray requires n > 2f"):
        RegisterArray(0, 4, 2)


def test_merge_is_pointwise_max_by_seq():
    a = ((1, "x"), (0, None))
    b = ((0, None), (2, "y"))
    assert merge(a, b) == ((1, "x"), (2, "y"))


def test_register_write_is_one_round_trip():
    cluster = Cluster(RegisterArray, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "write", "v")
    cluster.run_until_complete([h])
    assert h.latency / cluster.D == 2.0
    cluster.run()
    assert [node.reg for node in cluster.nodes] == [A] * 5


def test_collect_returns_the_replicas_arrays():
    """Each of the ``n − f`` replies is a replica's array after it merged
    the query's view, and the replica keeps that merge."""
    arrays = [A, A, B, B, B]
    cluster = _seeded(RegisterArray, arrays)
    h = cluster.invoke_at(0.0, 0, "_collect", B)
    cluster.run_until_complete([h])
    cluster.run()
    assert len(h.result) == 3
    for src, array in h.result.items():
        assert array == merge(arrays[src], B)
    assert [node.reg for node in cluster.nodes] == [merge(A, B)] * 2 + [B] * 3


def test_identity_read_leaves_every_replica_unchanged():
    """IMPR's read queries with the all-⊥ view, whose merge is the
    identity: replicas 3 and 4 lack the reader's value and still end as
    they began (a query carrying the reader's array would have changed
    them)."""
    arrays = [A, A, A, B, B]
    cluster = _seeded(ImprRegisterAso, arrays)
    h = cluster.invoke_at(0.0, 0, "read")
    cluster.run_until_complete([h])
    cluster.run()
    assert h.result == A
    reader = cluster.node(0)
    assert (reader.fast_reads, reader.write_backs) == (1, 0)
    assert [node.reg for node in cluster.nodes] == arrays

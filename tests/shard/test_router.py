"""Consistent-hash router: determinism, stability, ring shape (balance
is measured on the service's partition, ``test_service``)."""

from repro.shard.router import DEFAULT_VNODES, ShardRouter, key_point


def test_key_point_is_pure_and_host_independent():
    # sha256 prefix of the key bytes — a pinned value guards against
    # accidental dependence on PYTHONHASHSEED or platform hashing
    assert key_point("k0001") == key_point("k0001")
    assert key_point("k0001") == 0x832BF1DAEBFABC43


def test_same_seed_same_routing():
    a = ShardRouter(4, ring_seed=7)
    b = ShardRouter(4, ring_seed=7)
    keys = [f"k{i:04d}" for i in range(500)]
    assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]


def test_different_seed_moves_some_keys():
    a = ShardRouter(4, ring_seed=1)
    b = ShardRouter(4, ring_seed=2)
    keys = [f"k{i:04d}" for i in range(500)]
    assert any(a.shard_of(k) != b.shard_of(k) for k in keys)


def test_single_shard_routes_everything_to_zero():
    r = ShardRouter(1)
    assert {r.shard_of(f"k{i}") for i in range(100)} == {0}


def test_adding_a_shard_moves_only_a_fraction_of_keys():
    # the consistent-hashing contract: growing 4 -> 5 shards remaps
    # roughly 1/5 of the keyspace, not all of it
    keys = [f"k{i:05d}" for i in range(2000)]
    before = ShardRouter(4, ring_seed=7)
    after = ShardRouter(5, ring_seed=7)
    moved = sum(1 for k in keys if before.shard_of(k) != after.shard_of(k))
    assert 0 < moved < len(keys) * 0.4


def test_vnode_count_configurable():
    r = ShardRouter(3, vnodes=8, ring_seed=7)
    assert len(r._points) == 3 * 8
    assert DEFAULT_VNODES == 64

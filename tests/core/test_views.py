"""Unit + property tests for view vectors and the EQ predicate."""

from hypothesis import given, strategies as st

from repro.core.tags import Timestamp, ValueTs
from repro.core.views import ViewVector, eq_predicate
from tests.support.reference_substrate import ReferenceViewVector


def vt(value, tag, writer=0, useq=1):
    return ValueTs(value, Timestamp(tag, writer), useq)


def test_add_and_membership():
    V = ViewVector(3)
    x = vt("x", 1)
    assert V.add(1, x) is True
    assert V.add(1, x) is False  # duplicate
    assert V.contains(1, x)
    assert V.row(1) == {x}
    assert V.row_size(1) == 1


def test_restricted_row_filters_by_tag():
    V = ViewVector(2)
    V.add(0, vt("low", 1))
    V.add(0, vt("high", 5, useq=2))
    assert V.restricted_row(0, 3) == {vt("low", 1)}
    assert V.restricted_row(0, 5) == {vt("low", 1), vt("high", 5, useq=2)}
    assert V.restricted_row(0, 0) == frozenset()


def test_restricted_row_cache_invalidates_on_growth():
    V = ViewVector(2)
    V.add(0, vt("a", 1))
    assert V.restricted_row(0, 2) == {vt("a", 1)}
    V.add(0, vt("b", 2, useq=2))
    assert V.restricted_row(0, 2) == {vt("a", 1), vt("b", 2, useq=2)}


def test_all_values_union():
    V = ViewVector(3)
    V.add(0, vt("a", 1))
    V.add(2, vt("b", 2, writer=1))
    assert V.all_values() == {vt("a", 1), vt("b", 2, writer=1)}


def test_eq_trivially_true_on_empty_vector():
    V = ViewVector(3)
    hit = eq_predicate(V, 0, f=1)
    assert hit is not None
    quorum, eqset = hit
    assert quorum == (0, 1, 2) and eqset == frozenset()


def test_eq_requires_n_minus_f_equal_rows():
    V = ViewVector(3)
    x = vt("x", 1)
    V.add(0, x)  # own row has x, others do not
    assert eq_predicate(V, 0, f=1) is None
    V.add(2, x)
    hit = eq_predicate(V, 0, f=1)
    assert hit is not None and hit[0] == (0, 2)


def test_eq_with_tag_restriction_ignores_future_values():
    V = ViewVector(3)
    future = vt("future", 9)
    V.add(0, future)  # only in own row, but tag 9 > bound
    hit = eq_predicate(V, 0, f=1, r=5)
    assert hit is not None and hit[1] == frozenset()
    assert eq_predicate(V, 0, f=1) is None  # unrestricted: rows differ


def test_eq_quorum_includes_all_matching_rows():
    V = ViewVector(4)
    x = vt("x", 1)
    for j in range(4):
        V.add(j, x)
    hit = eq_predicate(V, 0, f=1)
    assert hit is not None and hit[0] == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
values_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # row to add to
        st.integers(min_value=0, max_value=2),  # writer
        st.integers(min_value=1, max_value=6),  # tag
    ),
    max_size=30,
)


@given(values_strategy, st.integers(min_value=0, max_value=6))
def test_restricted_rows_are_monotone_in_tag(adds, r):
    V = ViewVector(3)
    for row, writer, tag in adds:
        V.add(row, ValueTs(f"v{writer}.{tag}", Timestamp(tag, writer), tag))
    for j in range(3):
        low = V.restricted_row(j, r)
        high = V.restricted_row(j, r + 1)
        assert low <= high
        assert high <= V.row(j)


@given(values_strategy)
def test_eq_set_equals_own_restricted_row(adds):
    V = ViewVector(3)
    for row, writer, tag in adds:
        V.add(row, ValueTs(f"v{writer}.{tag}", Timestamp(tag, writer), tag))
    for r in range(7):
        hit = eq_predicate(V, 0, f=1, r=r)
        if hit is not None:
            assert hit[1] == V.restricted_row(0, r)
            assert 0 in hit[0]
            assert len(hit[0]) >= 2  # n - f


# ----------------------------------------------------------------------
# cache management (shipped vector and the reference oracle)
# ----------------------------------------------------------------------


def test_cache_stats_names_the_plane():
    assert ViewVector(2).cache_stats()["plane"] == "bitset"
    assert ReferenceViewVector(2).cache_stats()["plane"] == "reference"


def test_plane_state_bounded_under_long_update_stream():
    """10k updates with ever-growing tags, restricted and polled as they
    go.  A restriction leaves nothing behind — the plane has no table
    keyed by (row, tag) — and periodic prune_below (what
    EqAso._gc_old_tags calls) retires the per-tag state that does exist,
    EQ states and cumulative masks, so it tracks the window."""
    window, prune_every, query_every = 8, 100, 10
    n = 4
    V = ViewVector(n)
    high_water = 0
    for i in range(10_000):
        tag = i + 1
        writer = i % n
        V.add(writer, ValueTs(f"x{i}", Timestamp(tag, writer), i + 1))
        if tag % query_every == 0:
            V.eq_predicate(writer, 1, tag)
            before = V.cache_stats()
            views = [V.restricted_row(j, tag) for j in range(n)]
            assert sum(map(len, views)) == tag
            assert V.cache_stats() == before  # n restrictions, no new state
        if tag % prune_every == 0:
            V.prune_below(tag - window)
            stats = V.cache_stats()
            high_water = max(
                high_water, int(stats["cum_masks"]), int(stats["eq_states"])
            )
    stats = V.cache_stats()
    assert set(stats) == {"plane", "eq_states", "interned", "tag_masks", "cum_masks"}
    # after a prune only tags inside the window are left
    assert high_water <= window // query_every + 1, high_water
    assert int(stats["interned"]) == 10_000


def test_prune_below_never_changes_results():
    V = ViewVector(2)
    a, b = vt("a", 1), vt("b", 5, useq=2)
    V.add(0, a)
    V.add(0, b)
    before = (V.restricted_row(0, 3), V.restricted_row(0, 5))
    V.prune_below(10)  # retires every cumulative mask
    assert (V.restricted_row(0, 3), V.restricted_row(0, 5)) == before


# ----------------------------------------------------------------------
# EQ match-state cache: LRU bound, eviction cost, idle expiry (PR-4/PR-8)
#
# The cache is private, so the tests probe membership behaviorally via
# the substrate counters: with no dirty rows, re-querying a CACHED key
# is a free hit (eq_rows_saved += n) while a key that was evicted or
# expired pays the full rescan (eq_rows_scanned += n).  A probe is a
# real query, so it re-registers a missing key (LRU front eviction
# included) — probe in an order where that churn is accounted for.
# ----------------------------------------------------------------------
def _mirrored(n, adds):
    """The same add-sequence applied to both planes (for differential EQ)."""
    V, ref = ViewVector(n), ReferenceViewVector(n)
    for j, value in adds:
        V.add(j, value)
        ref.add(j, value)
    return V, ref


def _probe(V, i, r):
    """Query (i, r) on clean rows; report whether the state was cached."""
    from repro.sim.fastpath import STATS

    scanned, saved = STATS.eq_rows_scanned, STATS.eq_rows_saved
    result = V.eq_predicate(i, 1, r)
    if STATS.eq_rows_saved == saved + V.n and STATS.eq_rows_scanned == scanned:
        return "hit", result
    assert STATS.eq_rows_scanned == scanned + V.n, "probe needs clean rows"
    return "miss", result


def test_eq_state_cache_bounded_with_front_eviction():
    from repro.core.views import MAX_EQ_STATES

    V = ViewVector(4)
    for j in range(4):
        V.add(j, vt("seed", 1))
    for r in [None] + list(range(1, MAX_EQ_STATES + 2)):
        V.eq_predicate(0, 1, r)  # MAX_EQ_STATES + 2 distinct (i, r) keys
        assert int(V.cache_stats()["eq_states"]) <= MAX_EQ_STATES
    # insertion order is recency order: the newest key is cached, the
    # oldest two ((0, None) then (0, 1)) fell off the front
    assert _probe(V, 0, MAX_EQ_STATES + 1)[0] == "hit"
    assert _probe(V, 0, None)[0] == "miss"
    assert _probe(V, 0, 1)[0] == "miss"


def test_eq_state_hit_refreshes_lru_order():
    from repro.core.views import MAX_EQ_STATES

    V = ViewVector(4)
    for j in range(4):
        V.add(j, vt("seed", 1))
    for r in range(1, MAX_EQ_STATES + 1):
        V.eq_predicate(0, 1, r)
    assert int(V.cache_stats()["eq_states"]) == MAX_EQ_STATES
    V.eq_predicate(0, 1, 1)  # clean hit reinserts (0, 1) at the back
    V.eq_predicate(0, 1, MAX_EQ_STATES + 1)  # forces one eviction
    assert _probe(V, 0, 1)[0] == "hit"  # survived: recently queried
    assert _probe(V, 0, 2)[0] == "miss"  # evicted in its place


def test_eq_eviction_costs_full_rescan_but_stays_exact():
    from repro.core.views import MAX_EQ_STATES

    n = 4
    adds = [(j, vt("x", 1)) for j in range(n)]
    adds.append((0, vt("y", 2, useq=2)))
    V, ref = _mirrored(n, adds)
    V.eq_predicate(0, 1, None)
    for r in range(1, MAX_EQ_STATES + 1):
        V.eq_predicate(0, 1, r)  # capacity churn evicts (0, None)

    # rows are clean, but the state is gone: the re-query pays the full
    # n-row scan — and eviction never changes the predicate's answer
    status, hit = _probe(V, 0, None)
    assert status == "miss"
    assert hit == ref.eq_predicate(0, 1, None)

    # ...and the re-registered state serves the next query for free
    status, again = _probe(V, 0, None)
    assert status == "hit"
    assert again == hit


def test_eq_idle_states_expire_during_dirty_flush():
    from repro.core.views import MAX_EQ_IDLE

    n = 4
    V, ref = ViewVector(n), ReferenceViewVector(n)
    V.eq_predicate(0, 1, None)  # register key A, then leave it idle
    for step in range(MAX_EQ_IDLE + 2):
        value = vt(f"w{step}", step + 1, writer=step % n, useq=step + 1)
        V.add(step % n, value)
        ref.add(step % n, value)
        V.eq_predicate(1, 1, None)  # key B advances the idle clock
    # A expired during a dirty flush (full rescan on re-query); B was
    # queried throughout and stayed cached — and expiry is pure memory
    # management: both answers still match the reference plane exactly
    status_a, hit_a = _probe(V, 0, None)
    status_b, hit_b = _probe(V, 1, None)
    assert (status_a, status_b) == ("miss", "hit")
    assert hit_a == ref.eq_predicate(0, 1, None)
    assert hit_b == ref.eq_predicate(1, 1, None)

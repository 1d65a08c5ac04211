"""Randomized differential test: bitset views vs the frozenset oracle.

Drives both :class:`~repro.core.views.ViewVector` and the
``ReferenceViewVector`` oracle through identical adversarial operation
interleavings and asserts every observable answer is identical.  This
is the micro-level version of the whole-run oracle test
(``tests/bench/test_oracle.py``): the representation (interned bitsets
+ incremental EQ vs frozensets) must never be observable through the
``ViewVector`` API.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.tags import Timestamp, ValueTs
from repro.core.views import ViewVector
from tests.support.reference_substrate import ReferenceViewVector

N = 4
MAX_TAG = 6

#: a fixed universe of values: every (tag, writer, useq) combination
POOL = [
    ValueTs(f"v{w}.{t}.{u}", Timestamp(t, w), u)
    for t in range(1, MAX_TAG + 1)
    for w in range(N)
    for u in (1, 2)
]

_node = st.integers(0, N - 1)
_tag = st.integers(0, MAX_TAG)
_value = st.integers(0, len(POOL) - 1)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _node, _value),
        st.tuples(st.just("restricted"), _node, _tag),
        st.tuples(st.just("eq"), _node, st.integers(0, N - 1), st.none() | _tag),
        st.tuples(st.just("match"), _tag, st.frozensets(_value, max_size=4)),
        st.tuples(st.just("prune"), _tag),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_planes_agree_on_every_observation(ops):
    fast = ViewVector(N)
    slow = ReferenceViewVector(N)
    for op in ops:
        match op:
            case ("add", j, vi):
                assert fast.add(j, POOL[vi]) == slow.add(j, POOL[vi])
            case ("restricted", j, r):
                assert fast.restricted_row(j, r) == slow.restricted_row(j, r)
            case ("eq", i, f, r):
                assert fast.eq_predicate(i, f, r) == slow.eq_predicate(i, f, r)
            case ("match", r, vis):
                ids = frozenset(POOL[k] for k in vis)
                assert fast.matching_restricted_rows(
                    r, ids
                ) == slow.matching_restricted_rows(r, ids)
            case ("prune", r):
                fast.prune_below(r)  # caches only: results must not move
                slow.prune_below(r)
    for j in range(N):
        assert fast.row(j) == slow.row(j)
        assert fast.row_size(j) == slow.row_size(j)
        assert fast.contains(j, POOL[0]) == slow.contains(j, POOL[0])
        assert fast.contains(j, POOL[-1]) == slow.contains(j, POOL[-1])
    assert fast.all_values() == slow.all_values()
    assert fast.max_value_tag() == slow.max_value_tag()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_node, _value), max_size=40),
    _node,
    st.integers(0, N - 1),
    _tag,
)
def test_incremental_eq_matches_reference_under_repolling(adds, i, f, r):
    """The EQ hot path: one fixed (i, f, r) predicate re-polled after
    every single add — exactly what the runtime does while a lattice
    operation waits.  The incremental matcher must track the reference
    at every step, including polls where nothing changed."""
    fast = ViewVector(N)
    slow = ReferenceViewVector(N)
    assert fast.eq_predicate(i, f, r) == slow.eq_predicate(i, f, r)
    for j, vi in adds:
        fast.add(j, POOL[vi])
        slow.add(j, POOL[vi])
        assert fast.eq_predicate(i, f, r) == slow.eq_predicate(i, f, r)
        # a second poll with no delivery in between must agree too
        assert fast.eq_predicate(i, f, r) == slow.eq_predicate(i, f, r)

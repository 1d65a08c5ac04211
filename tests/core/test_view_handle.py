"""Differential tests for the view handle: a ``ViewHandle`` must be
indistinguishable from the ``frozenset`` the reference plane returns.

Both planes are driven through identical add interleavings; every view
either hands out (``row``, ``restricted_row``, ``all_values``, the EQ
equivalence set) is then compared operator by operator — against the
reference's frozenset, against other handles of the same node (the
integer path), and against another node's handles (the materializing
path).  ``extract`` on a handle is compared with ``extract`` on the
frozenset, including writers whose values arrive out of timestamp order
and views that hold untagged lattice-agreement proposals.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.eq_aso import EqAso
from repro.core.lattice_agreement import LAElement
from repro.core.tags import Timestamp, ValueTs, extract
from repro.core.views import ViewHandle, ViewVector
from repro.runtime.cluster import Cluster
from tests.support.reference_substrate import ReferenceViewVector

N = 4
MAX_TAG = 6

#: one value per (writer, tag) — timestamps are unique (footnote 2) —
#: plus untagged lattice-agreement proposals (``tag_of == 0``, no ``ts``)
TAGGED = [
    ValueTs(f"v{w}.{t}", Timestamp(t, w), t)
    for t in range(1, MAX_TAG + 1)
    for w in range(N)
]
UNTAGGED = [LAElement(w, f"x{w}") for w in range(N)]

_node = st.integers(0, N - 1)
_tag = st.integers(0, MAX_TAG)


def _adds(pool):
    return st.lists(st.tuples(_node, st.sampled_from(pool)), max_size=30)


def _views(plane):
    """Every view a plane hands out, in a fixed order."""
    out = [plane.all_values()]
    for j in range(N):
        out.append(plane.row(j))
        out.extend(plane.restricted_row(j, r) for r in range(MAX_TAG + 1))
    for i in range(N):
        hit = plane.eq_predicate(i, 1, 2)
        if hit is not None:
            out.append(hit[1])
    return out


def _planes(adds):
    fast, slow = ViewVector(N), ReferenceViewVector(N)
    for j, value in adds:
        fast.add(j, value)
        slow.add(j, value)
    return fast, slow


def _same_answers(handle, other_handle, plain, other_plain, probe):
    """``handle`` against ``other_handle`` answers what the frozensets
    ``plain`` and ``other_plain`` answer, on every operator."""
    for left, right in ((handle, other_handle), (handle, other_plain),
                        (plain, other_handle)):
        assert (left == right) == (plain == other_plain)
        assert (left != right) == (plain != other_plain)
        assert (left <= right) == (plain <= other_plain)
        assert (left < right) == (plain < other_plain)
        assert (left >= right) == (plain >= other_plain)
        assert (left > right) == (plain > other_plain)
        assert left | right == plain | other_plain
        assert left & right == plain & other_plain
        assert left - right == plain - other_plain
        assert left ^ right == plain ^ other_plain
        assert left.isdisjoint(right) == plain.isdisjoint(other_plain)
    assert (probe in handle) == (probe in plain)


@settings(max_examples=120, deadline=None)
@given(_adds(TAGGED + UNTAGGED), st.sampled_from(TAGGED + UNTAGGED))
def test_handle_is_the_frozenset_it_denotes(adds, probe):
    fast, slow = _planes(adds)
    handles, plains = _views(fast), _views(slow)
    assert len(handles) == len(plains)
    for handle, plain in zip(handles, plains):
        assert isinstance(handle, ViewHandle) and type(plain) is frozenset
        assert handle == plain and plain == handle
        assert not handle != plain
        assert len(handle) == len(plain)
        assert bool(handle) == bool(plain)
        assert sorted(map(repr, handle)) == sorted(map(repr, plain))
        assert hash(handle) == hash(plain)
        assert {plain: "by frozenset"}[handle] == "by frozenset"
        assert {handle: "by handle"}[plain] == "by handle"
    # pairs of views of one node: handle/handle is the integer path
    picks = range(0, len(handles), 5)
    for a, b in product(picks, picks):
        _same_answers(handles[a], handles[b], plains[a], plains[b], probe)


@settings(max_examples=80, deadline=None)
@given(_adds(TAGGED + UNTAGGED), _adds(TAGGED + UNTAGGED),
       st.sampled_from(TAGGED + UNTAGGED))
def test_handles_of_two_nodes_compare_by_content(adds_a, adds_b, probe):
    """Two nodes intern the same values under different ids: their
    handles must still compare as the sets they denote."""
    (fast_a, slow_a), (fast_b, slow_b) = _planes(adds_a), _planes(adds_b)
    handles_a, plains_a = _views(fast_a), _views(slow_a)
    handles_b, plains_b = _views(fast_b), _views(slow_b)
    picks = range(0, len(handles_a), 7)
    for a, b in product(picks, picks):
        if b < len(handles_b):
            _same_answers(handles_a[a], handles_b[b], plains_a[a], plains_b[b], probe)
            assert (hash(handles_a[a]) == hash(handles_b[b])) == (
                hash(plains_a[a]) == hash(plains_b[b])
            )


def test_a_union_of_one_nodes_handles_stays_a_handle():
    fast, _ = _planes([(0, TAGGED[0]), (1, TAGGED[1]), (1, TAGGED[0])])
    assert type(fast.row(0) | fast.row(1)) is ViewHandle
    assert type(fast.row(0) & fast.row(1)) is ViewHandle
    assert type(fast.row(0) | frozenset([TAGGED[2]])) is frozenset
    assert type(frozenset([TAGGED[2]]) | fast.row(0)) is frozenset
    other, _ = _planes([(0, TAGGED[0])])
    assert type(fast.row(0) | other.row(0)) is frozenset
    assert fast.row(0).__eq__(TAGGED[0]) is NotImplemented


def test_good_views_of_different_nodes_are_comparable_handles():
    """Lemma 2 across nodes is a comparison of handles of *different*
    interners — the path the paper-lemma tests exercise end to end."""
    cluster = Cluster(EqAso, n=4, f=1)
    handles = []
    for node in range(4):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=0.3 * node
        )
    cluster.run_until_complete(handles)
    views = [view for node in cluster.nodes for _, view in node.good_views]
    first, last = cluster.node(0).good_views[0][1], cluster.node(3).good_views[0][1]
    assert type(first | first) is ViewHandle  # one node: stays a handle
    assert type(first | last) is frozenset  # two nodes: by content
    for a, b in product(views, views):
        assert a <= b or b <= a
        assert (a == b) == (frozenset(a) == frozenset(b))


# ----------------------------------------------------------------------
# extract
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_adds(TAGGED))
def test_extract_on_a_handle_equals_extract_on_the_frozenset(adds):
    """Adds arrive in any order, so a writer's values are interned out of
    timestamp order as a matter of course."""
    fast, _ = _planes(adds)
    for handle in _views(fast):
        assert extract(handle, N) == extract(frozenset(handle), N)


def test_extract_with_a_writer_interned_out_of_timestamp_order():
    newest, middle, oldest = (
        ValueTs(f"w{t}", Timestamp(t, 1), t) for t in (3, 2, 1)
    )
    V = ViewVector(3)
    for value in (newest, oldest, middle):  # jittered / Byzantine arrival
        V.add(0, value)
    V.add(1, oldest)
    V.add(1, middle)
    assert extract(V.row(0), 3).meta == (None, newest, None)
    assert extract(V.row(1), 3).meta == (None, middle, None)
    assert extract(V.restricted_row(0, 1), 3).meta == (None, oldest, None)
    assert extract(V.restricted_row(0, 0), 3).meta == (None, None, None)


def test_extract_on_untagged_members_fails_the_way_it_always_did():
    fast, _ = _planes([(0, UNTAGGED[0]), (0, TAGGED[0])])
    view = fast.row(0)
    with pytest.raises(AttributeError):
        extract(frozenset(view), N)
    with pytest.raises(AttributeError):
        extract(view, N)
    # a writer outside 0..n-1 likewise (IndexError from the generic scan)
    outside, _ = _planes([(0, TAGGED[1])])  # written by node 1
    for view in (outside.row(0), frozenset(outside.row(0))):
        with pytest.raises(IndexError):
            extract(view, 1)

"""Tests for the Theorem 1 constructive linearizer."""

import pytest

from repro.spec.linearize import LinearizationError, linearize
from repro.spec.order import order_check

from .builders import HistoryBuilder


def test_linearize_simple(small_history):
    order = linearize(small_history)
    assert [op.kind for op in order] == ["update", "scan"]


def test_linearize_places_updates_before_first_containing_scan():
    b = HistoryBuilder(3)
    u1 = b.update(0, "a", 0.0, 1.0)
    sc1 = b.scan(1, 2.0, 3.0, {0: ("a", 1)})
    u2 = b.update(1, "b", 4.0, 5.0)
    sc2 = b.scan(2, 6.0, 7.0, {0: ("a", 1), 1: ("b", 1)})
    order = linearize(b.done())
    ids = [op.op_id for op in order]
    assert ids.index(u1.op_id) < ids.index(sc1.op_id)
    assert ids.index(sc1.op_id) < ids.index(u2.op_id) < ids.index(sc2.op_id)


def test_linearize_raises_on_violation():
    b = HistoryBuilder(4)
    b.update(0, "a", 0.0, 10.0)
    b.update(1, "b", 0.0, 10.0)
    b.scan(2, 0.0, 10.0, {0: ("a", 1)})
    b.scan(3, 0.0, 10.0, {1: ("b", 1)})
    with pytest.raises(LinearizationError) as exc:
        linearize(b.done())
    assert any(v.condition == "A1" for v in exc.value.violations)


def test_updates_outside_all_bases_go_last():
    b = HistoryBuilder(2)
    sc = b.scan(1, 0.0, 1.0, {})
    u = b.update(0, "late", 2.0, 3.0)
    order = linearize(b.done())
    assert [op.op_id for op in order] == [sc.op_id, u.op_id]


def test_concurrent_updates_ordered_by_invocation():
    b = HistoryBuilder(3)
    u1 = b.update(0, "a", 0.2, 5.0)
    u2 = b.update(1, "b", 0.1, 5.0)
    b.scan(2, 6.0, 8.0, {0: ("a", 1), 1: ("b", 1)})
    order = linearize(b.done())
    ids = [op.op_id for op in order]
    assert ids.index(u2.op_id) < ids.index(u1.op_id)  # earlier inv first


def test_sequentialize_allows_stale_reads():
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)
    b.scan(1, 2.0, 3.0, {})  # stale: fine for SC, fatal for linearizability
    h = b.done()
    order = order_check(h, real_time=False).order  # the SC witness
    # the stale scan must be ordered before the update
    assert [op.kind for op in order] == ["scan", "update"]
    with pytest.raises(LinearizationError):
        linearize(h)


def test_sequentialize_raises_on_sc_violation():
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)
    b.scan(0, 2.0, 3.0, {})  # own write missed
    h = b.done()
    result = order_check(h, real_time=False)  # no SC witness exists
    assert not result.ok
    assert result.condition.condition == "A2"
    with pytest.raises(LinearizationError):
        linearize(h)


def test_linearize_with_visible_pending_update():
    b = HistoryBuilder(2)
    u = b.update(0, "ghost", 0.0, None)  # writer crashed
    sc = b.scan(1, 5.0, 6.0, {0: ("ghost", 1)})
    order = linearize(b.done())
    assert [op.op_id for op in order] == [u.op_id, sc.op_id]

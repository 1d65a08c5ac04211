"""Tests for the constraint-graph order checker."""

import pytest

from repro.spec import CheckerInternalError, check_atomicity_conditions
from repro.spec.order import effective_ops, order_check, validate_serialization

from .builders import HistoryBuilder


def test_clean_history_linearizable(small_history):
    result = order_check(small_history, real_time=True)
    assert result.ok
    assert [op.kind for op in result.order] == ["update", "scan"]


def test_incomparable_scans_cycle():
    b = HistoryBuilder(4)
    b.update(0, "a", 0.0, 10.0)
    b.update(1, "b", 0.0, 10.0)
    b.scan(2, 0.0, 10.0, {0: ("a", 1)})
    b.scan(3, 0.0, 10.0, {1: ("b", 1)})
    result = order_check(b.done(), real_time=True)
    assert not result.ok
    assert len(result.cycle) >= 2


def test_sc_weaker_than_linearizability():
    """A stale read: linearizability fails, sequential consistency holds."""
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)  # completed
    b.scan(1, 2.0, 3.0, {})  # later scan misses it (node 1's first op)
    h = b.done()
    assert not order_check(h, real_time=True).ok
    assert order_check(h, real_time=False).ok


def test_sc_violation_per_node_order():
    """Even SC fails when a node's own scan misses its own update."""
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)
    b.scan(0, 2.0, 3.0, {})  # same node forgets its own write
    h = b.done()
    assert not order_check(h, real_time=False).ok


def test_effective_ops_includes_visible_pending_updates():
    b = HistoryBuilder(2)
    pending = b.update(0, "ghost", 0.0, None)
    b.scan(1, 5.0, 6.0, {0: ("ghost", 1)})
    ops = effective_ops(b.done())
    assert pending in ops


def test_effective_ops_excludes_invisible_pending_updates():
    b = HistoryBuilder(2)
    pending = b.update(0, "ghost", 0.0, None)
    b.scan(1, 5.0, 6.0, {})
    ops = effective_ops(b.done())
    assert pending not in ops


def test_witness_passes_independent_validation():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.update(1, "b", 0.5, 1.5)
    b.scan(2, 2.0, 3.0, {0: ("a", 1), 1: ("b", 1)})
    b.update(0, "a2", 4.0, 5.0)
    b.scan(1, 6.0, 7.0, {0: ("a2", 2), 1: ("b", 1)})
    h = b.done()
    result = order_check(h, real_time=True)
    assert result.ok
    assert validate_serialization(h, result.order, real_time=True) == []


def test_validate_serialization_catches_bad_orders():
    b = HistoryBuilder(2)
    up = b.update(0, "a", 0.0, 1.0)
    sc = b.scan(1, 2.0, 3.0, {0: ("a", 1)})
    h = b.done()
    # scan before its update: legality violated
    errors = validate_serialization(h, [sc, up], real_time=False)
    assert errors
    # missing op
    errors = validate_serialization(h, [up], real_time=False)
    assert errors
    # real-time inversion (construct concurrent-legal order then check rt)
    good = validate_serialization(h, [up, sc], real_time=True)
    assert good == []


def test_equal_base_scans_any_order_is_fine():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.scan(1, 2.0, 5.0, {0: ("a", 1)})
    b.scan(2, 2.0, 5.0, {0: ("a", 1)})
    assert order_check(b.done(), real_time=True).ok


def test_update_scan_update_interleavings():
    b = HistoryBuilder(2)
    b.update(0, "a1", 0.0, 1.0)
    b.update(0, "a2", 2.0, 3.0)
    # concurrent scan may see either prefix
    b.scan(1, 0.5, 2.5, {0: ("a1", 1)})
    assert order_check(b.done(), real_time=True).ok

    b2 = HistoryBuilder(2)
    b2.update(0, "a1", 0.0, 1.0)
    b2.update(0, "a2", 2.0, 3.0)
    b2.scan(1, 0.5, 2.5, {0: ("a2", 2)})
    assert order_check(b2.done(), real_time=True).ok


def phantom_history():
    """Writer 0 wrote once; the scan claims to have seen its 4th update."""
    b = HistoryBuilder(2)
    b.update(0, "a", 0.0, 1.0)
    sc = b.scan(1, 2.0, 3.0, {0: ("never-written", 4)})
    return b.done(), sc


@pytest.mark.parametrize("real_time", [True, False])
def test_phantom_update_is_a_verdict_not_a_crash(real_time):
    """A scan naming an update the history does not contain can be placed
    nowhere: not linearizable / not SC, and the scan is the culprit."""
    h, sc = phantom_history()
    result = order_check(h, real_time=real_time)
    assert not result.ok
    assert result.cycle == [sc.op_id]
    assert {v.condition for v in check_atomicity_conditions(h)} == {"legal"}


def test_internal_error_is_typed():
    assert issubclass(CheckerInternalError, RuntimeError)
    assert not issubclass(CheckerInternalError, AssertionError)


def test_large_failing_history_reports_a_cycle_without_recursion():
    """The cycle search walks predecessors iteratively: a rejection deep
    in a long per-node chain must not hit the recursion limit."""
    b = HistoryBuilder(2)
    t = 0.0
    for i in range(3000):
        b.update(0, i, t, t + 0.5)
        t += 1.0
    stale = b.scan(1, t, t + 1.0, {0: (0, 1)})  # misses 2999 completed updates
    result = order_check(b.done(), real_time=True)
    assert not result.ok
    assert stale.op_id in result.cycle

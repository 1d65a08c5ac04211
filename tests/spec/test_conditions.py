"""Tests for the (A0)-(A4) condition checker: one crafted violation per
condition at each level (``real_time=True`` and ``False``), plus clean
histories that must pass."""

import pytest
from hypothesis import given, settings

from repro.spec import order as spec_order
from repro.spec.brute import brute_force_linearizable
from repro.spec.conditions import check_atomicity_conditions
from repro.spec.linearize import LinearizationError, linearize
from repro.spec.order import CheckerInternalError, order_check
from tests.support import reference_checkers as ref

from .builders import HistoryBuilder
from .test_brute import histories


def conditions(history):
    return {v.condition for v in check_atomicity_conditions(history)}


def test_clean_history_passes(small_history):
    assert check_atomicity_conditions(small_history) == []


def test_sequential_updates_and_scans_pass():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.scan(1, 2.0, 3.0, {0: ("a", 1)})
    b.update(1, "b", 4.0, 5.0)
    b.scan(2, 6.0, 7.0, {0: ("a", 1), 1: ("b", 1)})
    assert check_atomicity_conditions(b.done()) == []


def test_a0_read_from_the_future():
    b = HistoryBuilder(2)
    sc = b.scan(1, 0.0, 1.0, {0: ("v", 1)})  # scan ends at t=1
    b.update(0, "v", 2.0, 3.0)  # update invoked after
    assert "A0" in conditions(b.done())


def test_a1_incomparable_bases():
    b = HistoryBuilder(4)
    b.update(0, "a", 0.0, 10.0)  # concurrent updates
    b.update(1, "b", 0.0, 10.0)
    b.scan(2, 0.0, 10.0, {0: ("a", 1)})  # sees only a
    b.scan(3, 0.0, 10.0, {1: ("b", 1)})  # sees only b
    assert "A1" in conditions(b.done())


def test_a2_missing_preceding_update():
    b = HistoryBuilder(2)
    b.update(0, "a", 0.0, 1.0)  # completed before the scan starts
    b.scan(1, 2.0, 3.0, {})  # ...but the scan misses it
    assert "A2" in conditions(b.done())


def test_a3_scan_bases_not_monotone():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 10.0)  # concurrent with both scans
    sc1 = b.scan(1, 1.0, 2.0, {0: ("a", 1)})  # first scan sees it
    sc2 = b.scan(2, 3.0, 4.0, {})  # later scan does not
    got = conditions(b.done())
    assert "A3" in got


def test_a4_base_not_closed_under_precedes():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)  # a precedes bb
    b.update(1, "bb", 2.0, 3.0)
    # scan concurrent with everything returns bb but not a
    b.scan(2, 2.5, 4.0, {1: ("bb", 1)})
    assert "A4" in conditions(b.done())


def test_prefix_violation_detected():
    b = HistoryBuilder(2)
    b.update(0, "a1", 0.0, 1.0)
    b.update(0, "a2", 2.0, 3.0)
    sc = b.scan(1, 4.0, 5.0, {0: ("a2", 2)})
    # sabotage the snapshot: remove the prefix element by rebuilding meta
    # (the builder's scan_base is prefix-closed by construction, so test
    # the checker's legality path instead: wrong value)
    b2 = HistoryBuilder(2)
    b2.update(0, "a1", 0.0, 1.0)
    sc2 = b2.scan(1, 2.0, 3.0, {0: ("WRONG", 1)})
    assert "legal" in conditions(b2.done())


def test_pending_update_visible_in_scan_is_allowed():
    """A crashed writer's value may appear: no A-violations arise from the
    update never responding."""
    b = HistoryBuilder(2)
    b.update(0, "ghostly", 0.0, None)  # pending forever
    b.scan(1, 5.0, 6.0, {0: ("ghostly", 1)})
    assert check_atomicity_conditions(b.done()) == []


# ----------------------------------------------------------------------
# same-node ties: a node invokes at the instant its previous op responded
# (chain_ops(gap=0)); program order must still count as precedence
# ----------------------------------------------------------------------


def assert_rejected_by_every_checker(history, condition):
    got = check_atomicity_conditions(history)
    assert condition in {v.condition for v in got}
    assert sorted(map(str, got)) == sorted(
        map(str, ref.check_atomicity_conditions(history))
    )
    assert not order_check(history, real_time=True).ok
    assert not brute_force_linearizable(history)
    with pytest.raises(LinearizationError):  # not CheckerInternalError
        linearize(history)


def test_a0_same_node_tie_own_update_is_not_from_the_future():
    b = HistoryBuilder(2)
    b.update(0, "a", 1.0, 1.0)  # instantaneous
    b.scan(0, 1.0, 1.0, {0: ("a", 1)})  # same node, same instant, sees it
    history = b.done()
    assert check_atomicity_conditions(history) == []
    assert ref.check_atomicity_conditions(history) == []
    assert brute_force_linearizable(history)
    assert [op.op_id for op in linearize(history)] == [0, 1]


def test_a0_cross_node_tie_is_concurrent_not_from_the_future():
    """Two nodes' clocks coincide: a scan responding at ``t`` may return
    another node's update invoked at exactly ``t`` (``sc → up`` needs
    ``t_resp < t_inv``, so the two are concurrent) — all four checkers
    accept, and ``linearize`` places the update before the scan."""
    b = HistoryBuilder(2)
    b.scan(0, 0.0, 1.0, {1: ("b", 1)})  # responds at 1.0 ...
    b.update(1, "b", 1.0, 2.0)  # ... the instant b is invoked
    history = b.done()
    assert check_atomicity_conditions(history) == []
    assert ref.check_atomicity_conditions(history) == []
    assert order_check(history, real_time=True).ok
    assert brute_force_linearizable(history)
    assert [op.op_id for op in linearize(history)] == [1, 0]
    # one tick later the update is from the future, for every checker
    b = HistoryBuilder(2)
    b.scan(0, 0.0, 1.0, {1: ("b", 1)})
    b.update(1, "b", 1.5, 2.0)
    assert_rejected_by_every_checker(b.done(), "A0")


def test_a2_same_node_tie_scan_misses_own_update():
    b = HistoryBuilder(2)
    b.update(0, "a", 0.0, 1.0)
    b.scan(0, 1.0, 2.0, {})  # invoked at the update's response time
    assert_rejected_by_every_checker(b.done(), "A2")


def test_a3_same_node_tie_scans_shrink():
    b = HistoryBuilder(2)
    b.update(1, "b", 0.0, 10.0)  # concurrent with both scans
    b.scan(0, 1.0, 2.0, {1: ("b", 1)})
    b.scan(0, 2.0, 3.0, {})  # same node, tied, sees less
    assert_rejected_by_every_checker(b.done(), "A3")


def test_a4_same_node_tie_adds_nothing():
    """Program order relates updates of one writer only, and a base is a
    per-writer prefix: the tie a → a2 can never open an (A4) gap, and a
    history with one is judged like any other."""
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.update(0, "a2", 1.0, 2.0)  # tied with a's response
    b.update(1, "b", 2.5, 3.0)  # a2 strictly precedes b
    b.scan(2, 0.0, 4.0, {0: ("a2", 2), 1: ("b", 1)})
    history = b.done()
    assert check_atomicity_conditions(history) == []
    assert ref.check_atomicity_conditions(history) == []
    assert brute_force_linearizable(history)
    assert [op.op_id for op in linearize(history)] == [0, 1, 2, 3]
    # ...and (A4) proper is still seen through the tie: b in, a2 out
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.update(0, "a2", 1.0, 2.0)
    b.update(1, "b", 2.5, 3.0)
    b.scan(2, 0.0, 4.0, {0: ("a", 1), 1: ("b", 1)})
    assert_rejected_by_every_checker(b.done(), "A4")


def test_brute_reads_program_order_off_recording_order():
    """Two zero-length operations of one node at one instant: only
    recording order tells them apart."""
    b = HistoryBuilder(2)
    b.update(0, "a", 1.0, 1.0)
    b.scan(0, 1.0, 1.0, {})  # misses the update it follows
    history = b.done()
    assert not brute_force_linearizable(history)
    assert not order_check(history, real_time=True).ok


# ----------------------------------------------------------------------
# real_time=False: "→" is program order only (Definition 2), and the same
# checker states the sequential-consistency conditions
# ----------------------------------------------------------------------


def sc_conditions(history):
    return {v.condition for v in check_atomicity_conditions(history, real_time=False)}


def assert_sc_verdict_names(history, condition):
    """``condition`` is violated at the SC level, and the failing SC
    verdict of ``order_check`` names the first violation found."""
    got = check_atomicity_conditions(history, real_time=False)
    assert condition in {v.condition for v in got}
    result = order_check(history, real_time=False)
    assert not result.ok
    assert result.condition == got[0]


def test_sc_clean_history_passes(small_history):
    assert check_atomicity_conditions(small_history, real_time=False) == []


def test_sc_stale_cross_node_read_passes():
    """The defining difference between the levels: a remote stale read
    violates (A2) in real time and nothing under program order."""
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)
    b.scan(1, 2.0, 3.0, {})
    history = b.done()
    assert conditions(history) == {"A2"}
    assert check_atomicity_conditions(history, real_time=False) == []


def test_sc_a1_incomparable_bases():
    b = HistoryBuilder(4)
    b.update(0, "a", 0.0, 10.0)
    b.update(1, "b", 0.0, 10.0)
    b.scan(2, 0.0, 10.0, {0: ("a", 1)})
    b.scan(3, 0.0, 10.0, {1: ("b", 1)})
    assert_sc_verdict_names(b.done(), "A1")


def test_sc_a2_own_update_missed():
    b = HistoryBuilder(2)
    b.update(0, "mine", 0.0, 1.0)
    b.scan(0, 2.0, 3.0, {})  # forgets its own write
    assert_sc_verdict_names(b.done(), "A2")


def test_sc_a3_own_scans_not_monotone():
    b = HistoryBuilder(3)
    b.update(1, "x", 0.0, 10.0)  # concurrent updater
    b.scan(0, 1.0, 2.0, {1: ("x", 1)})
    b.scan(0, 3.0, 4.0, {})  # shrinks
    assert_sc_verdict_names(b.done(), "A3")


def test_sc_a0_own_future_read():
    b = HistoryBuilder(2)
    b.scan(0, 0.0, 1.0, {0: ("later", 1)})  # reads its own future update
    b.update(0, "later", 2.0, 3.0)
    assert_sc_verdict_names(b.done(), "A0")


def test_sc_legal_wrong_value():
    b = HistoryBuilder(2)
    b.update(0, "real", 0.0, 1.0)
    b.scan(1, 2.0, 3.0, {0: ("fake", 1)})
    assert sc_conditions(b.done()) == {"legal"}


@settings(max_examples=150, deadline=None)
@given(histories())
def test_sc_conditions_are_tight(h):
    """The conditions at real_time=False hold iff the exact
    sequential-consistency decision procedure accepts (the
    machine-checked analogue of the tech report's tight-conditions
    theorem)."""
    cond_ok = check_atomicity_conditions(h, real_time=False) == []
    assert cond_ok == order_check(h, real_time=False).ok


def test_a_cycle_with_no_violated_condition_is_a_checker_bug(monkeypatch):
    """``order_check`` explains every failing verdict by a condition;
    an explainer that finds none contradicts Theorem 1 at run time."""
    b = HistoryBuilder(2)
    b.update(0, "a", 0.0, 1.0)
    b.scan(1, 2.0, 3.0, {})
    history = b.done()
    assert order_check(history, real_time=True).condition.condition == "A2"
    monkeypatch.setattr(spec_order, "iter_violations", lambda h, real_time: iter(()))
    with pytest.raises(CheckerInternalError, match="no condition of Theorem 1"):
        order_check(history, real_time=True)
    assert order_check(history, real_time=False).ok  # a pass never explains

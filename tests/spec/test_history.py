"""Unit tests for histories."""

import pytest

from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.spec.base import UpdateIndex
from repro.spec.history import SCAN, UPDATE, History


def test_invoke_assigns_useq_per_writer():
    h = History(2)
    u1 = h.invoke(0, UPDATE, ("a",), 0.0)
    h.respond(u1, 1.0, "ACK")
    u2 = h.invoke(0, UPDATE, ("b",), 2.0)
    h.respond(u2, 3.0, "ACK")
    u3 = h.invoke(1, UPDATE, ("c",), 2.0)
    assert (u1.useq, u2.useq, u3.useq) == (1, 2, 1)
    assert u1.uid() == (0, 1) and u2.uid() == (0, 2)


def test_scan_has_no_uid():
    h = History(1)
    sc = h.invoke(0, SCAN, (), 0.0)
    with pytest.raises(ValueError):
        sc.uid()


def test_overlapping_ops_at_one_node_rejected():
    h = History(1)
    h.invoke(0, UPDATE, ("a",), 0.0)
    with pytest.raises(ValueError, match="pending"):
        h.invoke(0, SCAN, (), 0.5)


def test_response_before_invocation_rejected():
    h = History(1)
    op = h.invoke(0, UPDATE, ("a",), 5.0)
    with pytest.raises(ValueError):
        h.respond(op, 4.0, "ACK")


def test_double_response_rejected():
    h = History(1)
    op = h.invoke(0, UPDATE, ("a",), 0.0)
    h.respond(op, 1.0, "ACK")
    with pytest.raises(ValueError):
        h.respond(op, 2.0, "ACK")


def test_abort_allows_next_op_never():
    """An aborted (crashed) op frees nothing — the node is dead — but the
    history no longer counts it as pending for bookkeeping."""
    h = History(1)
    op = h.invoke(0, UPDATE, ("a",), 0.0)
    h.abort(op)
    assert not op.complete
    assert h.ops == [op]
    h.invoke(0, SCAN, (), 1.0)  # bookkeeping only: nothing is pending


def test_precedes_relation():
    h = History(2)
    a = h.invoke(0, UPDATE, ("a",), 0.0)
    h.respond(a, 1.0, "ACK")
    b = h.invoke(1, UPDATE, ("b",), 2.0)
    h.respond(b, 3.0, "ACK")
    assert History.precedes(a, b)
    assert not History.precedes(b, a)


def test_pending_precedes_nothing():
    h = History(2)
    a = h.invoke(0, UPDATE, ("a",), 0.0)
    b = h.invoke(1, UPDATE, ("b",), 5.0)
    assert not History.precedes(a, b)


def test_update_registry_includes_pending():
    """The checkers' per-writer update table keeps a pending update: a
    crashed writer's value may still surface in scans."""
    h = History(1)
    a = h.invoke(0, UPDATE, ("a",), 0.0)
    assert UpdateIndex(h).ops == [[a]]


def test_snapshot_accessor():
    h = History(1)
    sc = h.invoke(0, SCAN, (), 0.0)
    vt = ValueTs("x", Timestamp(1, 0), 1)
    h.respond(sc, 1.0, Snapshot(values=("x",), meta=(vt,)))
    assert sc.snapshot().values == ("x",)
    up = h.invoke(0, UPDATE, ("y",), 2.0)
    h.respond(up, 3.0, "ACK")
    with pytest.raises(ValueError):
        up.snapshot()


def test_validate_well_formed_catches_overlap():
    h = History(1)
    # sneak an overlap past the invoke guard by mutating records
    a = h.invoke(0, UPDATE, ("a",), 0.0)
    h.respond(a, 5.0, "ACK")
    b = h.invoke(0, UPDATE, ("b",), 6.0)
    h.respond(b, 7.0, "ACK")
    b.t_inv = 1.0  # force overlap
    with pytest.raises(ValueError, match="overlap"):
        h.validate_well_formed()


def test_respond_rejects_a_snapshot_of_the_wrong_width():
    """A scan result must have one segment per node; a short one used to
    reach the checkers (IndexError in validate_serialization, a silent
    all-clear from check_atomicity_conditions)."""
    h = History(3)
    sc = h.invoke(0, SCAN, (), 0.0)
    vt = ValueTs("x", Timestamp(1, 0), 1)
    with pytest.raises(ValueError, match="2 segments"):
        h.respond(sc, 1.0, Snapshot(values=("x", None), meta=(vt, None)))
    assert not sc.complete  # the rejected response left no trace


def test_validate_well_formed_requires_recording_in_program_order():
    h = History(1)
    a = h.invoke(0, UPDATE, ("a",), 5.0)
    h.respond(a, 6.0, "ACK")
    b = h.invoke(0, UPDATE, ("b",), 1.0)  # recorded second, timed first
    h.respond(b, 2.0, "ACK")
    with pytest.raises(ValueError, match="overlap"):
        h.validate_well_formed()


def test_validate_well_formed_pending_op_must_be_last():
    h = History(1)
    a = h.invoke(0, UPDATE, ("a",), 0.0)
    h.abort(a)
    b = h.invoke(0, UPDATE, ("b",), 9.0)
    h.respond(b, 10.0, "ACK")
    with pytest.raises(ValueError, match="overlap"):
        h.validate_well_formed()

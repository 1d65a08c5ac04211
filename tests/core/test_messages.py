"""Interned message construction (:mod:`repro.core.messages`)."""

from __future__ import annotations

import pickle

import repro.core.messages as messages
from repro.core.messages import (
    PACKED_INTERN_MAX,
    MEchoTag,
    MReadAck,
    MWriteTag,
)
from repro.sim.fastpath import STATS
from tests.support.reference_substrate import reference_substrate


def test_fast_path_interns_repeated_constructions():
    a = MWriteTag(3, 7)
    b = MWriteTag(3, 7)
    assert a is b
    assert a == b and a.tag == 3 and a.reqid == 7


def test_instances_are_always_the_dataclass():
    # exact-type dispatch (match statements, type(payload) tables) must
    # see the public class, interned or (under the oracle patch) fresh
    assert type(MWriteTag(1, 2)) is MWriteTag
    with reference_substrate():
        assert type(MWriteTag(1, 2)) is MWriteTag


def test_different_kinds_with_equal_fields_stay_distinct():
    assert MWriteTag(1, 2) != MReadAck(1, 2)
    assert MWriteTag(1, 2) is not MReadAck(1, 2)


def test_slow_path_constructs_fresh_instances():
    """The oracle patch (plain dataclass construction, historically the
    "slow path") really does bypass the intern table."""
    with reference_substrate():
        a = MEchoTag(5)
        b = MEchoTag(5)
    assert a == b
    assert a is not b
    assert MEchoTag(5) is MEchoTag(5)  # interning is back outside the block


def test_keyword_construction_bypasses_the_intern_table():
    a = MWriteTag(tag=3, reqid=7)
    b = MWriteTag(tag=3, reqid=7)
    assert a == b
    assert a is not b
    assert a == MWriteTag(3, 7)


def test_intern_hits_are_counted():
    MEchoTag(123456)  # first construction populates the table
    before = STATS.messages_packed
    MEchoTag(123456)
    assert STATS.messages_packed == before + 1


def test_intern_table_is_bounded():
    messages._intern.clear()
    for tag in range(PACKED_INTERN_MAX + 10):
        MEchoTag(tag)
    assert len(messages._intern) <= PACKED_INTERN_MAX


def test_interned_messages_pickle_round_trip():
    msg = MWriteTag(3, 7)
    clone = pickle.loads(pickle.dumps(msg))
    assert clone == msg
    assert type(clone) is MWriteTag

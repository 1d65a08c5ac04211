"""Unit tests for Byzantine shells and behaviours."""

from repro.core.byz_aso import ByzantineAso
from repro.core.messages import (
    MEchoTag,
    MReadAck,
    MReadTag,
    MWriteAck,
    MWriteTag,
)
from repro.net.byzantine import (
    AckForger,
    ByzantineBehavior,
    ByzantineShell,
    Silent,
    TagFlooder,
    byzantine_factory,
)
from repro.runtime.cluster import Cluster


def test_factory_mixes_honest_and_byzantine():
    factory = byzantine_factory(ByzantineAso, {2: Silent()})
    cluster = Cluster(factory, n=4, f=1)
    assert isinstance(cluster.node(2), ByzantineShell)
    assert isinstance(cluster.node(0), ByzantineAso)


def test_silent_sends_nothing():
    shell = ByzantineShell(0, 4, 1, Silent())
    shell.on_message(1, MWriteTag(3, 1))
    assert not shell.outbox


def test_tag_flooder_fires_with_budget():
    flooder = TagFlooder(inflation=5, budget=1)
    shell = ByzantineShell(0, 4, 1, flooder)
    shell.on_message(1, MWriteTag(2, 1))
    assert len(shell.outbox) == 1  # fired once
    payload = shell.outbox[0][0]
    assert isinstance(payload, MEchoTag) and payload.tag == 7
    shell.outbox.clear()
    shell.on_message(1, MWriteTag(3, 2))
    assert not shell.outbox  # budget exhausted


def test_tag_flooder_ignores_other_messages():
    shell = ByzantineShell(0, 4, 1, TagFlooder())
    shell.on_message(1, MReadTag(1))
    assert not shell.outbox


def test_ack_forger_inflates_read_acks():
    shell = ByzantineShell(0, 4, 1, AckForger(inflation=9))
    shell.on_message(2, MReadTag(5))
    [(payload, dst)] = shell.outbox
    assert dst == 2
    assert isinstance(payload, MReadAck)
    assert payload.tag == 9 and payload.reqid == 5
    # a right-kind forgery does land in the victim's open readTag round
    # (one voice among n - f; the tag sub-protocol tolerates inflation)
    victim = ByzantineAso(2, 4, 1)
    gen = victim._read_tag()
    gen.send(None)  # opens round reqid 1
    victim.on_message(0, MReadAck(9, reqid=1))
    assert victim._rounds[MReadTag] == {1: {0: 9}}


class KindSwapper(ByzantineBehavior):
    """Answers every readTag with a *writeAck* naming the same reqid and
    every writeTag with a *readAck* — replies of the wrong kind carrying
    a live key."""

    def on_message(self, shell, src, msg):
        if isinstance(msg, MReadTag):
            shell.send(src, MWriteAck(0, msg.reqid))
        elif isinstance(msg, MWriteTag):
            shell.send(src, MReadAck(99, msg.reqid))


def test_wrong_kind_reply_is_not_filed_in_an_open_round():
    """One round table, two kinds sharing the reqid counter: a writeAck
    naming a live readTag reqid must neither count toward the read
    quorum nor plant a ``None`` that ``max(acks.values())`` chokes on."""
    node = ByzantineAso(0, 4, 1)
    gen = node._read_tag()
    gen.send(None)  # opens readTag round reqid 1
    for src in (1, 2, 3):
        node.on_message(src, MWriteAck(0, reqid=1))
    assert node._rounds[MReadTag] == {1: {}} and node.garbage_dropped == 0
    node.on_message(0, MReadAck(2, reqid=1))
    node.on_message(1, MReadAck(5, reqid=1))
    assert node._rounds[MReadTag][1] == {0: 2, 1: 5}  # still short of n - f
    node.on_message(2, MReadAck(3, reqid=1))
    try:
        gen.send(None)
    except StopIteration as stop:
        assert stop.value == 5
    else:  # pragma: no cover
        raise AssertionError("readTag round did not complete on 3 real acks")
    # and the converse: readAcks naming a live writeTag reqid
    gen = node._write_tag(7)
    gen.send(None)  # opens writeTag round reqid 2
    for src in (1, 2, 3):
        node.on_message(src, MReadAck(99, reqid=2))
    assert node._rounds[MWriteTag] == {2: {}}


def test_kind_swapping_node_neither_completes_nor_crashes_honest_rounds():
    from repro.spec import is_linearizable

    factory = byzantine_factory(ByzantineAso, {3: KindSwapper()})
    cluster = Cluster(factory, n=4, f=1)
    handles = cluster.run_ops(
        [
            (0.0, 0, "update", ("a",)),
            (0.0, 1, "update", ("b",)),
            (0.5, 2, "scan", ()),
            (9.0, 2, "scan", ()),
        ]
    )
    assert all(h.done for h in handles)
    assert handles[3].result.values[:2] == ("a", "b")
    assert is_linearizable(cluster.history)


def test_send_to_each_equivocation_helper():
    shell = ByzantineShell(0, 4, 1, Silent())
    shell.send_to_each({1: "x", 2: "y"})
    assert list(shell.outbox) == [("x", 1), ("y", 2)]

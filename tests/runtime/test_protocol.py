"""Unit tests for the sans-io protocol base class."""

import pytest

from repro.runtime.protocol import ProtocolNode, WaitUntil


class Echo(ProtocolNode):
    def on_message(self, src, payload):
        self.send(src, ("echo", payload))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Echo(5, 3, 1)  # node_id out of range
    with pytest.raises(ValueError):
        Echo(0, 3, -1)  # negative f
    with pytest.raises(ValueError):
        Echo(0, 0, 0)  # empty system


def test_quorum_size():
    assert Echo(0, 7, 3).quorum_size == 4


def test_send_queues_to_outbox():
    node = Echo(0, 3, 1)
    node.send(2, "m")
    assert list(node.outbox) == [("m", 2)]  # (payload, destination)


def test_broadcast_includes_self_by_default():
    node = Echo(1, 3, 1)
    node.broadcast("m")
    assert list(node.outbox) == [("m", (0, 1, 2))]  # (payload, destinations)


def test_broadcast_exclude_self():
    node = Echo(1, 3, 1)
    node.broadcast("m", include_self=False)
    assert list(node.outbox) == [("m", (0, 2))]


def test_default_ops_not_implemented():
    node = Echo(0, 3, 1)
    with pytest.raises(NotImplementedError):
        node.update("x")
    with pytest.raises(NotImplementedError):
        node.scan()


def test_wait_until_holds_predicate_and_description():
    w = WaitUntil(lambda: True, "demo")
    assert w.predicate() and w.description == "demo"
    assert w.replies is None  # a plain wait: the runtime calls the predicate


def test_a_quorum_wait_carries_its_live_replies_and_need():
    """The runtime tests a round's wait as ``len(replies) >= need``; that
    must say what the predicate says, reply by reply."""
    node = Echo(0, 5, 2)
    round_ = node.quorum_round("k", "ping", "ping quorum")
    wait = next(round_)
    assert wait.need == 3 and wait.replies == {} and wait.description == "ping quorum"
    for src in range(5):
        assert (len(wait.replies) >= wait.need) == wait.predicate()
        node.round_reply(str, "k", src)
    assert wait.replies == dict.fromkeys(range(5)) and wait.predicate()

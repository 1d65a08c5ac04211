"""The typed handler table of :class:`repro.runtime.protocol.ProtocolNode`:
``type(payload) -> method``, built once per class from ``@handles`` marks.

- every algorithm's table covers every kind of message its nodes are
  ever delivered;
- an unregistered payload is a ``TypeError`` naming the node and the
  message;
- tables are per class: re-registering a kind in a subclass replaces
  that kind there and nowhere else;
- ``on_message`` stays the entry point, so a node that overrides it
  never touches the table.
"""

from dataclasses import dataclass

import pytest

from repro.chaos.algos import CAMPAIGN_ALGOS
from repro.core import ByzantineAso, EarlyStoppingLA, EqAso, OneShotAso
from repro.core.messages import (
    MEchoTag,
    MGoodLA,
    MReadAck,
    MReadTag,
    MValue,
    MWriteAck,
    MWriteTag,
)
from repro.net.delays import UniformDelay
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import ProtocolNode, WaitUntil, handles
from repro.sim.rng import SeededRng

SNAPSHOT_OPS = [("update", ("a",)), ("scan", ()), ("update", ("b",)), ("scan", ())]
ALGORITHMS = [profile.factory for profile in CAMPAIGN_ALGOS.values()] + [
    OneShotAso,
    EarlyStoppingLA,
    ByzantineAso,
]


def _delivered_kinds(factory) -> tuple[Cluster, set[type]]:
    """Run a small jittered episode; return the payload types delivered."""
    n, f = 4, 1
    if factory is EarlyStoppingLA:
        ops = [("propose", ((f"x{node}",),)) for node in range(n)]
        per_node = [[op] for op in ops]
    elif factory is OneShotAso:
        per_node = [[("update", (f"v{node}",)), ("scan", ())] for node in range(n)]
    else:
        per_node = [SNAPSHOT_OPS for _ in range(n)]
    cluster = Cluster(
        factory,
        n=n,
        f=f,
        delay_model=UniformDelay(1.0, SeededRng(7), lo=0.1, hi=1.0),
        record_net_trace=True,
    )
    handles_ = [h for node in range(n) for h in cluster.chain_ops(node, per_node[node])]
    cluster.run_until_complete(handles_)
    assert all(h.done for h in handles_)
    return cluster, {type(rec.payload) for rec in cluster.network.trace}


@pytest.mark.parametrize("factory", ALGORITHMS, ids=lambda a: a.__name__)
def test_every_delivered_kind_has_a_handler(factory):
    cluster, kinds = _delivered_kinds(factory)
    assert kinds
    table = factory._handlers
    if factory is ByzantineAso:
        # the validating envelope takes RBC and the Byzantine kinds; the
        # tag sub-protocol goes through the inherited table
        assert {MWriteTag, MWriteAck, MEchoTag, MReadTag, MReadAck} <= kinds
        assert all(node.garbage_dropped == 0 for node in cluster.nodes)
        kinds &= set(EqAso._handlers)
        assert MValue not in kinds and MGoodLA not in kinds
    assert kinds <= set(table)
    for kind in kinds:  # entries are plain functions of the class
        assert table[kind] is getattr(factory, table[kind].__name__)


def test_no_crash_model_algorithm_overrides_on_message():
    for factory in ALGORITHMS:
        overrides = factory.on_message is not ProtocolNode.on_message
        assert overrides == (factory is ByzantineAso), factory


@dataclass(frozen=True, slots=True)
class MPing:
    nonce: int


@dataclass(frozen=True, slots=True)
class MPong:
    nonce: int


@dataclass(frozen=True, slots=True)
class MStray:
    nonce: int


class Base(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.log = []

    @handles(MPing)
    def _on_ping(self, src, m):
        self.log.append(("base-ping", m.nonce))

    @handles(MPong)
    def _on_pong(self, src, m):
        self.log.append(("base-pong", m.nonce))


class Reregisters(Base):
    @handles(MPing)
    def _louder_ping(self, src, m):
        self.log.append(("sub-ping", m.nonce))


class OverridesByName(Base):
    def _on_pong(self, src, m):  # no mark: the name is the registration
        self.log.append(("named-pong", m.nonce))


class Mixin:
    @handles(MStray)
    def _on_stray(self, src, m):
        self.log.append(("mixin-stray", m.nonce))


class WithMixin(Mixin, Base):
    pass


def _log_of(cls):
    node = cls(0, 3, 1)
    for payload in (MPing(1), MPong(2)):
        node.on_message(1, payload)
    return node.log


def test_unregistered_payload_raises_naming_node_and_message():
    with pytest.raises(TypeError) as err:
        Base(0, 3, 1).on_message(1, MStray(9))
    assert str(err.value) == "Base got unknown message MStray(nonce=9)"
    with pytest.raises(TypeError, match="EqAso got unknown message 'garbage'"):
        EqAso(0, 3, 1).on_message(1, "garbage")


def test_reregistering_one_kind_replaces_only_that_kind():
    assert _log_of(Base) == [("base-ping", 1), ("base-pong", 2)]
    assert _log_of(Reregisters) == [("sub-ping", 1), ("base-pong", 2)]
    assert Reregisters._handlers[MPong] is Base._handlers[MPong]


def test_tables_are_per_class_and_the_parent_is_not_mutated():
    assert Base._handlers is not Reregisters._handlers
    assert Base._handlers[MPing] is Base.__dict__["_on_ping"]
    assert set(Base._handlers) == {MPing, MPong}
    # the base class of everything holds no entries to leak into
    assert ProtocolNode._handlers == {}
    # ... and defining the subclasses above left the parent as it was
    assert _log_of(Base) == [("base-ping", 1), ("base-pong", 2)]


def test_overriding_a_registered_method_overrides_the_handler():
    assert _log_of(OverridesByName) == [("base-ping", 1), ("named-pong", 2)]


def test_mixin_marks_are_collected_along_the_mro():
    assert set(WithMixin._handlers) == {MPing, MPong, MStray}
    node = WithMixin(0, 3, 1)
    node.on_message(2, MStray(5))
    assert node.log == [("mixin-stray", 5)]


class OnMessageOnly(ProtocolNode):
    """The shape of the ledger's ``NoopNode`` and of
    ``test_driver_parity.Scripted``: one ``on_message``, no table."""

    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.pongs = set()

    def ping(self):
        self.phase_enter("ping")
        self.broadcast(MPing(1))
        yield WaitUntil(lambda: len(self.pongs) >= self.quorum_size, "pongs")
        self.phase_exit("ping")
        return sorted(self.pongs)

    def on_message(self, src, payload):
        if type(payload) is MPing:
            self.send(src, MPong(payload.nonce))
        else:
            self.pongs.add(src)


def test_a_node_that_overrides_on_message_needs_no_table():
    assert OnMessageOnly._handlers == {}
    cluster = Cluster(OnMessageOnly, n=3, f=1)
    handle = cluster.invoke(0, "ping")
    cluster.run_until_complete([handle])
    assert handle.done and len(handle.result) >= 2

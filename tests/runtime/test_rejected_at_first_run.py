"""Defects one execution decides are rejected by the substrate, with a
typed error, the first time they run.

The node classes are the bad fixtures of the retired static rules RL007
(dead letters), RL008 (message field conformance) and RL010
(unsatisfiable waits).  None needs a rule: an unregistered kind is the
``TypeError`` of ``ProtocolNode.on_message``, frozen slotted dataclasses
raise on arity and field drift, and the simulator raises ``StuckError``
naming the parked wait.  (A handler nothing sends to is dead code, not a
failure; ``test_handler_coverage.py`` compares table and delivered kinds
exactly, and the last test here shows that comparison catching it.)
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster, StuckError
from repro.runtime.protocol import ProtocolNode, WaitUntil, handles


def _run(factory, opname: str) -> None:
    cluster = Cluster(factory, n=3, f=1)
    cluster.run_until_complete([cluster.invoke(0, opname)])


# -- dead letter (and dead handler) ----------------------------------------


@dataclass(frozen=True, slots=True)
class MEcho:
    origin: int


@dataclass(frozen=True, slots=True)
class MOrphan:
    origin: int


@dataclass(frozen=True, slots=True)
class MGhost:
    origin: int


class LeakyTableNode(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.echoes = set()

    def ping(self):
        self.phase_enter("ping")
        self.broadcast(MEcho(self.node_id))
        self.broadcast(MOrphan(self.node_id))  # dead letter
        yield WaitUntil(lambda: len(self.echoes) >= self.quorum_size, "echo quorum")
        self.phase_exit("ping")

    @handles(MEcho)
    def _on_echo(self, src: int, m: MEcho) -> None:
        self.echoes.add(m.origin)

    @handles(MGhost)  # dead handler: nothing sends MGhost
    def _on_ghost(self, src: int, m: MGhost) -> None:
        self.echoes.add(m.origin)


DEAD_LETTER = r"LeakyTableNode got unknown message MOrphan\(origin=0\)"


def test_dead_letter_is_a_type_error_at_its_first_delivery():
    with pytest.raises(TypeError, match=DEAD_LETTER):
        _run(LeakyTableNode, "ping")


def test_dead_letter_surfaces_at_the_caller_on_the_asyncio_runtime():
    async def main():
        cluster = AioCluster(LeakyTableNode, 3, 1, mean_delay=0)
        with pytest.raises(TypeError, match=DEAD_LETTER):
            await cluster.call(0, "ping")
        with pytest.raises(TypeError, match=DEAD_LETTER):
            await cluster.shutdown()

    asyncio.run(asyncio.wait_for(main(), timeout=20))


def test_dead_handler_is_a_table_entry_no_run_delivers():
    cluster = Cluster(LeakyTableNode, n=3, f=1, record_net_trace=True)
    with pytest.raises(TypeError, match=DEAD_LETTER):
        cluster.run_until_complete([cluster.invoke(0, "ping")])
    delivered = {type(rec.payload) for rec in cluster.network.trace}
    assert set(LeakyTableNode._handlers) - delivered == {MGhost}


# -- message field drift -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class MTagged:
    tag: int
    reqid: int


class DriftNode(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.latest = 0

    def too_many_positionals(self):
        self.broadcast(MTagged(1, 2, 3))

    def unknown_keyword(self):
        self.broadcast(MTagged(tag=1, epoch=9))

    def poke(self):
        self.phase_enter("poke")
        self.broadcast(MTagged(1, 2))
        yield WaitUntil(lambda: self.latest > 0, "a tagged message")
        self.phase_exit("poke")


class ReadsMissingField(DriftNode):
    def on_message(self, src, payload):
        if isinstance(payload, MTagged):
            self.latest = payload.epoch  # no such field


class CapturesThreeOfTwo(DriftNode):
    def on_message(self, src, payload):
        match payload:
            case MTagged(tag, reqid, extra):  # 3 positionals, 2 fields
                self.latest = tag + reqid + extra


@pytest.mark.parametrize(
    "factory, opname, error, text",
    [
        (DriftNode, "too_many_positionals", TypeError, "takes 3 positional arguments"),
        (DriftNode, "unknown_keyword", TypeError, "unexpected keyword argument 'epoch'"),
        (ReadsMissingField, "poke", AttributeError, "no attribute 'epoch'"),
        (CapturesThreeOfTwo, "poke", TypeError, "accepts 2 positional sub-patterns"),
    ],
    ids=["positionals", "keyword", "field-read", "match-captures"],
)
def test_field_drift_raises_where_it_first_executes(factory, opname, error, text):
    with pytest.raises(error, match=text):
        _run(factory, opname)


# -- unsatisfiable waits -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class MNote:
    origin: int


class StuckNode(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.acks = set()
        self.notes = set()

    def stuck(self):
        self.phase_enter("stuck")
        self.broadcast(MNote(self.node_id))
        yield WaitUntil(lambda: len(self.acks) >= self.quorum_size, "ack quorum")
        self.phase_exit("stuck")

    def halt(self):
        self.phase_enter("halt")
        yield WaitUntil(lambda: False, "constant false")
        self.phase_exit("halt")

    @handles(MNote)
    def _on_note(self, src: int, m: MNote) -> None:
        self.notes.add(m.origin)  # wrong set: acks never filled


@pytest.mark.parametrize(
    "opname, description",
    [("stuck", "ack quorum"), ("halt", "constant false")],
    ids=["never-filled-state", "constant-false"],
)
def test_unsatisfiable_wait_is_a_stuck_error_naming_the_wait(opname, description):
    with pytest.raises(StuckError, match=f"{opname}.* stuck on: {description}"):
        _run(StuckNode, opname)

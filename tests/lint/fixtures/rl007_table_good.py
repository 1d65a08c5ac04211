# lint fixture: RL007-clean, handler-table form — every sent message
# type has a registered handler and every registered handler a sender.
from dataclasses import dataclass

from repro.runtime.protocol import ProtocolNode, WaitUntil, handles


@dataclass(frozen=True, slots=True)
class MReq:
    origin: int


@dataclass(frozen=True, slots=True)
class MAck:
    origin: int


class PairedTableNode(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.acks = set()

    def round_trip(self):
        self.phase_enter("round")
        self.broadcast(MReq(self.node_id))
        yield WaitUntil(
            lambda: len(self.acks) >= self.quorum_size, "ack quorum"
        )
        self.phase_exit("round")

    @handles(MReq)
    def _on_req(self, src: int, m: MReq) -> None:
        self.send(m.origin, MAck(self.node_id))

    @handles(MAck)
    def _on_ack(self, src: int, m: MAck) -> None:
        self.acks.add(m.origin)

# lint fixture: RL007 violations, handler-table form — a dead letter
# (MOrphan is sent but no handler is registered for it) and a dead
# handler (nothing sends MGhost).  MEcho is properly paired.
from dataclasses import dataclass

from repro.runtime.protocol import ProtocolNode, WaitUntil, handles


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
        yield WaitUntil(
            lambda: len(self.echoes) >= self.quorum_size, "echo quorum"
        )
        self.phase_exit("ping")

    @handles(MEcho)
    def _on_echo(self, src: int, m: MEcho) -> None:
        self.echoes.add(m.origin)

    @handles(MGhost)  # dead handler: nothing sends MGhost
    def _on_ghost(self, src: int, m: MGhost) -> None:
        self.echoes.add(m.origin)

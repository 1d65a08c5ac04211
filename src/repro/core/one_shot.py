"""The one-shot ASO of Sec. III-C ("One-Shot ASO based on Equivalence
Quorum").

Each node invokes at most one UPDATE.  An UPDATE sends its value to all and
waits for ``n − f`` acknowledgements; every node forwards each value the
first time it sees it; a SCAN waits for the *unrestricted* equivalence
quorum predicate ``EQ(V, i)`` and returns the extraction of the
equivalence set.  This is the object Figure 2 illustrates, and it is also
the computational core of the early-stopping lattice agreement algorithm
(:mod:`repro.core.lattice_agreement` subclasses the same machinery).
"""

from __future__ import annotations

from collections.abc import Set
from typing import Any

from repro.core.messages import MValue, MValueAck
from repro.core.tags import Timestamp, ValueTs, extract
from repro.core.views import ViewVector
from repro.runtime.protocol import OpGen, ProtocolNode, WaitUntil, handles


class OneShotAso(ProtocolNode):
    """One-shot atomic snapshot object (Sec. III-C).

    Requires ``n > 2f``.  Raises if a node updates twice (the multi-shot
    object, :class:`repro.core.eq_aso.EqAso`, lifts that restriction).
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"one-shot ASO requires n > 2f (n={n}, f={f})")
        self.V = ViewVector(n)
        self._updated = False

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def update(self, value: Any) -> OpGen:
        """UPDATE(v): send the value to all, await an ack quorum."""
        if self._updated:
            raise RuntimeError("one-shot ASO: node already updated")
        self._updated = True
        vt = ValueTs(value, Timestamp(1, self.node_id), useq=1)
        self.phase_enter("value-ack")
        yield from self.quorum_round(
            vt, MValue(vt), f"one-shot update ack quorum for {vt!r}"
        )
        self.phase_exit("value-ack")
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN(): wait for EQ(V, i), return extract(equivalence set)."""
        holder: list[Set[ValueTs]] = []

        def pred() -> bool:
            hit = self.V.eq_predicate(self.node_id, self.f)
            if hit is None:
                return False
            holder.append(hit[1])
            return True

        self.phase_enter("eq-wait")
        yield WaitUntil(pred, f"EQ(V, {self.node_id})")
        self.phase_exit("eq-wait")
        return extract(holder[-1], self.n)

    # ------------------------------------------------------------------
    # server thread
    # ------------------------------------------------------------------
    @handles(MValue)
    def _on_value(self, src: int, m: MValue) -> None:
        vt = m.vt
        # forward once: on first receipt, unless it is our own broadcast
        if self.V.learn(src, self.node_id, vt) and src != self.node_id:
            self.broadcast(m)
        # ack the *writer* so its update can complete
        if vt.writer != self.node_id:
            self.send(vt.writer, MValueAck(vt))
        else:
            self.round_reply(MValue, vt, self.node_id)

    @handles(MValueAck)
    def _on_value_ack(self, src: int, m: MValueAck) -> None:
        self.round_reply(MValue, m.vt, src)


__all__ = ["OneShotAso"]

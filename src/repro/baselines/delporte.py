"""Baseline [19]: Delporte-Gallet, Fauconnier, Rajsbaum & Raynal (TPDS'18),
"Implementing snapshot objects on top of crash-prone asynchronous
message-passing systems" — the first *direct* message-passing ASO.

Structure (faithful to their design, constants simplified):

- every node replicates the segment array ``REG[j] = (seq, value)``;
- **UPDATE(v)**: increment the own sequence number, broadcast the write,
  wait for ``n − f`` acknowledgements — one round trip, ``O(D)``;
- **SCAN**: repeated *collects* — broadcast a query, each replica answers
  with its entire ``REG`` (after merging the scanner's current view, which
  makes replica state monotone); the scan returns when ``n − f`` replicas
  answer with a state **identical** to the scanner's current merged view.
  This identical-quorum confirmation is the pull-based counterpart of the
  equivalence quorum and is what makes the returned views of any two
  scans comparable: the two confirmation quorums intersect in a replica
  whose state is monotone, so one view is a prefix of the other.

Each concurrent UPDATE can invalidate a confirmation round, so a scan
takes up to ``O(c)`` rounds with ``c`` concurrent updates — the paper's
``O(n·D)`` worst case (``c ≤ n`` with sequential nodes).  The contrast
with EQ-ASO is the paper's motivating observation (Sec. III-C): pull-based
double-collect pays per-interference rounds; push-based forwarding does
not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.runtime.protocol import OpGen, ProtocolNode, handles

# a replica's segment array: tuple of (seq, value) with seq 0 = ⊥
SegArray = tuple[tuple[int, Any], ...]


@dataclass(frozen=True, slots=True)
class MWrite:
    writer: int
    seq: int
    value: Any


@dataclass(frozen=True, slots=True)
class MWriteAckD:
    writer: int
    seq: int


@dataclass(frozen=True, slots=True)
class MCollect:
    """Scanner's query; carries the scanner's merged view so replicas
    converge toward it (keeps replica state monotone and confirmable)."""

    reqid: int
    view: SegArray


@dataclass(frozen=True, slots=True)
class MCollectAck:
    reqid: int
    view: SegArray


def _merge(a: SegArray, b: SegArray) -> SegArray:
    """Pointwise max-by-seq merge of two segment arrays."""
    return tuple(x if x[0] >= y[0] else y for x, y in zip(a, b))


def _to_snapshot(view: Iterable[tuple[int, Any]]) -> Snapshot:
    """A segment array as the :class:`Snapshot` a SCAN returns (shared by
    every per-writer ``(seq, value)`` algorithm: [19], [BFK24], [IMPR16]
    and the SCD-broadcast snapshot)."""
    meta = []
    values = []
    for j, (seq, value) in enumerate(view):
        if seq == 0:
            meta.append(None)
            values.append(None)
        else:
            meta.append(ValueTs(value, Timestamp(seq, j), useq=seq))
            values.append(value)
    return Snapshot(values=tuple(values), meta=tuple(meta))


class DelporteAso(ProtocolNode):
    """Crash-tolerant ASO in the style of [19] (``n > 2f``)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"Delporte ASO requires n > 2f (n={n}, f={f})")
        self.reg: SegArray = tuple((0, None) for _ in range(n))
        self._seq = 0
        self._reqids = itertools.count(1)
        self.collect_rounds = 0  # instrumentation: scan round count

    # ------------------------------------------------------------------
    def update(self, value: Any) -> OpGen:
        """UPDATE(v): one write round trip — O(D)."""
        self._seq += 1
        seq = self._seq
        self.phase_enter("write")
        yield from self.quorum_round(
            (self.node_id, seq),
            MWrite(self.node_id, seq, value),
            f"delporte write ack quorum (seq {seq})",
        )
        self.phase_exit("write")
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN(): collect until n−f replicas confirm the exact view."""
        self.phase_enter("stable-collect")
        while True:
            self.collect_rounds += 1
            reqid = next(self._reqids)
            query_view = self.reg
            acks = yield from self.quorum_round(
                reqid,
                MCollect(reqid, query_view),
                f"delporte collect quorum (req {reqid})",
            )
            confirmations = sum(1 for v in acks.values() if v == query_view)
            # merge everything we learned (monotone local view)
            for v in acks.values():
                self.reg = _merge(self.reg, v)
            if confirmations >= self.quorum_size and self.reg == query_view:
                self.phase_exit("stable-collect")
                return _to_snapshot(query_view)
            # else: a concurrent update moved the object; go around again

    # ------------------------------------------------------------------
    @handles(MWrite)
    def _on_write(self, src: int, m: MWrite) -> None:
        if m.seq > self.reg[m.writer][0]:
            reg = list(self.reg)
            reg[m.writer] = (m.seq, m.value)
            self.reg = tuple(reg)
        self.send(src, MWriteAckD(m.writer, m.seq))

    @handles(MWriteAckD)
    def _on_write_ack(self, src: int, m: MWriteAckD) -> None:
        self.round_reply(MWrite, (m.writer, m.seq), src)

    @handles(MCollect)
    def _on_collect(self, src: int, m: MCollect) -> None:
        self.reg = _merge(self.reg, m.view)
        self.send(src, MCollectAck(m.reqid, self.reg))

    @handles(MCollectAck)
    def _on_collect_ack(self, src: int, m: MCollectAck) -> None:
        self.round_reply(MCollect, m.reqid, src, m.view)


__all__ = ["DelporteAso"]

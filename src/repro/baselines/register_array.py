"""The replicated SWMR segment array under the pull-based rows of Table I.

Delporte et al. [19], BFK [BFK24] and IMPR [IMPR16] share one object:
every node replicates ``REG[j] = (seq, value)``, one single-writer
register per node, and replica state is pointwise monotone (a merge only
ever raises sequence numbers).  It has two ``n − f`` quorum rounds:

- **write(v)** — increment the own sequence number, broadcast
  :class:`MWrite`, wait for ``n − f`` acks: one round trip, ``O(D)``,
  every row's UPDATE;
- **collect(view)** (:meth:`RegisterArray._collect`) — broadcast
  :class:`MCollect`; each replica merges ``view`` into its array and
  replies with the result.  The query's view is the row's choice: the
  scanner's merged array (Delporte's and BFK's confirmation round), the
  all-⊥ array whose merge is the identity (IMPR's read, whose query
  leaves every replica untouched), or an array to quorum-store with the
  replies ignored (IMPR's write-back).

Each row's module holds only what is its own: the exact-quorum confirm
loop (``delporte.py``), the borrow exit and stable-view gossip
(``bfk.py``), the unanimity/write-back read under a double collect
(``impr.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

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
    """Collect query; carries a view every replica merges before it
    replies (keeps replica state monotone and confirmable)."""

    reqid: int
    view: SegArray


@dataclass(frozen=True, slots=True)
class MCollectAck:
    reqid: int
    view: SegArray


def merge(a: SegArray, b: SegArray) -> SegArray:
    """Pointwise max-by-seq merge of two segment arrays."""
    return tuple(x if x[0] >= y[0] else y for x, y in zip(a, b))


def covers(s: SegArray, m: SegArray) -> bool:
    """True iff ``s`` pointwise dominates ``m`` (``s ⊇ m``)."""
    return all(x[0] >= y[0] for x, y in zip(s, m))


def to_snapshot(view: Sequence[tuple[int, Any]]) -> Snapshot:
    """A segment array as the :class:`Snapshot` a SCAN returns (shared by
    every per-writer ``(seq, value)`` algorithm: [19], [BFK24], [IMPR16]
    and the SCD-broadcast snapshot)."""
    return Snapshot(
        values=tuple(None if seq == 0 else value for seq, value in view),
        meta=tuple(
            None if seq == 0 else ValueTs(value, Timestamp(seq, j), useq=seq)
            for j, (seq, value) in enumerate(view)
        ),
    )


class RegisterArray(ProtocolNode):
    """One replica of the SWMR segment array (crash model, ``n > 2f``).

    :meth:`write` is a client operation (every row's UPDATE);
    :meth:`_collect` is a round, not an operation: each row's SCAN
    brackets it in its own phases.
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"{type(self).__name__} requires n > 2f (n={n}, f={f})")
        self.bottom: SegArray = tuple((0, None) for _ in range(n))
        self.reg: SegArray = self.bottom
        self._seq = 0
        self._reqids = itertools.count(1)

    def write(self, value: Any) -> OpGen:
        """write(v) into the own register: one round trip — O(D)."""
        self._seq += 1
        seq = self._seq
        what = f"write ack quorum (seq {seq})"
        self.phase_enter("write")
        yield from self.quorum_round((self.node_id, seq), MWrite(self.node_id, seq, value), what)
        self.phase_exit("write")
        return "ACK"

    def _collect(self, view: SegArray) -> OpGen:
        """One collect round with query ``view``: ``{src: array}`` from
        ``n − f`` replicas, each taken after merging ``view``."""
        reqid = next(self._reqids)
        what = f"collect quorum (req {reqid})"
        return (yield from self.quorum_round(reqid, MCollect(reqid, view), what))

    @handles(MWrite)
    def _on_write(self, src: int, m: MWrite) -> None:
        j = m.writer
        if m.seq > self.reg[j][0]:
            self.reg = self.reg[:j] + ((m.seq, m.value),) + self.reg[j + 1 :]
        self.send(src, MWriteAckD(m.writer, m.seq))

    @handles(MWriteAckD)
    def _on_write_ack(self, src: int, m: MWriteAckD) -> None:
        self.round_reply(MWrite, (m.writer, m.seq), src)

    @handles(MCollect)
    def _on_collect(self, src: int, m: MCollect) -> None:
        self.reg = merge(self.reg, m.view)
        self.send(src, MCollectAck(m.reqid, self.reg))

    @handles(MCollectAck)
    def _on_collect_ack(self, src: int, m: MCollectAck) -> None:
        self.round_reply(MCollect, m.reqid, src, m.view)


__all__ = [
    "MCollect", "MCollectAck", "MWrite", "MWriteAckD", "RegisterArray",
    "SegArray", "covers", "merge", "to_snapshot",
]

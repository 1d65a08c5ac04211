"""Contender [IMPR16]: Imbs, Mostéfaoui, Perrin & Raynal, "Read/Write
Shared Memory Abstraction on Top of Asynchronous Byzantine Message-Passing
Systems" / the crash-model register constructions of arXiv:1702.08176.

Reconstruction note: the retrieved abstract names the design point — an
ABD-style layering where the shared-memory abstraction is built first
and the snapshot is a *shared-memory algorithm running on top of the
emulated registers* — but not the pseudocode, so this module is a
from-first-principles reconstruction of that layering on our substrate
(crash model; the Byzantine variant needs ``n > 3f`` machinery we do
not reproduce here), validated by the same checkers as every Table I
row.

Two layers:

- :class:`ImprRegisters` — an array of SWMR atomic registers, one per
  node, emulated ABD-style over ``n − f`` quorums:

  * **write(v)** — one round trip: sequence-number the value, broadcast,
    wait for ``n − f`` acks;
  * **collect** (read of the whole array) — query all, wait for ``n − f``
    full-array replies, merge pointwise; if the replies are *unanimous*
    the merged array is already stored at a quorum and the read is one
    round trip (the paper's observation that reads cost one round trip
    absent write concurrency), otherwise a **write-back** round makes
    the merged array quorum-stored before it is returned — the ABD
    rule that makes each component behave as an atomic register.

- :class:`ImprRegisterAso` — the snapshot as a *shared-memory* algorithm
  over those registers: UPDATE is a plain register write (``O(D)``),
  SCAN is the classic **double collect** — repeat atomic collects until
  two successive ones are pointwise equal, then return the common view
  (linearized between the two collects; the write-back/unanimity rule is
  what makes each collect an atomic read, which is exactly the
  hypothesis the double-collect theorem needs).

The price of layering is the head-to-head content of the
``contender_latency`` bench: each concurrent UPDATE can invalidate one
double-collect round *and* force write-backs, so a scan under an update
storm pays ``O(c · D)`` with a larger constant than the direct
message-passing algorithms ([19], [BFK24]) — while EQ-ASO's push-based
equivalence quorums keep ``O(√k · D)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.baselines.delporte import SegArray, _merge, _to_snapshot
from repro.runtime.protocol import OpGen, ProtocolNode, handles


@dataclass(frozen=True, slots=True)
class MRegWrite:
    writer: int
    seq: int
    value: Any


@dataclass(frozen=True, slots=True)
class MRegWriteAck:
    writer: int
    seq: int


@dataclass(frozen=True, slots=True)
class MRegRead:
    reqid: int


@dataclass(frozen=True, slots=True)
class MRegReadAck:
    reqid: int
    array: SegArray


@dataclass(frozen=True, slots=True)
class MRegWriteBack:
    """Second ABD phase of a non-unanimous read: the merged array, to be
    quorum-stored before the reader returns it."""

    reqid: int
    array: SegArray


@dataclass(frozen=True, slots=True)
class MRegWriteBackAck:
    reqid: int


class ImprRegisters(ProtocolNode):
    """ABD-style SWMR register array in the style of [IMPR16]
    (crash model, ``n > 2f``).

    Exposes :meth:`write` and :meth:`collect` as client operations; the
    snapshot construction below runs on top of them.
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"IMPR registers require n > 2f (n={n}, f={f})")
        self.regs: SegArray = tuple((0, None) for _ in range(n))
        self._seq = 0
        self._reqids = itertools.count(1)
        # instrumentation
        self.fast_reads = 0  #: unanimous collects (no write-back round)
        self.write_backs = 0

    # -- register operations --------------------------------------------
    def write(self, value: Any) -> OpGen:
        """write(v) into the own SWMR register: one round trip."""
        self._seq += 1
        seq = self._seq
        self.phase_enter("reg-write")
        yield from self.quorum_round(
            (self.node_id, seq),
            MRegWrite(self.node_id, seq, value),
            f"impr write ack quorum (seq {seq})",
        )
        self.phase_exit("reg-write")
        return "ACK"

    def collect(self) -> OpGen:
        """Atomic read of the whole register array (ABD read).

        One round trip when the ``n − f`` replies are unanimous; a
        write-back round otherwise.
        """
        reqid = next(self._reqids)
        self.phase_enter("reg-read")
        acks = yield from self.quorum_round(
            reqid, MRegRead(reqid), f"impr read quorum (req {reqid})"
        )
        self.phase_exit("reg-read")
        replies = list(acks.values())
        merged = replies[0]
        for arr in replies[1:]:
            merged = _merge(merged, arr)
        self.regs = _merge(self.regs, merged)
        if all(arr == merged for arr in replies):
            # unanimous: the merged array is already stored at n − f
            # replicas, so it is its own write-back
            self.fast_reads += 1
            return merged
        self.write_backs += 1
        wb = next(self._reqids)
        self.phase_enter("write-back")
        yield from self.quorum_round(
            wb, MRegWriteBack(wb, merged), f"impr write-back quorum (req {wb})"
        )
        self.phase_exit("write-back")
        return merged

    # -- server thread ----------------------------------------------------
    @handles(MRegWrite)
    def _on_reg_write(self, src: int, m: MRegWrite) -> None:
        if m.seq > self.regs[m.writer][0]:
            regs = list(self.regs)
            regs[m.writer] = (m.seq, m.value)
            self.regs = tuple(regs)
        self.send(src, MRegWriteAck(m.writer, m.seq))

    @handles(MRegWriteAck)
    def _on_reg_write_ack(self, src: int, m: MRegWriteAck) -> None:
        self.round_reply(MRegWrite, (m.writer, m.seq), src)

    @handles(MRegRead)
    def _on_reg_read(self, src: int, m: MRegRead) -> None:
        self.send(src, MRegReadAck(m.reqid, self.regs))

    @handles(MRegReadAck)
    def _on_reg_read_ack(self, src: int, m: MRegReadAck) -> None:
        self.round_reply(MRegRead, m.reqid, src, m.array)

    @handles(MRegWriteBack)
    def _on_write_back(self, src: int, m: MRegWriteBack) -> None:
        self.regs = _merge(self.regs, m.array)
        self.send(src, MRegWriteBackAck(m.reqid))

    @handles(MRegWriteBackAck)
    def _on_write_back_ack(self, src: int, m: MRegWriteBackAck) -> None:
        self.round_reply(MRegWriteBack, m.reqid, src)


class ImprRegisterAso(ImprRegisters):
    """Snapshot as a shared-memory algorithm over the emulated registers
    (``n > 2f``; UPDATE ``O(D)``, SCAN ``O(c · D)`` with ``c`` concurrent
    updates — the double-collect cost the paper's layering inherits)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self.double_collect_rounds = 0  # instrumentation

    def update(self, value: Any) -> OpGen:
        """UPDATE(v) = register write."""
        yield from self.write(value)
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN = double collect over atomic reads: return when two
        successive collects agree (the common view linearizes between
        them)."""
        self.phase_enter("double-collect")
        previous = yield from self.collect()
        while True:
            self.double_collect_rounds += 1
            current = yield from self.collect()
            if current == previous:
                self.phase_exit("double-collect")
                return _to_snapshot(current)
            previous = current


__all__ = ["ImprRegisterAso", "ImprRegisters"]

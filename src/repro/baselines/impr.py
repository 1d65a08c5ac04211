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

- the register layer — an array of SWMR atomic registers, one per
  node, emulated ABD-style over ``n − f`` quorums on the shared segment
  array (:class:`~repro.baselines.register_array.RegisterArray`):

  * **write(v)** — one round trip: sequence-number the value, broadcast,
    wait for ``n − f`` acks;
  * **read** (:meth:`ImprRegisterAso.read`, the whole array) — a collect
    whose all-⊥ query leaves every replica untouched; merge the ``n − f``
    full-array replies pointwise; if they are *unanimous* the merged
    array is already stored at a quorum and the read is one round trip
    (the paper's observation that reads cost one round trip absent
    write concurrency), otherwise a **write-back** round (a collect of
    the merged array, replies ignored) makes it quorum-stored before it
    is returned — the ABD rule that makes each component behave as an
    atomic register.

- :class:`ImprRegisterAso` — the snapshot as a *shared-memory* algorithm
  over those registers: UPDATE is a plain register write (``O(D)``),
  SCAN is the classic **double collect** — repeat atomic reads until
  two successive ones are pointwise equal, then return the common view
  (linearized between the two reads; the write-back/unanimity rule is
  what makes each read atomic, which is exactly the hypothesis the
  double-collect theorem needs).

The price of layering is the head-to-head content of the
``contender_latency`` bench: each concurrent UPDATE can invalidate one
double-collect round *and* force write-backs, so a scan under an update
storm pays ``O(c · D)`` with a larger constant than the direct
message-passing algorithms ([19], [BFK24]) — while EQ-ASO's push-based
equivalence quorums keep ``O(√k · D)``.
"""

from __future__ import annotations

from functools import reduce
from typing import Any

from repro.baselines.register_array import RegisterArray, merge, to_snapshot
from repro.runtime.protocol import OpGen


class ImprRegisterAso(RegisterArray):
    """Snapshot as a shared-memory algorithm over the emulated registers
    (``n > 2f``; UPDATE ``O(D)``, SCAN ``O(c · D)`` with ``c`` concurrent
    updates — the double-collect cost the paper's layering inherits)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self.fast_reads = 0  #: unanimous reads (no write-back round)
        self.write_backs = 0  #: reads that needed the write-back round
        self.double_collect_rounds = 0  #: scan rounds after the first read

    def update(self, value: Any) -> OpGen:
        """UPDATE(v) = register write."""
        return (yield from self.write(value))

    def read(self) -> OpGen:
        """Atomic read of the whole register array (ABD read).

        One round trip when the ``n − f`` replies are unanimous; a
        write-back round otherwise.
        """
        self.phase_enter("reg-read")
        replies = list((yield from self._collect(self.bottom)).values())
        self.phase_exit("reg-read")
        merged = reduce(merge, replies)
        self.reg = merge(self.reg, merged)
        if all(arr == merged for arr in replies):
            # unanimous: the merged array is already stored at n − f
            # replicas, so it is its own write-back
            self.fast_reads += 1
            return merged
        self.write_backs += 1
        self.phase_enter("write-back")
        yield from self._collect(merged)
        self.phase_exit("write-back")
        return merged

    def scan(self) -> OpGen:
        """SCAN = double collect over atomic reads: return when two
        successive reads agree (the common view linearizes between
        them)."""
        self.phase_enter("double-collect")
        previous = yield from self.read()
        while True:
            self.double_collect_rounds += 1
            current = yield from self.read()
            if current == previous:
                self.phase_exit("double-collect")
                return to_snapshot(current)
            previous = current


__all__ = ["ImprRegisterAso"]

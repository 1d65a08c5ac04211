"""Baseline [29]: Imbs, Mostéfaoui, Perrin & Raynal (ICDCN'18),
"Set-Constrained Delivery broadcast" (SCD-broadcast) and the snapshot
object built on it.

**SCD-broadcast** delivers messages in *sets* subject to the mutual-order
(MS) constraint: for any two messages ``m, m'`` and processes ``p, q``, it
is never the case that ``p`` delivers ``m`` strictly before ``m'`` while
``q`` delivers ``m'`` strictly before ``m``.

Implementation (``n > 2f``, FIFO channels):

- to scd-broadcast ``m``, send ``FORWARD(m)`` to all; every process
  re-forwards each message exactly once, on first receipt;
- because channels are FIFO and each process forwards each message once,
  the forwards a process receives from sender ``j`` are a *prefix of a
  single per-``j`` order* — so "``j`` forwarded ``m`` before ``m'``" is
  observable locally;
- ``m`` is **ready** once forwarded by ``≥ n − f`` distinct processes;
- ``m`` may be delivered *strictly before* a known message ``m'`` only if
  ``≥ n − f`` senders ordered ``m`` before ``m'`` in their forward streams
  (senders that forwarded ``m`` but not yet ``m'`` count: FIFO commits
  them).  Messages not safely orderable must be delivered in one set;
  if such a partner is not ready yet, delivery waits.

*MS-safety*: if ``p`` delivers ``m`` strictly before ``m'``, at least
``n − f`` senders forwarded ``m`` before ``m'`` (for an unknown ``m'``
this is every forwarder of ``m`` so far, FIFO-committed); a ``q``
delivering ``m'`` strictly before ``m`` would need ``n − f`` senders with
the opposite order; each sender forwards each message once, so the two
sender sets are disjoint — ``2(n−f) ≤ n`` contradicts ``f < n/2``. ∎

**Snapshot on SCD** (their construction): every node applies delivered
writes to a local segment array; UPDATE scd-broadcasts the write, waits
for its local delivery, then scd-broadcasts a sync barrier (``≈ 4D``
failure-free); SCAN scd-broadcasts a sync and returns the local array at
its delivery (``≈ 2D`` failure-free).  Under failure chains the time
degrades to ``O(k·D)`` — the paper's conjecture for this baseline — with
amortized ``O(D)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.baselines.register_array import to_snapshot
from repro.runtime.protocol import OpGen, ProtocolNode, WaitUntil, handles

Mid = tuple[int, int]  # (origin, origin-local sequence number)


@dataclass(frozen=True, slots=True)
class MForward:
    mid: Mid
    payload: Any


class ScdBroadcastNode(ProtocolNode):
    """A node running SCD-broadcast.  Subclasses override
    :meth:`scd_deliver` to consume delivered sets."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"SCD-broadcast requires n > 2f (n={n}, f={f})")
        self._next_mid = itertools.count(1)
        self._payloads: dict[Mid, Any] = {}
        self._forwarders: dict[Mid, set[int]] = {}
        # per-sender arrival index of each mid in that sender's stream
        self._arrival: list[dict[Mid, int]] = [dict() for _ in range(n)]
        self._arrival_count = [0] * n
        self._forwarded: set[Mid] = set()
        self.delivered: set[Mid] = set()
        self.delivered_sets = 0  # instrumentation

    # -- client-side primitive ------------------------------------------
    def scd_broadcast(self, payload: Any) -> Mid:
        """Initiate an scd-broadcast; returns the message id (local
        delivery is signalled through :meth:`scd_deliver`)."""
        mid = (self.node_id, next(self._next_mid))
        self._forwarded.add(mid)
        self._payloads[mid] = payload
        self.broadcast(MForward(mid, payload))
        return mid

    def is_delivered(self, mid: Mid) -> bool:
        return mid in self.delivered

    # -- delivery machinery ------------------------------------------------
    @handles(MForward)
    def _on_forward(self, src: int, m: MForward) -> None:
        mid = m.mid
        if mid not in self._arrival[src]:
            self._arrival[src][mid] = self._arrival_count[src]
            self._arrival_count[src] += 1
            self._forwarders.setdefault(mid, set()).add(src)
            self._payloads.setdefault(mid, m.payload)
            if mid not in self._forwarded:
                self._forwarded.add(mid)
                self.broadcast(MForward(mid, m.payload))
            self._try_deliver()

    def _ready(self, mid: Mid) -> bool:
        return len(self._forwarders.get(mid, ())) >= self.quorum_size

    def _safe_before(self, m: Mid, m2: Mid) -> bool:
        """≥ n−f senders have committed to forwarding m before m2."""
        count = 0
        for j in range(self.n):
            arr = self._arrival[j]
            pos_m = arr.get(m)
            if pos_m is None:
                continue
            pos_m2 = arr.get(m2)
            if pos_m2 is None or pos_m < pos_m2:
                count += 1
        return count >= self.quorum_size

    def _try_deliver(self) -> None:
        while True:
            known = [m for m in self._payloads if m not in self.delivered]
            batch = {m for m in known if self._ready(m)}
            if not batch:
                return
            # shrink: a ready message must be safely orderable before every
            # known excluded message; if not, it must wait for that partner
            changed = True
            while changed and batch:
                changed = False
                for m in list(batch):
                    for m2 in known:
                        if m2 in batch or m2 in self.delivered:
                            continue
                        if not self._safe_before(m, m2):
                            batch.discard(m)
                            changed = True
                            break
            if not batch:
                return
            self.delivered |= batch
            self.delivered_sets += 1
            self.scd_deliver({m: self._payloads[m] for m in batch})
            # delivering may unblock further batches; loop

    def scd_deliver(self, batch: dict[Mid, Any]) -> None:
        """Consume one delivered set (override in subclasses)."""


# ----------------------------------------------------------------------
# snapshot object on top of SCD-broadcast
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScdWrite:
    writer: int
    seq: int
    value: Any


@dataclass(frozen=True, slots=True)
class ScdSync:
    node: int
    nonce: int


class ScdAso(ScdBroadcastNode):
    """Snapshot object built on SCD-broadcast (their Sec. 4 construction).

    UPDATE ≈ 4D failure-free, SCAN ≈ 2D; both degrade to ``O(k·D)`` under
    failure chains with amortized ``O(D)`` — Table I row [29].
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self.reg: list[tuple[int, Any]] = [(0, None) for _ in range(n)]
        self._useq = 0
        self._nonce = itertools.count(1)

    def scd_deliver(self, batch: dict[Mid, Any]) -> None:
        for payload in batch.values():
            if isinstance(payload, ScdWrite):
                if payload.seq > self.reg[payload.writer][0]:
                    self.reg[payload.writer] = (payload.seq, payload.value)

    def update(self, value: Any) -> OpGen:
        """UPDATE(v): scd(write); await local delivery; scd(sync barrier)."""
        self._useq += 1
        self.phase_enter("write-deliver")
        wmid = self.scd_broadcast(ScdWrite(self.node_id, self._useq, value))
        yield WaitUntil(
            lambda: self.is_delivered(wmid), f"scd delivery of write {wmid}"
        )
        self.phase_exit("write-deliver")
        self.phase_enter("sync")
        # sync barrier: the *delivery* of ScdSync is the signal; no
        # handler dispatches on its content
        smid = self.scd_broadcast(ScdSync(self.node_id, next(self._nonce)))
        yield WaitUntil(
            lambda: self.is_delivered(smid), f"scd delivery of update sync {smid}"
        )
        self.phase_exit("sync")
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN(): scd(sync); return the local array at its delivery."""
        self.phase_enter("sync")
        # sync barrier, as in update()
        smid = self.scd_broadcast(ScdSync(self.node_id, next(self._nonce)))
        yield WaitUntil(
            lambda: self.is_delivered(smid), f"scd delivery of scan sync {smid}"
        )
        self.phase_exit("sync")
        return to_snapshot(self.reg)


__all__ = ["ScdBroadcastNode", "ScdAso", "ScdWrite", "ScdSync", "MForward"]

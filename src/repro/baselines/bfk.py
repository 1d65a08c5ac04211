"""Contender [BFK24]: Bezerra, Freitas & Kuznetsov, "Brief Announcement:
Asynchronous Latency and Fast Atomic Snapshot" (arXiv:2408.02562).

Reconstruction note: the retrieved abstract names the goals — an atomic
snapshot whose UPDATE costs one round trip and whose SCAN exploits
*helping* so that concurrent scanners share confirmation work — but not
the pseudocode, so this module is a from-first-principles reconstruction
of that design point on our substrate, validated by the same Theorem 1
checkers, chaos campaigns and brute-force cross-checks as every other
row of Table I.

Structure (per-writer segment arrays, as in Delporte et al. [19]):

- every node replicates ``REG[j] = (seq, value)``; replica state is
  pointwise monotone (merges only ever raise sequence numbers);
- **UPDATE(v)**: increment the own sequence number, broadcast the store,
  wait for ``n − f`` acknowledgements — one round trip, ``O(D)``;
- **SCAN**: the exact-quorum confirmation loop of [19] *plus two fast
  mechanisms*:

  1. **confirmation sharing ("borrowing")** — every collect reply
     piggybacks the replica's latest *stable* view (one that some
     scanner confirmed with an exact ``n − f`` quorum), and a scanner
     that confirms a view broadcasts it (``MStableB``).  A scanner
     holding a stable view ``S`` with ``S ⊇ M`` — where ``M`` is its
     own merged view including at least one full post-invocation
     collect — returns ``S`` immediately instead of chasing a moving
     confirmation target.  Under scan storms one confirmation releases
     every concurrent scanner ``O(D)`` later.
  2. **uncontended fast path** — a quiet first collect confirms in one
     round trip (counted in :attr:`BfkAso.fast_scans`).

Safety sketch (why borrowing preserves linearizability): confirmed
views are totally ordered — two exact-quorum confirmations intersect in
a replica whose state is monotone, so one confirmed view contains the
other.  A borrowed ``S`` is itself a confirmed view, and ``S ⊇ M``
where ``M`` merges a full ``n − f`` collect issued after the scan's
invocation; that collect quorum intersects (i) the store quorum of any
UPDATE completed before the scan started and (ii) the confirmation
quorum of any view returned by an earlier-completed scan, so ``S``
dominates both — the real-time order of Theorem 1 is respected on both
the fast and the slow path.

Worst case: each concurrent UPDATE can still invalidate one
confirmation round, so a *lone* scanner under an update storm pays
``O(c · D)`` like [19] — the head-to-head content of the
``contender_latency`` bench is exactly this trade against EQ-ASO's
``O(√k · D)`` bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.baselines.delporte import SegArray, _merge, _to_snapshot
from repro.runtime.protocol import OpGen, ProtocolNode, handles


@dataclass(frozen=True, slots=True)
class MStoreB:
    writer: int
    seq: int
    value: Any


@dataclass(frozen=True, slots=True)
class MStoreAckB:
    writer: int
    seq: int


@dataclass(frozen=True, slots=True)
class MQueryB:
    """Scanner's collect query; carries the scanner's merged view so
    replica state converges toward it (monotone, hence confirmable)."""

    reqid: int
    view: SegArray


@dataclass(frozen=True, slots=True)
class MQueryAckB:
    """Collect reply: the replica's full array plus its latest *stable*
    (exact-quorum-confirmed) view — the piggyback that lets scanners
    borrow each other's confirmations."""

    reqid: int
    view: SegArray
    stable: SegArray | None


@dataclass(frozen=True, slots=True)
class MStableB:
    """Fire-and-forget: a view the sender just confirmed with an exact
    ``n − f`` quorum; receivers adopt it as their latest stable view."""

    view: SegArray


def _covers(s: SegArray, m: SegArray) -> bool:
    """True iff ``s`` pointwise dominates ``m`` (``s ⊇ m``)."""
    return all(x[0] >= y[0] for x, y in zip(s, m))


def _weight(view: SegArray) -> int:
    """Sum of sequence numbers — a total order on *comparable* views
    (confirmed views are pairwise comparable, so the max-weight stable
    view is the largest one)."""
    return sum(seq for seq, _ in view)


class BfkAso(ProtocolNode):
    """Fast atomic snapshot in the style of [BFK24] (``n > 2f``)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"BFK snapshot requires n > 2f (n={n}, f={f})")
        self.reg: SegArray = tuple((0, None) for _ in range(n))
        self.stable: SegArray | None = None  #: largest confirmed view seen
        self._seq = 0
        self._reqids = itertools.count(1)
        # instrumentation
        self.collect_rounds = 0
        self.fast_scans = 0  #: scans confirmed by their first collect
        self.borrowed_scans = 0  #: scans returning a borrowed stable view

    # ------------------------------------------------------------------
    def update(self, value: Any) -> OpGen:
        """UPDATE(v): one store round trip — O(D)."""
        self._seq += 1
        seq = self._seq
        self.phase_enter("store")
        yield from self.quorum_round(
            (self.node_id, seq),
            MStoreB(self.node_id, seq, value),
            f"bfk store ack quorum (seq {seq})",
        )
        self.phase_exit("store")
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN(): exact-quorum confirmation with borrowing."""
        self.phase_enter("stable-collect")
        rounds = 0
        while True:
            self.collect_rounds += 1
            rounds += 1
            reqid = next(self._reqids)
            query_view = self.reg
            acks = yield from self.quorum_round(
                reqid,
                MQueryB(reqid, query_view),
                f"bfk collect quorum (req {reqid})",
            )
            confirmations = sum(1 for v in acks.values() if v == query_view)
            for v in acks.values():
                self.reg = _merge(self.reg, v)
            if confirmations >= self.quorum_size and self.reg == query_view:
                # own confirmation: publish it so concurrent scanners can
                # borrow, then return
                if self.stable is None or _weight(query_view) > _weight(self.stable):
                    self.stable = query_view
                self.broadcast(MStableB(query_view), include_self=False)
                if rounds == 1:
                    self.fast_scans += 1
                self.phase_exit("stable-collect")
                return _to_snapshot(query_view)
            # borrow: a stable view dominating everything we merged from a
            # full post-invocation collect is safe to return as-is
            borrowed = self.stable
            if borrowed is not None and _covers(borrowed, self.reg):
                self.borrowed_scans += 1
                self.phase_exit("stable-collect")
                return _to_snapshot(borrowed)
            # else: a concurrent update moved the object; go around again

    def _adopt_stable(self, view: SegArray | None) -> None:
        if view is not None and (
            self.stable is None or _weight(view) > _weight(self.stable)
        ):
            self.stable = view

    # ------------------------------------------------------------------
    @handles(MStoreB)
    def _on_store(self, src: int, m: MStoreB) -> None:
        if m.seq > self.reg[m.writer][0]:
            reg = list(self.reg)
            reg[m.writer] = (m.seq, m.value)
            self.reg = tuple(reg)
        self.send(src, MStoreAckB(m.writer, m.seq))

    @handles(MStoreAckB)
    def _on_store_ack(self, src: int, m: MStoreAckB) -> None:
        self.round_reply(MStoreB, (m.writer, m.seq), src)

    @handles(MQueryB)
    def _on_query(self, src: int, m: MQueryB) -> None:
        self.reg = _merge(self.reg, m.view)
        self.send(src, MQueryAckB(m.reqid, self.reg, self.stable))

    @handles(MQueryAckB)
    def _on_query_ack(self, src: int, m: MQueryAckB) -> None:
        self._adopt_stable(m.stable)
        self.round_reply(MQueryB, m.reqid, src, m.view)

    @handles(MStableB)
    def _on_stable(self, src: int, m: MStableB) -> None:
        self._adopt_stable(m.view)


__all__ = ["BfkAso"]

"""Baseline [12]: Attiya, Kumari, Soman & Welch (SSS'20), "Store-collect in
the presence of continuous churn with application to snapshots and lattice
agreement" — snapshot built on a *store-collect* object.

We implement the store-collect primitive in a static crash-prone system
(their churn machinery collapses to plain ``n − f`` quorums when the
membership is fixed, which is the setting of Table I) and the snapshot
construction on top:

- **store(x)** — broadcast the value with a sequence number, wait for
  ``n − f`` acknowledgements;
- **collect()** — query all, wait for ``n − f`` replies, merge.

Snapshot construction: stored values are *cumulative views* — grow-only
sets of ``(writer, useq, value)`` triples — so a store by an updater
transports everything the updater knew:

- **UPDATE(v)**: stable-collect the current global view ``U`` (collect
  until ``n − f`` replicas confirm the merged view — the pull-based
  stabilization this family of algorithms relies on), then
  ``store(U ∪ {(i, useq, v)})``;
- **SCAN**: stable-collect and return the extraction of the confirmed
  view.

Both operations pay the stable-collect, hence ``O(n·D)`` worst case under
concurrency — the paper's Table I row for [12] (UPDATE ``O(n·D)``, SCAN
``O(n·D)``).  Comparability of confirmed views follows from quorum
intersection on monotone replica state, prefix closure from the fact that
``(j, s)`` only ever enters the system inside a stored set that contains
``(j, s−1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.core.tags import Snapshot, Timestamp, ValueTs, extract
from repro.runtime.protocol import OpGen, ProtocolNode, handles

Triple = tuple[int, int, Any]  # (writer, useq, value)


@dataclass(frozen=True, slots=True)
class MStore:
    seq: int
    view: frozenset[Triple]


@dataclass(frozen=True, slots=True)
class MStoreAck:
    writer: int
    seq: int


@dataclass(frozen=True, slots=True)
class MQuery:
    reqid: int
    view: frozenset[Triple]


@dataclass(frozen=True, slots=True)
class MQueryAck:
    reqid: int
    view: frozenset[Triple]


class StoreCollectObject(ProtocolNode):
    """The bare store-collect primitive of [12] (static membership).

    Exposes :meth:`store` and :meth:`collect` as client operations; the
    snapshot construction below subclasses it.  Replica state is the
    union of everything ever stored or carried by queries (monotone).
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"store-collect requires n > 2f (n={n}, f={f})")
        self.knowledge: frozenset[Triple] = frozenset()
        self._store_seq = 0
        self._reqids = itertools.count(1)
        self.collect_rounds = 0

    # -- primitive operations -------------------------------------------
    def store(self, view: frozenset[Triple]) -> OpGen:
        """store(x): one quorum round trip."""
        self._store_seq += 1
        seq = self._store_seq
        self.knowledge |= view
        self.phase_enter("store")
        yield from self.quorum_round(
            seq, MStore(seq, frozenset(view)), f"store ack quorum (seq {seq})"
        )
        self.phase_exit("store")
        return "ACK"

    def collect(self) -> OpGen:
        """collect(): one query round trip, merged result (no stability)."""
        reqid = next(self._reqids)
        self.phase_enter("collect")
        acks = yield from self.quorum_round(
            reqid, MQuery(reqid, self.knowledge), f"collect quorum (req {reqid})"
        )
        self.phase_exit("collect")
        for view in acks.values():
            self.knowledge |= view
        return self.knowledge

    def stable_collect(self) -> OpGen:
        """Collect until ``n − f`` replicas confirm the exact merged view
        (each concurrent store can force one extra round → O(n·D))."""
        self.phase_enter("stable-collect")
        while True:
            self.collect_rounds += 1
            reqid = next(self._reqids)
            query_view = self.knowledge
            acks = yield from self.quorum_round(
                reqid,
                MQuery(reqid, query_view),
                f"stable-collect quorum (req {reqid})",
            )
            confirmations = sum(1 for v in acks.values() if v == query_view)
            for view in acks.values():
                self.knowledge |= view
            if confirmations >= self.quorum_size and self.knowledge == query_view:
                self.phase_exit("stable-collect")
                return query_view

    # -- server thread ----------------------------------------------------
    @handles(MStore)
    def _on_store(self, src: int, m: MStore) -> None:
        self.knowledge |= m.view
        self.send(src, MStoreAck(src, m.seq))

    @handles(MStoreAck)
    def _on_store_ack(self, src: int, m: MStoreAck) -> None:
        self.round_reply(MStore, m.seq, src)

    @handles(MQuery)
    def _on_query(self, src: int, m: MQuery) -> None:
        self.knowledge |= m.view
        self.send(src, MQueryAck(m.reqid, self.knowledge))

    @handles(MQueryAck)
    def _on_query_ack(self, src: int, m: MQueryAck) -> None:
        self.round_reply(MQuery, m.reqid, src, m.view)


class StoreCollectAso(StoreCollectObject):
    """Snapshot object built on store-collect, per [12]'s application
    section (``n > 2f``; UPDATE and SCAN both ``O(n·D)`` worst case)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self._useq = 0

    def update(self, value: Any) -> OpGen:
        """UPDATE(v) = stable-collect ∪ own triple, then store."""
        base = yield from self.stable_collect()
        self._useq += 1
        view = frozenset(base | {(self.node_id, self._useq, value)})
        yield from self.store(view)
        return "ACK"

    def scan(self) -> OpGen:
        """SCAN = stable-collect, extract."""
        view = yield from self.stable_collect()
        return self._to_snapshot(view)

    def _to_snapshot(self, view: frozenset[Triple]) -> Snapshot:
        vts = [
            ValueTs(value, Timestamp(useq, writer), useq)
            for (writer, useq, value) in view
        ]
        return extract(vts, self.n)


__all__ = ["StoreCollectObject", "StoreCollectAso"]

"""Deliberately broken algorithm variants ("mutants").

A chaos campaign that never fires is indistinguishable from one that
cannot see: these mutants are the injected faults that prove the loop —
generator → checker → shrinker → exported counterexample — actually
closes.  Each weakens exactly one guard of a healthy algorithm behind a
separate registry entry (they are reachable only by their explicit
``mut-…`` names, never from the ``--algo all`` sweep), so tests and the
CLI can demonstrate that a weakened quorum check is caught and shrunk to
a minimal failing seed.

- :class:`DelporteWeakWriteQuorum` — UPDATE's ``n − f`` write-ack quorum
  weakened to 1: the writer's own zero-delay self-ack completes the
  update instantly, before any replica stores the value.  A scan whose
  confirmation quorum misses the (still in-flight) write then returns a
  snapshot that omits a *completed* update — a real-time (new/old
  inversion) violation.  Needs delay jitter or crash interference to
  surface: exactly what the campaign sweeps.

- :class:`DelporteWeakScanQuorum` — SCAN's identical-view confirmation
  quorum weakened from ``n − f`` to 1: the scanner's own zero-delay ack
  always confirms the first collect round, so the scan degenerates to a
  local read.  Two concurrent local scans at different nodes can return
  *incomparable* views (each missing the other side's in-flight write) —
  violating even sequential consistency.  Fires under plain concurrency,
  so it is caught fast and shrinks small.

- :class:`BfkWeakStoreQuorum` — the BFK contender's UPDATE store quorum
  weakened to 1 (the writer's own self-ack): an update "completes"
  before any replica stores it, so a later scan can miss a completed
  update — the same new/old inversion as the Delporte weak write, now
  proving the checkers keep their teeth on the new algorithm.

- :class:`ImprWeakCollectQuorum` — the IMPR contender's register-read
  quorum weakened to 1: the reader's own zero-delay reply makes every
  collect a unanimous local read, the double collect trivially agrees,
  and the scan degenerates to a local view — concurrent scans at
  different nodes return incomparable views.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.bfk import BfkAso, MStoreB
from repro.baselines.delporte import DelporteAso, MCollect, MWrite, _to_snapshot
from repro.baselines.impr import ImprRegisterAso, MRegRead
from repro.chaos.algos import LINEARIZABLE, AlgoProfile
from repro.runtime.protocol import OpGen, WaitUntil


class DelporteWeakWriteQuorum(DelporteAso):
    """[mutant] write-ack quorum n−f → 1 (see module docstring)."""

    def quorum_round(self, key: Any, payload: Any, what: str) -> OpGen:
        if type(payload) is not MWrite:
            return (yield from super().quorum_round(key, payload, what))
        replies = self._rounds[MWrite].setdefault(key, {})
        self.broadcast(payload)
        # mutation: any single ack — in practice the writer's own
        # zero-delay self-ack — releases the update
        yield WaitUntil(lambda: len(replies) >= 1, f"weakened {what}")
        del self._rounds[MWrite][key]
        return replies


class DelporteWeakScanQuorum(DelporteAso):
    """[mutant] identical-view confirmation quorum n−f → 1."""

    def scan(self) -> OpGen:
        self.phase_enter("stable-collect")
        self.collect_rounds += 1
        reqid = next(self._reqids)
        query_view = self.reg
        replies = self._rounds[MCollect].setdefault(reqid, {})
        self.broadcast(MCollect(reqid, query_view))
        # mutation: one ack (the scanner's own) "confirms" the view, so
        # the stable-collect loop degenerates to a local read
        yield WaitUntil(
            lambda: len(replies) >= 1, f"weakened collect quorum (req {reqid})"
        )
        del self._rounds[MCollect][reqid]
        self.phase_exit("stable-collect")
        return _to_snapshot(query_view)


class BfkWeakStoreQuorum(BfkAso):
    """[mutant] BFK UPDATE store quorum n−f → 1 (see module docstring)."""

    def quorum_round(self, key: Any, payload: Any, what: str) -> OpGen:
        if type(payload) is not MStoreB:
            return (yield from super().quorum_round(key, payload, what))
        replies = self._rounds[MStoreB].setdefault(key, {})
        self.broadcast(payload)
        # mutation: any single ack — in practice the writer's own
        # zero-delay self-ack — releases the update
        yield WaitUntil(lambda: len(replies) >= 1, f"weakened {what}")
        del self._rounds[MStoreB][key]
        return replies


class ImprWeakCollectQuorum(ImprRegisterAso):
    """[mutant] IMPR register-read quorum n−f → 1."""

    def quorum_round(self, key: Any, payload: Any, what: str) -> OpGen:
        if type(payload) is not MRegRead:
            return (yield from super().quorum_round(key, payload, what))
        replies = self._rounds[MRegRead].setdefault(key, {})
        self.broadcast(payload)
        # mutation: one reply (the reader's own) settles the read, so
        # every collect is a unanimous local read and the double collect
        # degenerates to a local view
        yield WaitUntil(lambda: len(replies) >= 1, f"weakened {what}")
        del self._rounds[MRegRead][key]
        return replies


#: mutant registry — separate namespace from the healthy profiles
MUTANTS: dict[str, AlgoProfile] = {
    "mut-delporte-weak-write": AlgoProfile(
        "mut-delporte-weak-write",
        DelporteWeakWriteQuorum,
        LINEARIZABLE,
        n=5,
        f=2,
        mutant_of="delporte",
    ),
    "mut-delporte-weak-scan": AlgoProfile(
        "mut-delporte-weak-scan",
        DelporteWeakScanQuorum,
        LINEARIZABLE,
        n=5,
        f=2,
        mutant_of="delporte",
    ),
    "mut-bfk-weak-store": AlgoProfile(
        "mut-bfk-weak-store",
        BfkWeakStoreQuorum,
        LINEARIZABLE,
        n=5,
        f=2,
        mutant_of="bfk",
    ),
    "mut-impr-weak-collect": AlgoProfile(
        "mut-impr-weak-collect",
        ImprWeakCollectQuorum,
        LINEARIZABLE,
        n=5,
        f=2,
        mutant_of="impr",
    ),
}


__all__ = [
    "MUTANTS",
    "BfkWeakStoreQuorum",
    "DelporteWeakScanQuorum",
    "DelporteWeakWriteQuorum",
    "ImprWeakCollectQuorum",
]

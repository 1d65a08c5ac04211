"""Baseline [41],[42]+[11]: snapshot object from lattice agreement.

Two pieces:

- :class:`ClassifierLA` — a one-shot lattice agreement in the style of
  Zheng, Hu & Garg (DISC'18): binary search over *labels* with
  ``⌈log₂ n⌉ + 1`` rounds; each round is a quorum write (acceptors merge
  the proposal into per-``(round, label)`` storage) followed by a quorum
  read; the node becomes a *master* (adopts the union, label up) when the
  union holds more than ``label`` distinct original proposals, else a
  *slave* (keeps its value, label down).  Round count is logarithmic by
  construction — the ``O(log n · D)`` of Table I.

- :class:`LatticeAso` — a multi-shot snapshot object following the
  Attiya–Herlihy–Rachman recipe [11] of layering snapshots over repeated
  lattice agreements.  Values are gossiped (broadcast + forward-once);
  each operation runs the classifier over everything it knows, then runs
  a **commit-until-stable** round: it broadcasts its candidate view,
  replicas merge it into a single monotone ``committed`` set and reply
  with that set, and the operation returns only when ``n − f`` replicas
  reply with *exactly* its candidate.  Stability on monotone state gives
  comparability of all returned views by quorum intersection, regardless
  of classifier corner cases under adversarial scheduling (our
  reconstruction of [42] is validated empirically; the commit layer makes
  the composed object unconditionally safe — DESIGN.md documents this
  substitution).  The classifier does the convergence work, so the commit
  typically stabilizes in one round and the measured latency is dominated
  by the ``O(log n)`` classifier rounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Hashable

from repro.core.tags import Timestamp, ValueTs, extract
from repro.runtime.protocol import OpGen, ProtocolNode, handles

Atom = tuple[int, int, Any]  # (proposer/writer, seq, value)


@dataclass(frozen=True, slots=True)
class MClsWrite:
    instance: Hashable
    round: int
    label: int
    reqid: int
    atoms: frozenset[Atom]


@dataclass(frozen=True, slots=True)
class MClsWriteAck:
    reqid: int


@dataclass(frozen=True, slots=True)
class MClsRead:
    instance: Hashable
    round: int
    label: int
    reqid: int


@dataclass(frozen=True, slots=True)
class MClsReadAck:
    reqid: int
    atoms: frozenset[Atom]


class _ClassifierCore:
    """Shared classifier machinery: acceptor storage plus the proposer
    round loop (mixed into both protocol classes below)."""

    def _init_classifier(self) -> None:
        self._store: dict[tuple[Hashable, int, int], set[Atom]] = {}
        self._cls_reqids = itertools.count(1)
        self.classifier_rounds = 0

    def _classifier_run(self, instance: Hashable, atoms: frozenset[Atom]):
        """Proposer side: log-many write/read quorum rounds."""
        v = set(atoms)
        lo, hi = 0, self.n
        rounds = max(1, math.ceil(math.log2(self.n)) + 1)
        for rnd in range(rounds):
            self.classifier_rounds += 1
            label = (lo + hi + 1) // 2
            # quorum write
            reqid = next(self._cls_reqids)
            yield from self.quorum_round(
                reqid,
                MClsWrite(instance, rnd, label, reqid, frozenset(v)),
                f"classifier write quorum r{rnd} label {label}",
            )
            # quorum read
            reqid = next(self._cls_reqids)
            reads = yield from self.quorum_round(
                reqid,
                MClsRead(instance, rnd, label, reqid),
                f"classifier read quorum r{rnd} label {label}",
            )
            union = set(v)
            for got in reads.values():
                union |= got
            proposers = {a[0] for a in union}
            if len(proposers) > label:  # master: adopt the union, go up
                v = union
                lo = label
            else:  # slave: keep value, go down
                hi = label - 1
        return frozenset(v)

    @handles(MClsWrite)
    def _on_cls_write(self, src: int, m: MClsWrite) -> None:
        key = (m.instance, m.round, m.label)
        self._store.setdefault(key, set()).update(m.atoms)
        self.send(src, MClsWriteAck(m.reqid))

    @handles(MClsWriteAck)
    def _on_cls_write_ack(self, src: int, m: MClsWriteAck) -> None:
        self.round_reply(MClsWrite, m.reqid, src)

    @handles(MClsRead)
    def _on_cls_read(self, src: int, m: MClsRead) -> None:
        stored = self._store.get((m.instance, m.round, m.label), set())
        self.send(src, MClsReadAck(m.reqid, frozenset(stored)))

    @handles(MClsReadAck)
    def _on_cls_read_ack(self, src: int, m: MClsReadAck) -> None:
        self.round_reply(MClsRead, m.reqid, src, m.atoms)


class ClassifierLA(_ClassifierCore, ProtocolNode):
    """One-shot lattice agreement via the label classifier (``n > 2f``).

    Client operation: :meth:`propose` (once per node).  Outputs satisfy
    validity; comparability follows [42] and is checked empirically by the
    test-suite on randomized schedules.
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"classifier LA requires n > 2f (n={n}, f={f})")
        self._init_classifier()
        self._proposed = False

    def propose(self, values) -> OpGen:
        if self._proposed:
            raise RuntimeError("one-shot LA: node already proposed")
        self._proposed = True
        atoms = frozenset((self.node_id, i, v) for i, v in enumerate(values))
        self.phase_enter("classifier")
        decided = yield from self._classifier_run("oneshot", atoms)
        self.phase_exit("classifier")
        return frozenset(a[2] for a in decided)


# ----------------------------------------------------------------------
# the ASO wrapper
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MGossip:
    atom: Atom


@dataclass(frozen=True, slots=True)
class MCommit:
    reqid: int
    atoms: frozenset[Atom]


@dataclass(frozen=True, slots=True)
class MCommitAck:
    reqid: int
    atoms: frozenset[Atom]


class LatticeAso(_ClassifierCore, ProtocolNode):
    """Snapshot object from repeated lattice agreement ([11] recipe with
    the [42] classifier; ``n > 2f``)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"lattice ASO requires n > 2f (n={n}, f={f})")
        self._init_classifier()
        self.known: set[Atom] = set()
        self._seen_gossip: set[Atom] = set()
        self.committed: set[Atom] = set()
        self._useq = 0
        self._instance = itertools.count(1)
        self._commit_reqids = itertools.count(1)
        self.commit_rounds = 0

    # -- operations ------------------------------------------------------
    def update(self, value: Any) -> OpGen:
        self._useq += 1
        atom = (self.node_id, self._useq, value)
        self.known.add(atom)
        self._seen_gossip.add(atom)
        self.broadcast(MGossip(atom))
        view = yield from self._agree_and_commit()
        assert atom in view
        return "ACK"

    def scan(self) -> OpGen:
        view = yield from self._agree_and_commit()
        vts = [ValueTs(v, Timestamp(s, w), useq=s) for (w, s, v) in view]
        return extract(vts, self.n)

    def _agree_and_commit(self) -> OpGen:
        # lattice agreement over everything we know (fresh instance id —
        # a new agreement per operation, as in the AHR layering)
        iid = (self.node_id, next(self._instance))
        proposal = frozenset(self.known | self.committed)
        self.phase_enter("agree")
        agreed = yield from self._classifier_run(iid, proposal)
        self.phase_exit("agree")
        candidate = set(agreed) | self.known | self.committed
        # commit-until-stable: return only a view confirmed verbatim by a
        # quorum of monotone `committed` replicas
        self.phase_enter("commit")
        while True:
            self.commit_rounds += 1
            reqid = next(self._commit_reqids)
            want = frozenset(candidate)
            self.committed |= want
            acks = yield from self.quorum_round(
                reqid, MCommit(reqid, want), f"commit quorum (req {reqid})"
            )
            stable = sum(1 for got in acks.values() if got == want)
            for got in acks.values():
                candidate |= got
                self.committed |= got
            if stable >= self.quorum_size and frozenset(candidate) == want:
                self.phase_exit("commit")
                return want

    # -- server thread ------------------------------------------------------
    @handles(MGossip)
    def _on_gossip(self, src: int, m: MGossip) -> None:
        atom = m.atom
        self.known.add(atom)
        if atom not in self._seen_gossip:
            self._seen_gossip.add(atom)
            self.broadcast(MGossip(atom))

    @handles(MCommit)
    def _on_commit(self, src: int, m: MCommit) -> None:
        self.committed |= m.atoms
        self.send(src, MCommitAck(m.reqid, frozenset(self.committed)))

    @handles(MCommitAck)
    def _on_commit_ack(self, src: int, m: MCommitAck) -> None:
        self.round_reply(MCommit, m.reqid, src, m.atoms)


__all__ = ["ClassifierLA", "LatticeAso"]

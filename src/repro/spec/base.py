"""Bases of SCAN operations (Definitions 4 and 5), as prefix vectors.

The *base* of a SCAN that returned ``Snap`` is the union, over all nodes
``j``, of the UPDATE operations by ``j`` up to and including the one whose
value appears in ``Snap[j]`` — per-writer *prefixes*.  A base is therefore
fully described by the n-vector ``c`` of prefix lengths read straight off
``Snapshot.meta`` (``c[j]`` = the ``useq`` visible in segment ``j``, 0 for
``⊥``):

- membership is ``(j, s) ∈ B  ⇔  s ≤ c[j]``;
- containment is ``B1 ⊆ B2  ⇔  c1 ≤ c2`` componentwise (:func:`leq`);
- prefix closure holds by representation, so there is nothing to check.

Every checker in :mod:`repro.spec` works on these vectors: O(n) per base
instead of O(|B|) = O(N), and "all updates of ``j`` that …" becomes one
bisect on :class:`UpdateIndex`'s per-writer timestamp columns, which are
monotone in ``useq`` because nodes are sequential.  :func:`scan_base`
still spells a base out as the set of ``(writer, useq)`` identities of
Definition 4, for display and for the figure walkthroughs; no checker
builds it.
"""

from __future__ import annotations

from itertools import pairwise
from math import inf
from operator import le

from repro.spec.history import History, OpRecord

Base = frozenset[tuple[int, int]]
BaseVector = tuple[int, ...]


def base_vector(scan: OpRecord) -> BaseVector:
    """Base of a completed SCAN as per-writer prefix lengths (Definition 4
    through the snapshot's footnote-2 ``useq`` metadata)."""
    return tuple([0 if m is None else m.useq for m in scan.snapshot().meta])


def scan_base(scan: OpRecord) -> Base:
    """Base of a completed SCAN spelled out as UPDATE identities."""
    return frozenset(
        (j, s) for j, c in enumerate(base_vector(scan)) for s in range(1, c + 1)
    )


def leq(c1: BaseVector, c2: BaseVector) -> bool:
    """``B1 ⊆ B2`` on prefix vectors."""
    return all(map(le, c1, c2))


def comparable(c1: BaseVector, c2: BaseVector) -> bool:
    """Definition 5: bases are comparable iff one contains the other."""
    return leq(c1, c2) or leq(c2, c1)


def incomparable_pairs(vectors: list[BaseVector]) -> list[tuple[int, int]]:
    """Index pairs ``a < b`` of incomparable bases; ``[]`` iff the bases
    form a chain (A1 / S1).

    Sorted by size, a chain is ascending link by link, so one O(S·n) pass
    decides; the pair enumeration runs only to report a failure.
    """
    by_size = sorted(vectors, key=sum)
    if all(leq(a, b) for a, b in pairwise(by_size)):
        return []
    return [
        (a, b)
        for a in range(len(vectors))
        for b in range(a + 1, len(vectors))
        if not comparable(vectors[a], vectors[b])
    ]


class UpdateIndex:
    """Per-writer UPDATE tables of a well-formed history.

    ``ops[j][s - 1]`` is UPDATE ``(j, s)`` (pending ones included: a
    crashed writer's value may still surface in scans); ``t_inv[j]`` and
    ``t_resp[j]`` are the matching timestamp columns (``inf`` while
    pending), both non-decreasing in ``s``.
    """

    __slots__ = ("ops", "t_inv", "t_resp")

    def __init__(self, history: History) -> None:
        self.ops: list[list[OpRecord]] = [[] for _ in range(history.n)]
        for op in history.ops:
            if op.is_update:
                self.ops[op.node].append(op)
        self.t_inv = [[u.t_inv for u in seq] for seq in self.ops]
        self.t_resp = [
            [inf if u.t_resp is None else u.t_resp for u in seq] for seq in self.ops
        ]

    def legality_error(self, scan: OpRecord) -> str | None:
        """Check the snapshot's contents against the history: every
        (writer, useq) it references is a real UPDATE and the returned
        value equals that UPDATE's argument."""
        snap = scan.snapshot()
        for j, c in enumerate(base_vector(scan)):
            if c == 0:
                continue
            if c > len(self.ops[j]):
                return (
                    f"scan {scan.op_id}: segment {j} references unknown "
                    f"update {(j, c)}"
                )
            op = self.ops[j][c - 1]
            if op.args[0] != snap[j]:
                return (
                    f"scan {scan.op_id}: segment {j} value {snap[j]!r} does not "
                    f"match update {(j, c)} which wrote {op.args[0]!r}"
                )
        return None


__all__ = [
    "Base",
    "BaseVector",
    "UpdateIndex",
    "base_vector",
    "comparable",
    "incomparable_pairs",
    "leq",
    "scan_base",
]

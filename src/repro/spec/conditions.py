"""The tight conditions of Theorem 1, as an executable checker.

Given a history, :func:`check_atomicity_conditions` verifies:

- (A1) the bases of any two SCANs are comparable;
- (A2) the base of a SCAN contains every UPDATE that precedes it;
- (A3) if ``sc1 → sc2`` then ``B(sc1) ⊆ B(sc2)``;
- (A4) if an UPDATE ``op`` is in the base of a SCAN, every UPDATE that
  precedes ``op`` is too.

"Precedes" is :meth:`History.occurs_before`: responded strictly before
the other's invocation, *or* earlier in the same node's program order —
which strict timestamps miss when a node invokes at the instant its
previous operation responded.  Program order matters to (A0) (a node's
earlier update is not "from the future"), (A2) (a scan must see its own
node's earlier updates) and (A3) (a node's scans are monotone); it adds
nothing to (A4), because two updates of one node are
two updates of one writer and a base is a per-writer prefix.

plus the well-formedness check the theorem presupposes: each returned
value matches the UPDATE that allegedly wrote it (per-writer prefix
closure holds by representation, :mod:`repro.spec.base`).  By Theorem 1,
all-pass implies the history is linearizable (and
:mod:`repro.spec.linearize` will construct a witness).

``real_time=False`` reads ``→`` as program order only — the gap between
Definition 3 and Definition 2 — and checks our reconstruction of the
technical report's sequential-consistency conditions: (A1), legality and
the per-node parts of (A0), (A2) and (A3) (a scan neither reads its own
future update nor misses its own earlier one; a node's scans are
monotone); (A4) is vacuous.  Both ways, legality aside, the result is
empty iff ``order_check`` at the same level accepts (property-tested).

Every condition is *decided* in O(n log N) per scan on prefix vectors and
the per-writer timestamp columns of :class:`~repro.spec.base.UpdateIndex`
— "every update of ``j`` that responded before ``t``" is the first
``bisect(t_resp[j], t)`` of them, so comparing that count with ``c[j]``
replaces a loop over updates.  Violations are then listed from the same
ranges ((A4) walks the base of a scan that failed); only (A1) and (A3),
whose witnesses are pairs of scans, fall back to enumerating pairs, and
only once a one-pass test has found that a violating pair exists.
:func:`iter_violations` yields them lazily, so the first one costs no
more than the conditions checked before it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Iterator

from repro.spec.base import UpdateIndex, base_vector, incomparable_pairs, leq
from repro.spec.history import History, OpRecord


@dataclass(frozen=True, slots=True)
class Violation:
    """One violated condition, with the witnessing operations."""

    condition: str
    detail: str
    ops: tuple[int, ...]  # op_ids involved

    def __str__(self) -> str:
        return f"[{self.condition}] {self.detail} (ops {self.ops})"


def _own_earlier(updates: UpdateIndex, scan: OpRecord) -> int:
    """How many updates of the scan's own node come before it in program
    order (recording order, see the module docstring)."""
    return bisect_left(updates.ops[scan.node], scan.op_id, key=attrgetter("op_id"))


def _preceding(
    updates: UpdateIndex, j: int, scan: OpRecord, real_time: bool
) -> int:
    """How many updates of writer ``j`` precede ``scan``."""
    if j == scan.node:
        return _own_earlier(updates, scan)
    return bisect_left(updates.t_resp[j], scan.t_inv) if real_time else 0


def check_atomicity_conditions(
    history: History, *, real_time: bool = True
) -> list[Violation]:
    """Run (A0)–(A4) plus well-formedness (``real_time=False``: their
    program-order parts, see the module docstring); returns all
    violations found."""
    return list(iter_violations(history, real_time=real_time))


def iter_violations(history: History, *, real_time: bool) -> Iterator[Violation]:
    """The violations of :func:`check_atomicity_conditions`, in its
    order, found one at a time."""
    history.validate_well_formed()
    scans = history.scans()
    bases = [base_vector(sc) for sc in scans]
    updates = UpdateIndex(history)
    # per scan and writer, how many of the base's updates the history has
    # (all of them unless the scan names a phantom, which "legal" reports)
    in_history = [
        [min(c, len(seq)) for c, seq in zip(base, updates.ops)] for base in bases
    ]

    # well-formedness: legality of returned values
    for sc in scans:
        err = updates.legality_error(sc)
        if err is not None:
            yield Violation("legal", err, (sc.op_id,))

    # (A0) no reads from the future: no update referenced by a scan's
    # base was invoked after the scan responded (``sc → up``, strictly:
    # another node's update invoked at the very instant the scan responds
    # is concurrent with it and may be returned).  Implicit in the paper
    # (a value must physically reach the scanner); made explicit here so
    # that (A0)-(A4) are jointly sufficient (see repro.spec.linearize).
    # On the scan's own node "after" is program order: an instantaneous
    # update and the instantaneous scan after it may share one timestamp.
    for sc, known in zip(scans, in_history):
        for j, k in enumerate(known):
            if j == sc.node:
                early = min(k, _own_earlier(updates, sc))
            elif real_time:
                early = bisect_right(updates.t_inv[j], sc.t_resp, 0, k)
            else:
                continue
            for up in updates.ops[j][early:k]:
                yield Violation(
                    "A0",
                    f"scan {sc.op_id} returned a value of update {up.op_id} "
                    "that was invoked after the scan responded",
                    (up.op_id, sc.op_id),
                )

    # (A1) pairwise comparable bases
    for a, b in incomparable_pairs(bases):
        yield Violation(
            "A1",
            f"bases of scans {scans[a].op_id} and {scans[b].op_id} "
            "are incomparable",
            (scans[a].op_id, scans[b].op_id),
        )

    # (A2) every preceding UPDATE is in the base
    for sc, base in zip(scans, bases):
        missing = [
            up
            for j, c in enumerate(base)
            for up in updates.ops[j][c : _preceding(updates, j, sc, real_time)]
        ]
        for up in sorted(missing, key=lambda up: up.op_id):
            yield Violation(
                "A2",
                f"update {up.op_id} {up.uid()} precedes scan {sc.op_id} "
                "but is missing from its base",
                (up.op_id, sc.op_id),
            )

    # (A3) scan order implies base containment.  Along each node's
    # program order bases must not shrink (``scans`` is in recording
    # order, so consecutive pairs per node decide that); and in real
    # time, sweeping scans by invocation time, the union of the bases of
    # all scans that already responded (a componentwise max) must be
    # inside each new base.
    own_last: list[tuple[int, ...] | None] = [None] * history.n
    monotone = True
    for sc, base in zip(scans, bases):
        prev = own_last[sc.node]
        if prev is not None and not leq(prev, base):
            monotone = False
            break
        own_last[sc.node] = base
    if monotone and real_time:
        by_resp = sorted(range(len(scans)), key=lambda i: scans[i].t_resp)
        responded = [0] * history.n
        r = 0
        for sc, base in sorted(zip(scans, bases), key=lambda pair: pair[0].t_inv):
            while r < len(by_resp) and scans[by_resp[r]].t_resp < sc.t_inv:
                responded = list(map(max, responded, bases[by_resp[r]]))
                r += 1
            if not leq(responded, base):
                monotone = False
                break
    if not monotone:
        for sc1, base1 in zip(scans, bases):
            for sc2, base2 in zip(scans, bases):
                if not leq(base1, base2) and History.occurs_before(
                    sc1, sc2, real_time=real_time
                ):
                    yield Violation(
                        "A3",
                        f"scan {sc1.op_id} precedes scan {sc2.op_id} but "
                        "B(sc1) ⊄ B(sc2)",
                        (sc1.op_id, sc2.op_id),
                    )
    if not real_time:
        return  # (A4) relates updates of one writer only: vacuous

    # (A4) bases are closed under the precedes relation on updates.  A
    # writer's invocation times grow with useq, so whatever precedes any
    # update in the base precedes the latest-invoked one: one bisect per
    # writer against that time decides; the triples are listed only for a
    # scan that failed.  (Strict timestamps suffice here: program order
    # relates updates of one writer, which a prefix cannot separate.)
    for sc, base, known in zip(scans, bases, in_history):
        latest_inv = max(
            (updates.t_inv[w][k - 1] for w, k in enumerate(known) if k), default=-inf
        )
        if all(
            bisect_left(updates.t_resp[j], latest_inv) <= c
            for j, c in enumerate(base)
        ):
            continue
        for w, k in enumerate(known):
            for v in updates.ops[w][:k]:
                for j, c in enumerate(base):
                    before_v = bisect_left(updates.t_resp[j], v.t_inv)
                    for u in updates.ops[j][c:before_v]:
                        yield Violation(
                            "A4",
                            f"update {u.op_id} precedes update {v.op_id} "
                            f"which is in the base of scan {sc.op_id}, but "
                            f"{u.op_id} is not",
                            (u.op_id, v.op_id, sc.op_id),
                        )


__all__ = ["Violation", "check_atomicity_conditions", "iter_violations"]

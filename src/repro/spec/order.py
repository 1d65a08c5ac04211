"""Exact order-theoretic checker for snapshot histories.

Complementing the (A1)–(A4) condition checker, this module decides
linearizability / sequential consistency of a single-writer snapshot
history *exactly* by testing the graph of forced orderings for a cycle.
The forced orderings are:

- ``u → sc``   if UPDATE ``u`` is in the base of SCAN ``sc``
  (a legal serialization must apply ``u`` first);
- ``sc → u``   if ``u`` is *not* in the base (if ``u`` preceded ``sc`` in a
  legal order, per-writer prefix closure would force it into the base);
- ``sc1 → sc2`` if ``B(sc1) ⊊ B(sc2)``;
- per-node program order;
- (linearizability only) ``op → op'`` whenever ``op`` responds before
  ``op'`` is invoked.

Every edge is *forced* (no legal order can invert it), so a cycle proves
non-linearizability / non-SC, and any topological order is — by
construction — a legal serialization.  This gives both a decision
procedure and a witness constructor; the witness is independently
re-validated by :func:`validate_serialization`.

**The graph that is built is a transitive reduction.**  There are ~N²
forced orderings, but bases are per-writer prefixes and nodes are
sequential, so almost all of them are paths of a few *kept* edges
(:func:`_build_graph`, ≤ (3n+1)·N edges for N ops on n nodes):

- program order: each op's immediate successor on its node;
- per scan ``sc`` with prefix vector ``c`` and writer ``j``:
  ``(j, c[j]) → sc`` and ``sc → (j, c[j]+1)``.  Every other
  ``(j, s) → sc`` with ``s < c[j]`` is ``(j, s) → … → (j, c[j]) → sc``
  along ``j``'s program order, and symmetrically for ``s > c[j]+1``;
- ``sc1 → sc2`` for ``c1 ≤ c2``, ``c1 ≠ c2`` is never stored: pick ``j``
  with ``c1[j] < c2[j]``; UPDATE ``(j, c1[j]+1)`` is outside ``B(sc1)``
  and inside ``B(sc2)``, so ``sc1 → (j, c1[j]+1) → … → sc2`` is a path of
  membership and program-order edges;
- real time: for op ``b`` and each other node ``p``, one edge from ``p``'s
  *last* op that responded before ``b`` was invoked (a bisect on ``p``'s
  ``t_resp`` column, monotone because ``p`` is sequential); every earlier
  op of ``p`` reaches ``b`` through it by program order.

Each kept edge is itself a forced ordering and each dropped one is a path
of kept ones, so the two graphs have the same transitive closure, hence
the same cycles-or-not.  The witness is the same too: Kahn's algorithm
only ever emits down-closed sets, so "all predecessors emitted" equals
"all ancestors emitted" and the ready set at every step is a function of
the closure alone; with the same ``(t_inv, op_id)`` tie-break the emitted
order is identical.  Cost: O(n·N·log N) time, O(n·N) space.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import inf

from repro.spec.base import base_vector
from repro.spec.history import History, OpRecord


class CheckerInternalError(RuntimeError):
    """A checker's own witness failed independent re-validation — a bug
    in :mod:`repro.spec`, never a property of the history."""


@dataclass(slots=True)
class OrderResult:
    """Outcome of the graph-based check.

    Attributes:
        ok: True iff a legal serialization exists.
        order: the witness serialization (op records, in order) when ok.
        cycle: op_ids forming a violating cycle when not ok — each step
            (and last → first) is one forced ordering.  A single id is a
            scan that returned an UPDATE the history does not contain.
    """

    ok: bool
    order: list[OpRecord] = field(default_factory=list)
    cycle: list[int] = field(default_factory=list)


def effective_ops(history: History) -> list[OpRecord]:
    """Operations that must appear in a serialization: all completed ops,
    plus pending UPDATEs whose value is visible in some completed scan
    (a crashed writer's update that "took effect")."""
    visible = [0] * history.n
    for sc in history.scans():
        visible = list(map(max, visible, base_vector(sc)))
    return [
        op
        for op in history.ops
        if op.complete or (op.is_update and op.useq <= visible[op.node])
    ]


def _build_graph(
    history: History, *, real_time: bool
) -> tuple[list[OpRecord], list[list[int]]]:
    """The effective ops and the reduced forced-order graph over their
    positions (module docstring).  Positions follow ``op_id``."""
    ops = effective_ops(history)
    adj: list[list[int]] = [[] for _ in ops]
    per_node: list[list[int]] = [[] for _ in range(history.n)]
    updates: list[list[int]] = [[] for _ in range(history.n)]  # [j][s-1] = (j, s)
    for i, op in enumerate(ops):
        seq = per_node[op.node]
        if seq:
            adj[seq[-1]].append(i)
        seq.append(i)
        if op.is_update:
            updates[op.node].append(i)

    for i, op in enumerate(ops):
        if not op.is_scan:
            continue
        for j, c in enumerate(base_vector(op)):
            written = updates[j]
            if c > len(written):
                # names an UPDATE that is not in the history: nothing can
                # precede this scan far enough, which is the edge sc → sc
                adj[i].append(i)
                continue
            if c:
                adj[written[c - 1]].append(i)
            if c < len(written):
                adj[i].append(written[c])

    if real_time:
        t_resp = [
            [inf if ops[i].t_resp is None else ops[i].t_resp for i in seq]
            for seq in per_node
        ]
        for i, op in enumerate(ops):
            for p, seq in enumerate(per_node):
                if p != op.node:
                    k = bisect_left(t_resp[p], op.t_inv)
                    if k:
                        adj[seq[k - 1]].append(i)

    return ops, adj


def _topo_order(ops: list[OpRecord], adj: list[list[int]]) -> OrderResult:
    indeg = [0] * len(ops)
    for succs in adj:
        for b in succs:
            indeg[b] += 1
    # deterministic tie-break: invocation time, then op id (= position)
    ready = [(op.t_inv, i) for i, op in enumerate(ops) if not indeg[i]]
    heapify(ready)
    order: list[OpRecord] = []
    while ready:
        _, i = heappop(ready)
        order.append(ops[i])
        for b in adj[i]:
            indeg[b] -= 1
            if not indeg[b]:
                heappush(ready, (ops[b].t_inv, b))
    if len(order) == len(ops):
        return OrderResult(ok=True, order=order)
    stuck = {i for i, d in enumerate(indeg) if d}
    return OrderResult(
        ok=False, cycle=[ops[i].op_id for i in _find_cycle(stuck, adj)]
    )


def _find_cycle(stuck: set[int], adj: list[list[int]]) -> list[int]:
    """A cycle among the positions Kahn's algorithm could not emit.  Each
    of them still has an un-emitted predecessor, so walking predecessors
    from any of them must revisit a position; the walk between the two
    visits, reversed, is a cycle — reported from its smallest position."""
    pred: dict[int, int] = {}
    for a in sorted(stuck):
        for b in adj[a]:
            if b in stuck:
                pred.setdefault(b, a)
    seen: dict[int, int] = {}
    walk: list[int] = []
    at = min(stuck)
    while at not in seen:
        seen[at] = len(walk)
        walk.append(at)
        at = pred[at]
    cycle = walk[seen[at] :][::-1]
    first = cycle.index(min(cycle))
    return cycle[first:] + cycle[:first]


def order_check(history: History, *, real_time: bool) -> OrderResult:
    """Decide (and witness) linearizability (``real_time=True``) or
    sequential consistency (``real_time=False``)."""
    history.validate_well_formed()
    ops, adj = _build_graph(history, real_time=real_time)
    result = _topo_order(ops, adj)
    if result.ok:
        errs = validate_serialization(history, result.order, real_time=real_time)
        if errs:
            raise CheckerInternalError(
                "constraint-graph witness failed validation: " + "; ".join(errs)
            )
    return result


def validate_serialization(
    history: History, order: list[OpRecord], *, real_time: bool
) -> list[str]:
    """Independently validate a candidate serialization: legality against
    the sequential specification (Definition 1), equivalence with the
    history (per-node subsequences), and — for linearizations — the
    real-time order.  Returns a list of error strings (empty = valid).

    One pass each, O(n·N) in all; the pairwise real-time enumeration runs
    only to name the inverted pairs once the pass has found that some
    exist."""
    errors: list[str] = []
    # equivalence: exactly the effective ops, per-node order preserved
    expected = effective_ops(history)
    if {o.op_id for o in order} != {o.op_id for o in expected}:
        errors.append("serialization does not contain exactly the effective ops")
    hist_ids: dict[int, list[int]] = {}
    for op in expected:
        hist_ids.setdefault(op.node, []).append(op.op_id)
    per_node_seen: dict[int, list[int]] = {}
    for op in order:
        per_node_seen.setdefault(op.node, []).append(op.op_id)
    for node, ids in per_node_seen.items():
        if ids != hist_ids.get(node, []):
            errors.append(
                f"node {node} order differs: {ids} vs history "
                f"{hist_ids.get(node, [])}"
            )

    # legality: replay the sequential specification on prefix vectors
    applied = [0] * history.n  # useq of each writer's latest applied UPDATE
    useq_count = [0] * history.n
    for op in order:
        if op.is_update:
            useq_count[op.node] += 1
            if useq_count[op.node] != op.useq:
                errors.append(
                    f"update {op.op_id} applied out of per-writer order "
                    f"(expected useq {useq_count[op.node]}, has {op.useq})"
                )
            applied[op.node] = op.useq
        elif op.is_scan:
            returned = base_vector(op)
            if list(returned) != applied:
                for j, (got, want) in enumerate(
                    zip(returned, applied, strict=True)
                ):
                    if got != want:
                        errors.append(
                            f"scan {op.op_id} segment {j}: returned "
                            f"{(j, got) if got else None}, sequential spec "
                            f"expects {(j, want) if want else None}"
                        )

    if real_time:
        # an inversion exists iff some op responded before the invocation
        # of one placed ahead of it, i.e. before the running max of t_inv
        latest_inv = -inf
        inverted = False
        for op in order:
            if op.t_resp is not None and op.t_resp < latest_inv:
                inverted = True
                break
            latest_inv = max(latest_inv, op.t_inv)
        if inverted:
            pos = {op.op_id: idx for idx, op in enumerate(order)}
            for a in order:
                for b in order:
                    if History.precedes(a, b) and pos[a.op_id] > pos[b.op_id]:
                        errors.append(
                            f"real-time violation: {a.op_id} → {b.op_id} inverted"
                        )
    return errors


__all__ = [
    "CheckerInternalError",
    "OrderResult",
    "effective_ops",
    "order_check",
    "validate_serialization",
]

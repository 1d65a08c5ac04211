"""Brute-force linearizability / sequential-consistency checkers.

Exponential-time references that cross-validate the polynomial checker
(:mod:`repro.spec.order`) on small histories: the chaos runner re-decides
every campaign history of ≤ :data:`~repro.chaos.runner.BRUTE_LIMIT`
effective ops, the property tests the Theorem 1 constructions.  The
search is a memoized DFS over prefixes of candidate serializations, in
the style of Wing & Gong; legality is evaluated incrementally against
the sequential specification of Definition 1.
"""

from __future__ import annotations

from repro.spec.history import History
from repro.spec.order import effective_ops


def _search(history: History, *, real_time: bool, max_ops: int) -> bool:
    ops = effective_ops(history)
    if len(ops) > max_ops:
        raise ValueError(
            f"brute-force checker limited to {max_ops} ops, got {len(ops)}"
        )
    ops = sorted(ops, key=lambda o: o.op_id)
    index = {op.op_id: i for i, op in enumerate(ops)}
    m = len(ops)
    n = history.n

    # precompute per-node program order and real-time predecessors as bitmasks
    preds = [0] * m
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if a is b:
                continue
            forced = False
            if a.node == b.node and a.op_id < b.op_id:
                forced = True  # program order is recording order
            if real_time and History.precedes(a, b):
                forced = True
            if forced:
                preds[index[b.op_id]] |= 1 << i

    # scan expectations: tuple over writers of expected (useq or 0)
    scan_expect: dict[int, tuple[int, ...]] = {}
    for i, op in enumerate(ops):
        if op.is_scan:
            snap = op.snapshot()
            exp = []
            for j in range(n):
                uid = snap.segment_uid(j)
                exp.append(0 if uid is None else uid[1])
            scan_expect[i] = tuple(exp)

    seen: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(done_mask: int, counters: tuple[int, ...]) -> bool:
        if done_mask == (1 << m) - 1:
            return True
        key = (done_mask, counters)
        if key in seen:
            return False
        seen.add(key)
        for i, op in enumerate(ops):
            bit = 1 << i
            if done_mask & bit:
                continue
            if preds[i] & ~done_mask:
                continue  # a forced predecessor is not yet placed
            if op.is_update:
                new_counters = list(counters)
                new_counters[op.node] += 1
                if new_counters[op.node] != op.useq:
                    continue  # per-writer sequence violated
                if dfs(done_mask | bit, tuple(new_counters)):
                    return True
            else:  # scan: legality — counters must match expectations
                if scan_expect[i] != counters:
                    continue
                if dfs(done_mask | bit, counters):
                    return True
        return False

    return dfs(0, tuple([0] * n))


def brute_force_linearizable(history: History, *, max_ops: int = 10) -> bool:
    """Exhaustively decide linearizability (small histories only)."""
    history.validate_well_formed()
    return _search(history, real_time=True, max_ops=max_ops)


def brute_force_sequentially_consistent(
    history: History, *, max_ops: int = 10
) -> bool:
    """Exhaustively decide sequential consistency (small histories only)."""
    history.validate_well_formed()
    return _search(history, real_time=False, max_ops=max_ops)


__all__ = ["brute_force_linearizable", "brute_force_sequentially_consistent"]

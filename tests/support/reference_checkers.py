"""Reference implementations of the exact checkers — test oracles.

The shipped :mod:`repro.spec` represents a base as the vector of
per-writer prefix lengths and builds only a transitive reduction of the
forced-order graph.  The originals live here, unchanged: a base as the
frozenset of ``(writer, useq)`` identities, the dense graph with every
one of the ~N² forced edges, the pairwise real-time validation loop, the
(A0)–(A4) checker as loops over pairs and triples, and the O(S·U) Step II
slotting ("precedes" in (A0)–(A4) is ``History.occurs_before`` at the
checked level, as in the shipped conditions).  The (S1)–(S4)
sequential-consistency conditions as once shipped, over sets, are kept
as a verdict oracle for ``check_atomicity_conditions(…, real_time=False)``.
``tests/spec/test_reference_checkers.py``
proves the shipped checkers give the same verdicts, witnesses and
violations.  Nothing under ``src/`` knows these exist.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.spec.conditions import Violation
from repro.spec.history import History, OpRecord
from repro.spec.linearize import LinearizationError
from repro.spec.order import OrderResult

Base = frozenset[tuple[int, int]]


def update_registry(history: History) -> dict[tuple[int, int], OpRecord]:
    """Map (writer, useq) → UPDATE op (pending updates included: a
    crashed writer's value may still surface in scans)."""
    return {op.uid(): op for op in history.ops if op.is_update}


# -- bases as sets (spec/base.py at PR 12) ---------------------------------

def scan_base(scan: OpRecord) -> Base:
    """Base of a completed SCAN, per Definition 4.

    Uses the snapshot's metadata (writer, useq) — the paper's footnote-2
    unique-operation identities — to build the per-writer prefixes.
    """
    snap = scan.snapshot()
    out: set[tuple[int, int]] = set()
    for j in range(snap.n):
        uid = scan.snapshot().segment_uid(j)
        if uid is None:
            continue
        writer, useq = uid
        for s in range(1, useq + 1):
            out.add((writer, s))
    return frozenset(out)


def base_restricted(base: Base, writer: int) -> frozenset[int]:
    """The useq's of ``writer`` present in the base (``B[i]`` in the paper)."""
    return frozenset(s for (w, s) in base if w == writer)


def comparable(b1: Base, b2: Base) -> bool:
    """Definition 5: bases are comparable iff one contains the other."""
    return b1 <= b2 or b2 <= b1


def is_prefix_closed(base: Base) -> bool:
    """Per-writer prefix closure (implied by Definition 4's construction;
    re-checked because algorithms hand us raw snapshots)."""
    for writer in {w for (w, _) in base}:
        seqs = base_restricted(base, writer)
        if seqs and seqs != frozenset(range(1, max(seqs) + 1)):
            return False
    return True


def legal_against_history(scan: OpRecord, history: History) -> str | None:
    """Check the snapshot's contents are consistent with the history:
    every (writer, useq) it references is a real UPDATE and the returned
    value equals that UPDATE's argument.  Returns an error string or None.
    """
    registry = update_registry(history)
    snap = scan.snapshot()
    for j in range(snap.n):
        uid = snap.segment_uid(j)
        if uid is None:
            continue
        op = registry.get(uid)
        if op is None:
            return f"scan {scan.op_id}: segment {j} references unknown update {uid}"
        if op.args[0] != snap[j]:
            return (
                f"scan {scan.op_id}: segment {j} value {snap[j]!r} does not "
                f"match update {uid} which wrote {op.args[0]!r}"
            )
    return None


# -- dense forced-order graph (spec/order.py at PR 12) --------------------

def effective_ops(history: History) -> list[OpRecord]:
    """Operations that must appear in a serialization: all completed ops,
    plus pending UPDATEs whose value is visible in some completed scan
    (a crashed writer's update that "took effect")."""
    visible: set[tuple[int, int]] = set()
    for sc in history.scans():
        visible |= scan_base(sc)
    out: list[OpRecord] = []
    for op in history.ops:
        if op.complete:
            out.append(op)
        elif op.is_update and op.uid() in visible:
            out.append(op)
    return out


def _build_graph(
    history: History, *, real_time: bool
) -> tuple[list[OpRecord], dict[int, set[int]]]:
    ops = effective_ops(history)
    bases: dict[int, Base] = {
        op.op_id: scan_base(op) for op in ops if op.is_scan
    }
    included = {op.op_id for op in ops}
    adj: dict[int, set[int]] = {op.op_id: set() for op in ops}

    def add(a: int, b: int) -> None:
        if a != b:
            adj[a].add(b)

    # program order per node
    per_node: dict[int, list[OpRecord]] = {}
    for op in ops:
        per_node.setdefault(op.node, []).append(op)
    for seq in per_node.values():
        seq.sort(key=lambda o: o.t_inv)
        for a, b in zip(seq, seq[1:]):
            add(a.op_id, b.op_id)

    scans = [op for op in ops if op.is_scan]
    updates = [op for op in ops if op.is_update]

    # update/scan membership edges
    for sc in scans:
        base = bases[sc.op_id]
        for up in updates:
            if up.uid() in base:
                add(up.op_id, sc.op_id)
            else:
                add(sc.op_id, up.op_id)

    # scan/scan base-containment edges
    for sc1 in scans:
        for sc2 in scans:
            if sc1 is not sc2 and bases[sc1.op_id] < bases[sc2.op_id]:
                add(sc1.op_id, sc2.op_id)

    # real-time edges (linearizability only)
    if real_time:
        for a in ops:
            if a.t_resp is None:
                continue
            for b in ops:
                if a is not b and History.precedes(a, b):
                    add(a.op_id, b.op_id)

    return ops, adj


def _topo_order(
    ops: list[OpRecord], adj: dict[int, set[int]]
) -> OrderResult:
    by_id = {op.op_id: op for op in ops}
    indeg = {op.op_id: 0 for op in ops}
    for a, succs in adj.items():
        for b in succs:
            indeg[b] += 1
    # deterministic tie-break: invocation time, then op id
    ready: list[tuple[float, int]] = []
    for op in ops:
        if indeg[op.op_id] == 0:
            heappush(ready, (op.t_inv, op.op_id))
    order: list[OpRecord] = []
    while ready:
        _, oid = heappop(ready)
        order.append(by_id[oid])
        for b in adj[oid]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heappush(ready, (by_id[b].t_inv, b))
    if len(order) != len(ops):
        # find a cycle among the remaining nodes for diagnostics
        remaining = {oid for oid, d in indeg.items() if d > 0}
        cycle = _find_cycle(remaining, adj)
        return OrderResult(ok=False, cycle=cycle)
    return OrderResult(ok=True, order=order)


def _find_cycle(nodes: set[int], adj: dict[int, set[int]]) -> list[int]:
    colour: dict[int, int] = {}  # 0 unseen / 1 on stack / 2 done
    stack: list[int] = []

    def dfs(u: int) -> list[int] | None:
        colour[u] = 1
        stack.append(u)
        for v in adj.get(u, ()):
            if v not in nodes:
                continue
            c = colour.get(v, 0)
            if c == 1:
                return stack[stack.index(v) :]
            if c == 0:
                found = dfs(v)
                if found is not None:
                    return found
        colour[u] = 2
        stack.pop()
        return None

    for start in sorted(nodes):
        if colour.get(start, 0) == 0:
            found = dfs(start)
            if found is not None:
                return list(found)
    return []


def order_check(history: History, *, real_time: bool) -> OrderResult:
    """Decide (and witness) linearizability (``real_time=True``) or
    sequential consistency (``real_time=False``)."""
    history.validate_well_formed()
    ops, adj = _build_graph(history, real_time=real_time)
    result = _topo_order(ops, adj)
    if result.ok:
        errs = validate_serialization(history, result.order, real_time=real_time)
        if errs:
            raise AssertionError(
                "constraint-graph witness failed validation: " + "; ".join(errs)
            )
    return result


def validate_serialization(
    history: History, order: list[OpRecord], *, real_time: bool
) -> list[str]:
    """Independently validate a candidate serialization: legality against
    the sequential specification (Definition 1), equivalence with the
    history (per-node subsequences), and — for linearizations — the
    real-time order.  Returns a list of error strings (empty = valid)."""
    errors: list[str] = []
    # equivalence: exactly the effective ops, per-node order preserved
    expected = effective_ops(history)
    if {o.op_id for o in order} != {o.op_id for o in expected}:
        errors.append("serialization does not contain exactly the effective ops")
    per_node_seen: dict[int, list[int]] = {}
    for op in order:
        per_node_seen.setdefault(op.node, []).append(op.op_id)
    for node, ids in per_node_seen.items():
        hist_ids = [
            o.op_id
            for o in sorted(
                (x for x in expected if x.node == node), key=lambda o: o.t_inv
            )
        ]
        if ids != hist_ids:
            errors.append(f"node {node} order differs: {ids} vs history {hist_ids}")

    # legality: replay the sequential specification
    latest: dict[int, tuple[int, int] | None] = {j: None for j in range(history.n)}
    useq_count = {j: 0 for j in range(history.n)}
    for op in order:
        if op.is_update:
            useq_count[op.node] += 1
            if useq_count[op.node] != op.useq:
                errors.append(
                    f"update {op.op_id} applied out of per-writer order "
                    f"(expected useq {useq_count[op.node]}, has {op.useq})"
                )
            latest[op.node] = op.uid()
        elif op.is_scan:
            snap = op.snapshot()
            for j in range(history.n):
                got = snap.segment_uid(j)
                if got != latest[j]:
                    errors.append(
                        f"scan {op.op_id} segment {j}: returned {got}, "
                        f"sequential spec expects {latest[j]}"
                    )

    if real_time:
        pos = {op.op_id: idx for idx, op in enumerate(order)}
        for a in order:
            for b in order:
                if History.precedes(a, b) and pos[a.op_id] > pos[b.op_id]:
                    errors.append(
                        f"real-time violation: {a.op_id} → {b.op_id} inverted"
                    )
    return errors


# -- (A0)-(A4) over sets (spec/conditions.py at PR 12) -------------------

def check_atomicity_conditions(
    history: History, *, real_time: bool = True
) -> list[Violation]:
    """Run (A1)–(A4) plus well-formedness; returns all violations found.
    ``real_time=False`` reads "precedes" as program order only."""
    history.validate_well_formed()
    violations: list[Violation] = []
    scans = history.scans()
    updates = [op for op in history.ops if op.is_update]

    def before(a: OpRecord, b: OpRecord) -> bool:
        return History.occurs_before(a, b, real_time=real_time)
    bases = {sc.op_id: scan_base(sc) for sc in scans}

    # well-formedness: legality of returned values + prefix closure
    for sc in scans:
        err = legal_against_history(sc, history)
        if err is not None:
            violations.append(Violation("legal", err, (sc.op_id,)))
        if not is_prefix_closed(bases[sc.op_id]):
            violations.append(
                Violation(
                    "prefix",
                    f"scan {sc.op_id} has a non-prefix-closed base",
                    (sc.op_id,),
                )
            )

    # (A0) no reads from the future: no update referenced by a scan's
    # base comes after the scan (``sc → up``: strictly later, or later in
    # the scan's own program order).  Implicit in the paper (a value must
    # physically reach the scanner); made explicit here so that (A0)-(A4)
    # are jointly sufficient (see repro.spec.linearize).
    registry0 = update_registry(history)
    for sc in scans:
        for uid in bases[sc.op_id]:
            up = registry0.get(uid)
            if up is not None and before(sc, up):
                violations.append(
                    Violation(
                        "A0",
                        f"scan {sc.op_id} returned a value of update {up.op_id} "
                        "that was invoked after the scan responded",
                        (up.op_id, sc.op_id),
                    )
                )

    # (A1) pairwise comparable bases
    for a in range(len(scans)):
        for b in range(a + 1, len(scans)):
            sc1, sc2 = scans[a], scans[b]
            if not comparable(bases[sc1.op_id], bases[sc2.op_id]):
                violations.append(
                    Violation(
                        "A1",
                        f"bases of scans {sc1.op_id} and {sc2.op_id} are incomparable",
                        (sc1.op_id, sc2.op_id),
                    )
                )

    # (A2) every preceding UPDATE is in the base
    for sc in scans:
        base = bases[sc.op_id]
        for up in updates:
            if before(up, sc) and up.uid() not in base:
                violations.append(
                    Violation(
                        "A2",
                        f"update {up.op_id} {up.uid()} precedes scan {sc.op_id} "
                        "but is missing from its base",
                        (up.op_id, sc.op_id),
                    )
                )

    # (A3) scan order implies base containment
    for sc1 in scans:
        for sc2 in scans:
            if sc1 is sc2 or not before(sc1, sc2):
                continue
            if not bases[sc1.op_id] <= bases[sc2.op_id]:
                violations.append(
                    Violation(
                        "A3",
                        f"scan {sc1.op_id} precedes scan {sc2.op_id} but "
                        "B(sc1) ⊄ B(sc2)",
                        (sc1.op_id, sc2.op_id),
                    )
                )

    # (A4) bases are closed under the precedes relation on updates
    registry = update_registry(history)
    for sc in scans:
        base = bases[sc.op_id]
        in_base = [registry[uid] for uid in base if uid in registry]
        for v in in_base:
            for u in updates:
                if before(u, v) and u.uid() not in base:
                    violations.append(
                        Violation(
                            "A4",
                            f"update {u.op_id} precedes update {v.op_id} which is "
                            f"in the base of scan {sc.op_id}, but {u.op_id} is not",
                            (u.op_id, v.op_id, sc.op_id),
                        )
                    )
    return violations


# -- (S1)-(S4) over sets (the verdict oracle for real_time=False) ----------

def check_sso_conditions(history: History) -> list[Violation]:
    """Check (S1)–(S4); empty result ⟺ the history is sequentially
    consistent (property-tested equivalence with the exact checker)."""
    history.validate_well_formed()
    violations: list[Violation] = []
    scans = history.scans()
    bases = {sc.op_id: scan_base(sc) for sc in scans}

    # (S4) well-formedness
    for sc in scans:
        err = legal_against_history(sc, history)
        if err is not None:
            violations.append(Violation("S4", err, (sc.op_id,)))
        if not is_prefix_closed(bases[sc.op_id]):
            violations.append(
                Violation(
                    "S4",
                    f"scan {sc.op_id} has a non-prefix-closed base",
                    (sc.op_id,),
                )
            )

    # (S1) comparability
    for i in range(len(scans)):
        for j in range(i + 1, len(scans)):
            a, b = bases[scans[i].op_id], bases[scans[j].op_id]
            if not (a <= b or b <= a):
                violations.append(
                    Violation(
                        "S1",
                        f"bases of scans {scans[i].op_id} and "
                        f"{scans[j].op_id} are incomparable",
                        (scans[i].op_id, scans[j].op_id),
                    )
                )

    # per-node program-order conditions
    for node in range(history.n):
        ops = sorted(
            (op for op in history.ops if op.node == node and op.complete),
            key=lambda o: o.t_inv,
        )
        updates_so_far = 0
        last_scan_base = None
        last_scan_id = None
        for op in ops:
            if op.is_update:
                updates_so_far += 1
            else:
                base = bases[op.op_id]
                own = {s for (w, s) in base if w == node}
                # (S2a): all own preceding updates visible
                expected = set(range(1, updates_so_far + 1))
                if not expected <= own:
                    violations.append(
                        Violation(
                            "S2a",
                            f"scan {op.op_id} at node {node} misses its own "
                            f"update(s) {sorted(expected - own)}",
                            (op.op_id,),
                        )
                    )
                # (S3): no own future reads
                future = {s for s in own if s > updates_so_far}
                if future:
                    violations.append(
                        Violation(
                            "S3",
                            f"scan {op.op_id} at node {node} returns its own "
                            f"future update(s) {sorted(future)}",
                            (op.op_id,),
                        )
                    )
                # (S2b): own scan bases monotone
                if last_scan_base is not None and not (last_scan_base <= base):
                    violations.append(
                        Violation(
                            "S2b",
                            f"scan {op.op_id} at node {node} has a smaller "
                            f"base than its predecessor {last_scan_id}",
                            (op.op_id,),
                        )
                    )
                last_scan_base, last_scan_id = base, op.op_id
    return violations


# -- Theorem 1 construction (spec/linearize.py at PR 12) ------------------

def linearize(history: History) -> list[OpRecord]:
    """Construct a linearization per Theorem 1 (Steps I and II).

    Raises:
        LinearizationError: if the history violates the tight conditions.
    """
    violations = check_atomicity_conditions(history)
    if violations:
        raise LinearizationError(violations)

    ops = effective_ops(history)
    scans = [op for op in ops if op.is_scan]
    updates = [op for op in ops if op.is_update]
    bases = {sc.op_id: scan_base(sc) for sc in scans}

    # Step I: scans ordered by base inclusion, ties by invocation time.
    # (A1) guarantees bases form a chain, so (|base|, t_inv) sorts them.
    scans_ordered = sorted(
        scans, key=lambda sc: (len(bases[sc.op_id]), sc.t_inv, sc.op_id)
    )

    # Step II: place each update before the first scan containing it.
    slot_of: dict[int, int] = {}
    for up in updates:
        uid = up.uid()
        slot = len(scans_ordered)  # default: after all scans
        for idx, sc in enumerate(scans_ordered):
            if uid in bases[sc.op_id]:
                slot = idx
                break
        slot_of[up.op_id] = slot

    linearization: list[OpRecord] = []
    for idx in range(len(scans_ordered) + 1):
        batch = [up for up in updates if slot_of[up.op_id] == idx]
        batch.sort(key=lambda op: (op.t_inv, op.op_id))
        linearization.extend(batch)
        if idx < len(scans_ordered):
            linearization.append(scans_ordered[idx])

    errors = validate_serialization(history, linearization, real_time=True)
    if errors:
        raise AssertionError(
            "Theorem 1 construction produced an invalid linearization "
            "(checker bug): " + "; ".join(errors)
        )
    return linearization

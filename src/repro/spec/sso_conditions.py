"""Tight conditions for sequentially consistent snapshot objects.

The paper identifies necessary and sufficient conditions for SSO alongside
the ASO conditions, deferring the statement to its technical report
(Sec. I-B: "we identify necessary and sufficient conditions for correctly
implementing ASO and SSO").  This module states and checks our
reconstruction; its equivalence with the exact decision procedure
(:func:`repro.spec.order.order_check` without real-time edges) is
property-tested against randomized histories, so the conditions below are
*machine-checked tight* for the histories this library produces:

- **(S1)** the bases of any two SCANs are comparable (= A1);
- **(S2a)** a node's own UPDATE is in the base of its own later SCANs;
- **(S2b)** the bases of a node's own SCANs are monotone in program order;
- **(S3)** a SCAN's base never contains a *later* UPDATE of its own node
  (no reads of one's own future);
- **(S4)** every returned value matches the UPDATE that wrote it
  (well-formedness; per-writer prefix closure holds by representation).

Relative to the ASO conditions, the real-time requirements (A0, A2, A3
across nodes, A4) are dropped and replaced by their per-node shadows —
which is precisely the semantic gap between Definition 3 and Definition 2.
"""

from __future__ import annotations

from repro.spec.base import UpdateIndex, base_vector, incomparable_pairs, leq
from repro.spec.conditions import Violation
from repro.spec.history import History, OpRecord


def check_sso_conditions(history: History) -> list[Violation]:
    """Check (S1)–(S4); empty result ⟺ the history is sequentially
    consistent (property-tested equivalence with the exact checker)."""
    history.validate_well_formed()
    violations: list[Violation] = []
    scans = history.scans()
    bases = {sc.op_id: base_vector(sc) for sc in scans}

    # (S4) well-formedness
    updates = UpdateIndex(history)
    for sc in scans:
        err = updates.legality_error(sc)
        if err is not None:
            violations.append(Violation("S4", err, (sc.op_id,)))

    # (S1) comparability
    for a, b in incomparable_pairs([bases[sc.op_id] for sc in scans]):
        violations.append(
            Violation(
                "S1",
                f"bases of scans {scans[a].op_id} and "
                f"{scans[b].op_id} are incomparable",
                (scans[a].op_id, scans[b].op_id),
            )
        )

    # per-node program-order conditions
    program: list[list[OpRecord]] = [[] for _ in range(history.n)]
    for op in history.ops:
        if op.complete:
            program[op.node].append(op)
    for node, ops in enumerate(program):
        updates_so_far = 0
        last_scan_base = None
        last_scan_id = None
        for op in ops:
            if op.is_update:
                updates_so_far += 1
            elif op.is_scan:
                base = bases[op.op_id]
                own = base[node]
                # (S2a): all own preceding updates visible
                if own < updates_so_far:
                    violations.append(
                        Violation(
                            "S2a",
                            f"scan {op.op_id} at node {node} misses its own "
                            f"update(s) {list(range(own + 1, updates_so_far + 1))}",
                            (op.op_id,),
                        )
                    )
                # (S3): no own future reads
                if own > updates_so_far:
                    violations.append(
                        Violation(
                            "S3",
                            f"scan {op.op_id} at node {node} returns its own "
                            f"future update(s) {list(range(updates_so_far + 1, own + 1))}",
                            (op.op_id,),
                        )
                    )
                # (S2b): own scan bases monotone
                if last_scan_base is not None and not leq(last_scan_base, base):
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


__all__ = ["check_sso_conditions"]

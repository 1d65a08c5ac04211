"""Constructive linearization — the sufficiency proof of Theorem 1.

Implements the paper's two-step construction verbatim:

- **Step I**: order all SCAN operations by base inclusion; scans with equal
  bases are ordered by real time (invocation time is a safe deterministic
  proxy: ``sc1 → sc2`` implies ``t_inv(sc1) < t_inv(sc2)``).
- **Step II**: insert every UPDATE immediately before the first SCAN whose
  base contains it; updates contained in no base go at the end; updates
  falling between the same pair of scans are ordered by real time
  (again via invocation time, which refines ``→`` and per-writer order).

One pragmatic note: conditions (A1)–(A4) as stated in the paper implicitly
assume that a scan's base references no update *invoked after the scan
responded* (true of any message-passing implementation — a value must
physically reach the scanner).  Our condition checker enforces this
explicitly as condition (A0); without it a "scan that reads from the
future" would satisfy (A1)–(A4) yet admit no linearization.  "After" is
strict, like ``→``: another node's update invoked at the very instant the
scan responds is concurrent with it, and Step II places it before the
scan like any other update of the base.

The result is re-validated against the sequential specification and the
real-time order by :func:`repro.spec.order.validate_serialization`, so a
bug in this construction cannot silently corrupt experiment conclusions.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.spec.base import base_vector
from repro.spec.conditions import Violation, check_atomicity_conditions
from repro.spec.history import History, OpRecord
from repro.spec.order import (
    CheckerInternalError,
    effective_ops,
    order_check,
    validate_serialization,
)


class LinearizationError(ValueError):
    """Raised when the history fails (A0)–(A4); carries the violations."""

    def __init__(self, violations: list[Violation]):
        super().__init__(
            "history is not linearizable: "
            + "; ".join(str(v) for v in violations[:10])
            + (" ..." if len(violations) > 10 else "")
        )
        self.violations = violations


def linearize(history: History) -> list[OpRecord]:
    """Construct a linearization per Theorem 1 (Steps I and II).

    Raises:
        LinearizationError: if the history violates the tight conditions.
    """
    violations = check_atomicity_conditions(history)
    if violations:
        raise LinearizationError(violations)

    ops = effective_ops(history)
    bases = {op.op_id: base_vector(op) for op in ops if op.is_scan}

    # Step I: scans ordered by base inclusion, ties by invocation time.
    # (A1) guarantees bases form a chain, so (|base|, t_inv) sorts them.
    scans_ordered = sorted(
        (op for op in ops if op.is_scan),
        key=lambda sc: (sum(bases[sc.op_id]), sc.t_inv, sc.op_id),
    )

    # Step II: place each update before the first scan containing it.
    # Along the chain every writer's prefix length is non-decreasing, so
    # that scan is a bisect on the writer's column; updates in no base
    # land in the extra last slot.
    columns = [
        [bases[sc.op_id][j] for sc in scans_ordered] for j in range(history.n)
    ]
    slots: list[list[OpRecord]] = [[] for _ in range(len(scans_ordered) + 1)]
    for op in ops:
        if op.is_update:
            slots[bisect_left(columns[op.node], op.useq)].append(op)

    linearization: list[OpRecord] = []
    for idx, batch in enumerate(slots):
        batch.sort(key=lambda op: (op.t_inv, op.op_id))
        linearization.extend(batch)
        if idx < len(scans_ordered):
            linearization.append(scans_ordered[idx])

    errors = validate_serialization(history, linearization, real_time=True)
    if errors:
        raise CheckerInternalError(
            "Theorem 1 construction produced an invalid linearization "
            "(checker bug): " + "; ".join(errors)
        )
    return linearization


def sequentialize(history: History) -> list[OpRecord]:
    """Construct a sequentialization (Definition 2) — per-node order
    preserved, no real-time constraint.  Raises if the history is not
    sequentially consistent."""
    result = order_check(history, real_time=False)
    if not result.ok:
        raise LinearizationError(
            [
                Violation(
                    "SC",
                    f"forced-order cycle among ops {result.cycle}",
                    tuple(result.cycle),
                )
            ]
        )
    return result.order


__all__ = ["LinearizationError", "linearize", "sequentialize"]

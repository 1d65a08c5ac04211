"""Histories of snapshot-object executions (paper Sec. II-B).

A history is the partially ordered set of invocation/response events of
UPDATE and SCAN operations, timestamped by the observer clock.  The runtime
records one :class:`OpRecord` per operation; ``op1 → op2`` (the paper's
occur-before relation on operations) holds iff ``op1`` responded before
``op2`` was invoked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.tags import Snapshot

UPDATE = "update"
SCAN = "scan"


@dataclass(slots=True)
class OpRecord:
    """One operation in a history.

    Attributes:
        op_id: unique id (history-assigned, in invocation order).
        node: invoking node.
        kind: ``"update"`` or ``"scan"`` (apps may record other kinds; the
            snapshot checkers ignore them).
        args: invocation arguments (for an UPDATE, ``args[0]`` is the value).
        useq: for an UPDATE, the writer-local 1-based sequence number
            (matches :attr:`repro.core.tags.ValueTs.useq`); 0 otherwise.
        t_inv / t_resp: observer timestamps; ``t_resp`` is ``None`` while
            pending (e.g. the node crashed mid-operation).
        result: for a SCAN, the returned :class:`Snapshot`.
    """

    op_id: int
    node: int
    kind: str
    args: tuple[Any, ...]
    useq: int
    t_inv: float
    t_resp: float | None = None
    result: Any = None

    @property
    def complete(self) -> bool:
        return self.t_resp is not None

    @property
    def is_update(self) -> bool:
        return self.kind == UPDATE

    @property
    def is_scan(self) -> bool:
        return self.kind == SCAN

    def uid(self) -> tuple[int, int]:
        """(writer, useq) — unique UPDATE identity (only valid for updates)."""
        if not self.is_update:
            raise ValueError("uid() is only defined for UPDATE operations")
        return (self.node, self.useq)

    def snapshot(self) -> Snapshot:
        """The Snapshot returned by a completed SCAN."""
        if not self.is_scan or not isinstance(self.result, Snapshot):
            raise ValueError(f"operation {self.op_id} has no Snapshot result")
        return self.result

    def __repr__(self) -> str:  # compact, used in violation reports
        resp = "pending" if self.t_resp is None else f"{self.t_resp:.3f}"
        return (
            f"<op{self.op_id} {self.kind} node={self.node} "
            f"args={self.args!r} [{self.t_inv:.3f},{resp}]>"
        )


class History:
    """An execution history under construction or analysis."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.ops: list[OpRecord] = []
        self._next_id = 0
        self._update_counts = [0] * n
        self._open_op: list[OpRecord | None] = [None] * n

    # -- recording ------------------------------------------------------
    def invoke(
        self, node: int, kind: str, args: tuple[Any, ...], t_inv: float
    ) -> OpRecord:
        """Record an invocation.  Enforces the sequential-node discipline
        of Sec. II-A (at most one pending operation per node)."""
        pending = self._open_op[node]
        if pending is not None:
            raise ValueError(
                f"node {node} invoked {kind} at {t_inv} while {pending!r} is pending"
            )
        useq = 0
        if kind == UPDATE:
            self._update_counts[node] += 1
            useq = self._update_counts[node]
        op = OpRecord(
            op_id=self._next_id,
            node=node,
            kind=kind,
            args=tuple(args),
            useq=useq,
            t_inv=t_inv,
        )
        self._next_id += 1
        self.ops.append(op)
        self._open_op[node] = op
        return op

    def respond(self, op: OpRecord, t_resp: float, result: Any) -> None:
        """Record a response event."""
        if op.t_resp is not None:
            raise ValueError(f"{op!r} already responded")
        if t_resp < op.t_inv:
            raise ValueError("response precedes invocation")
        if op.kind == SCAN and isinstance(result, Snapshot) and result.n != self.n:
            raise ValueError(
                f"scan {op.op_id} returned {result.n} segments, history has "
                f"n={self.n} nodes"
            )
        op.t_resp = t_resp
        op.result = result
        if self._open_op[op.node] is op:
            self._open_op[op.node] = None

    def abort(self, op: OpRecord) -> None:
        """The invoking node crashed; the operation stays pending forever."""
        if self._open_op[op.node] is op:
            self._open_op[op.node] = None

    # -- queries ----------------------------------------------------------
    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def completed(self) -> list[OpRecord]:
        return [op for op in self.ops if op.complete]

    def updates(self, *, include_pending: bool = False) -> list[OpRecord]:
        return [
            op
            for op in self.ops
            if op.is_update and (include_pending or op.complete)
        ]

    def scans(self) -> list[OpRecord]:
        return [op for op in self.ops if op.is_scan and op.complete]

    def by_node(self, node: int) -> list[OpRecord]:
        return [op for op in self.ops if op.node == node]

    def update_registry(self) -> dict[tuple[int, int], OpRecord]:
        """Map (writer, useq) → UPDATE op (pending updates included: a
        crashed writer's value may still surface in scans)."""
        return {op.uid(): op for op in self.ops if op.is_update}

    @staticmethod
    def precedes(op1: OpRecord, op2: OpRecord) -> bool:
        """The paper's ``op1 → op2``: response of op1 before invocation of
        op2.  Pending operations precede nothing."""
        return op1.t_resp is not None and op1.t_resp < op2.t_inv

    @staticmethod
    def occurs_before(op1: OpRecord, op2: OpRecord) -> bool:
        """``op1 → op2`` as the conditions of Theorem 1 read it:
        :meth:`precedes`, or program order on one node.  A node may invoke
        its next operation at the very observer-clock instant its previous
        one responded (``chain_ops(gap=0)`` does so on every op); the two
        are ordered all the same, and recording order says so when the
        timestamps cannot."""
        return op1.t_resp is not None and (
            op1.t_resp < op2.t_inv
            or (op1.node == op2.node and op1.op_id < op2.op_id)
        )

    def validate_well_formed(self) -> None:
        """Check per-node sequentiality (defense against runtime bugs):
        each node's operations, in recording order, respond before the
        next is invoked — so a pending operation is its node's last, and
        a node's slice of :attr:`ops` is its program order with ``useq``,
        ``t_inv`` and ``t_resp`` all non-decreasing along it.  The
        checkers rely on exactly that."""
        last: list[OpRecord | None] = [None] * self.n
        for op in self.ops:
            prev = last[op.node]
            if prev is not None and (prev.t_resp is None or prev.t_resp > op.t_inv):
                raise ValueError(
                    f"node {op.node} has overlapping ops {prev!r} and {op!r}"
                )
            last[op.node] = op


__all__ = ["History", "OpRecord", "UPDATE", "SCAN"]

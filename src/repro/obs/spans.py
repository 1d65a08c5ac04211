"""Operation spans: one client operation decomposed into protocol phases.

A span is opened by the cluster when an operation is invoked and closed
at its response (or abort).  While the span is open, protocol code
annotates phase boundaries through
:meth:`repro.runtime.protocol.ProtocolNode.phase_enter` /
:meth:`~repro.runtime.protocol.ProtocolNode.phase_exit`; the phases nest
(``depth`` records how deep), and the top-level phases of a failure-free
EQ-ASO scan decompose its latency exactly: ``readTag ≈ 2D`` plus
``lattice ≈ 2D``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


def _jsonable(value: Any) -> tuple[Any, bool]:
    try:
        json.dumps(value)
        return value, True
    except (TypeError, ValueError):
        return repr(value), False


def encode_value(value: Any) -> Any:
    """JSON-safe encoding of an operation argument or result.

    Snapshot objects (anything exposing ``values`` + ``meta`` in the
    :class:`repro.core.tags.Snapshot` shape) are encoded as per-segment
    ``{value, value_exact, tag, writer, useq}`` dicts — the same segment
    layout as :func:`repro.spec.serialize.history_to_dict`, so a trace's
    spans can be replayed into a :class:`~repro.spec.history.History`
    without the original process.  Everything else is kept verbatim when
    JSON-representable, else stringified and flagged inexact.
    """
    if value is None:
        return None
    meta = getattr(value, "meta", None)
    if meta is not None and hasattr(value, "values"):
        segments: list[Any] = []
        for vt in meta:
            if vt is None:
                segments.append(None)
            else:
                raw, exact = _jsonable(vt.value)
                segments.append(
                    {
                        "value": raw,
                        "value_exact": exact,
                        "tag": vt.ts.tag,
                        "writer": vt.ts.writer,
                        "useq": vt.useq,
                    }
                )
        return {"snapshot": segments}
    raw, exact = _jsonable(value)
    return {"value": raw, "value_exact": exact}


@dataclass(slots=True)
class PhaseRecord:
    """One phase interval inside a span."""

    name: str
    t_start: float
    t_end: float | None = None
    depth: int = 0

    @property
    def duration(self) -> float:
        if self.t_end is None:
            raise RuntimeError(f"phase {self.name!r} still open")
        return self.t_end - self.t_start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "depth": self.depth,
        }


@dataclass(slots=True)
class OpSpan:
    """The full observed lifetime of one client operation."""

    op_id: int
    node: int
    kind: str
    t_inv: float
    t_resp: float | None = None
    aborted: bool = False
    messages: int = 0  # messages this node sent during the operation
    #: invocation args / response value, pre-encoded via
    #: :func:`encode_value` (JSON-safe; snapshots keep their segments so
    #: replay-checking can rebuild the history from the trace alone)
    args: Any = None
    result: Any = None
    phases: list[PhaseRecord] = field(default_factory=list)
    _open: list[PhaseRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.t_resp is not None and not self.aborted

    @property
    def latency(self) -> float:
        if self.t_resp is None:
            raise RuntimeError(
                f"op {self.op_id} ({self.kind} at node {self.node}) still running"
            )
        return self.t_resp - self.t_inv

    def enter_phase(self, name: str, t: float) -> PhaseRecord:
        rec = PhaseRecord(name=name, t_start=t, depth=len(self._open))
        self.phases.append(rec)
        self._open.append(rec)
        return rec

    def exit_phase(self, name: str, t: float) -> None:
        # tolerate mismatched exits (an aborted generator may skip them)
        for i in range(len(self._open) - 1, -1, -1):
            if self._open[i].name == name:
                rec = self._open.pop(i)
                rec.t_end = t
                return

    def close(self, t: float, *, aborted: bool = False) -> None:
        """Close the span, truncating any phases left open (aborts)."""
        self.t_resp = t
        self.aborted = aborted
        while self._open:
            self._open.pop().t_end = t

    # ------------------------------------------------------------------
    def phase_durations(self, D: float = 1.0, *, depth: int = 0) -> dict[str, float]:
        """Total time per phase name at the given nesting depth, in units
        of ``D``.  Top level (``depth=0``) partitions the operation."""
        out: dict[str, float] = {}
        for rec in self.phases:
            if rec.depth != depth or rec.t_end is None:
                continue
            out[rec.name] = out.get(rec.name, 0.0) + rec.duration / D
        return out

    def unattributed(self, D: float = 1.0) -> float:
        """Latency not covered by any top-level phase, in units of ``D``
        (local computation takes zero simulated time, so for annotated
        algorithms this is ~0)."""
        covered = sum(self.phase_durations(D).values())
        return self.latency / D - covered

    def to_dict(self) -> dict[str, Any]:
        return {
            "op_id": self.op_id,
            "node": self.node,
            "kind": self.kind,
            "t_inv": self.t_inv,
            "t_resp": self.t_resp,
            "aborted": self.aborted,
            "messages": self.messages,
            "args": self.args,
            "result": self.result,
            "phases": [p.to_dict() for p in self.phases],
        }


__all__ = ["OpSpan", "PhaseRecord", "encode_value"]

"""Trace querying: aggregate and render exported traces.

Operates on the plain-dict records produced by
:func:`repro.obs.export.read_trace`, so a trace can be analysed long
after (and far away from) the run that produced it.  The space-time
renderer here is what ``python -m repro.obs render`` draws.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Iterable

from repro.obs.export import read_trace

Record = dict[str, Any]


class Trace:
    """One loaded trace: metadata, event records and operation spans."""

    def __init__(
        self,
        meta: Record,
        events: list[Record],
        spans: list[Record],
    ) -> None:
        self.meta = meta
        self.events = events
        self.spans = spans

    @classmethod
    def load(cls, source: str | Path | IO[str]) -> "Trace":
        return cls(*read_trace(source))

    @property
    def D(self) -> float:
        return float(self.meta.get("D", 1.0))

    # ------------------------------------------------------------------
    def summary_dict(self) -> dict[str, Any]:
        """Aggregate counts — per event kind, per sent message label, per
        sending node — JSON-safe (``summary --format json``)."""
        by_kind: dict[str, int] = {}
        by_msg: dict[str, int] = {}
        sent_by_node: dict[int, int] = {}
        for ev in self.events:
            by_kind[ev["kind"]] = by_kind.get(ev["kind"], 0) + 1
            if ev["kind"] == "send":
                label = (ev.get("msg") or "?").split(":", 1)[0]
                by_msg[label] = by_msg.get(label, 0) + 1
                sent_by_node[ev["node"]] = sent_by_node.get(ev["node"], 0) + 1
        return {
            "events": len(self.events),
            "spans": len(self.spans),
            "D": self.D,
            "algorithm": self.meta.get("algorithm"),
            "by_kind": dict(sorted(by_kind.items())),
            "sends_by_message": dict(sorted(by_msg.items())),
            "sends_by_node": {str(k): v for k, v in sorted(sent_by_node.items())},
        }

    def summary_lines(self) -> list[str]:
        """The text rendering of :meth:`summary_dict`."""
        data = self.summary_dict()
        lines = [
            f"trace: {data['events']} events, {data['spans']} spans, "
            f"D={data['D']:g}"
            + (f", algorithm={data['algorithm']}" if "algorithm" in self.meta else "")
        ]
        lines.append("events by kind:")
        for kind, count in data["by_kind"].items():
            lines.append(f"  {kind:12s} {count}")
        if data["sends_by_message"]:
            lines.append("sends by message kind:")
            for label, count in data["sends_by_message"].items():
                lines.append(f"  {label:12s} {count}")
        if data["sends_by_node"]:
            lines.append("sends by node:")
            for node, count in data["sends_by_node"].items():
                lines.append(f"  node {node:<3}    {count}")
        return lines

    # ------------------------------------------------------------------
    def op_lines(self, *, op_id: int | None = None, phases: bool = True) -> list[str]:
        """Per-operation accounting: latency in D, phase breakdown,
        message count.  The per-phase durations of a fully annotated
        operation sum to its end-to-end latency."""
        D = self.D
        lines = []
        for span in self.spans:
            if op_id is not None and span["op_id"] != op_id:
                continue
            if span.get("t_resp") is None:
                status, lat = "pending", float("nan")
            else:
                lat = (span["t_resp"] - span["t_inv"]) / D
                status = "aborted" if span.get("aborted") else f"{lat:.2f}D"
            lines.append(
                f"op {span['op_id']:<4d} node {span['node']:<3d} "
                f"{span['kind']:10s} {status:>8s}  msgs={span.get('messages', 0)}"
            )
            if phases:
                for part in span_phase_breakdown(span, D):
                    lines.append(f"    {part}")
        return lines

    def phase_totals(self, kind: str | None = None) -> dict[str, Any]:
        """Mean per-phase latency (in D) across completed ops, plus the
        mean end-to-end latency — the acceptance check that phases sum
        to the whole."""
        D = self.D
        per_phase: dict[str, list[float]] = {}
        e2e: list[float] = []
        for span in self.spans:
            if span.get("t_resp") is None or span.get("aborted"):
                continue
            if kind is not None and span["kind"] != kind:
                continue
            e2e.append((span["t_resp"] - span["t_inv"]) / D)
            for ph in span.get("phases", ()):
                if ph.get("depth", 0) != 0 or ph.get("t_end") is None:
                    continue
                per_phase.setdefault(ph["name"], []).append(
                    (ph["t_end"] - ph["t_start"]) / D
                )
        count = len(e2e)
        return {
            "ops": count,
            "end_to_end_D": sum(e2e) / count if count else float("nan"),
            "phases_D": {
                name: sum(vals) / count for name, vals in sorted(per_phase.items())
            },
        }


def span_phase_breakdown(span: Record, D: float) -> list[str]:
    """Human lines for one span's top-level phases."""
    out = []
    for ph in span.get("phases", ()):
        if ph.get("depth", 0) != 0:
            continue
        if ph.get("t_end") is None:
            out.append(f"{ph['name']}: (open)")
        else:
            out.append(f"{ph['name']}: {(ph['t_end'] - ph['t_start']) / D:.2f}D")
    return out


# ----------------------------------------------------------------------
# space-time rendering
# ----------------------------------------------------------------------
def render_spacetime(
    events: Iterable[Record],
    *,
    until: float | None = None,
    include: Iterable[str] | None = None,
    max_lines: int = 200,
) -> str:
    """Render delivery/drop events as the classic text space-time diagram
    (one line per delivery, ``--X`` marking drops at crashed nodes)::

        t=  1.000  [2]--value:v/1-->[0]
    """
    include = list(include) if include is not None else None
    wire = [ev for ev in events if ev.get("kind") in ("deliver", "drop")]
    lines: list[str] = []
    shown = 0
    for ev in wire:
        if until is not None and ev["t"] > until:
            continue
        desc = ev.get("msg") or "?"
        if include is not None and not any(s in desc for s in include):
            continue
        if shown >= max_lines:
            lines.append(f"... ({len(wire) - shown} more)")
            break
        arrow = "--X" if ev["kind"] == "drop" else "-->"
        lines.append(
            f"t={ev['t']:7.3f}  [{ev['src']}]--{desc}{arrow}[{ev['dst']}]"
        )
        shown += 1
    return "\n".join(lines)


__all__ = ["Record", "Trace", "render_spacetime", "span_phase_breakdown"]

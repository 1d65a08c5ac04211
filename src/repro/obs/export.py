"""Deterministic JSONL trace export / import.

Layout of an exported trace file, one JSON object per line:

- line 1: ``{"type": "meta", "version": 1, ...}`` — run metadata
  (algorithm, ``n``, ``f``, ``D``, seed, event/span counts);
- then one ``{"type": "event", ...}`` line per :class:`TraceEvent`, in
  emission (deterministic simulator) order;
- then one ``{"type": "span", ...}`` line per operation span, in op-id
  order, with the phase intervals inlined.

Byte stability: fields are written in a fixed order, separators carry no
whitespace, and floats use Python's shortest-repr formatting — two runs
with the same seed export identical bytes (asserted by the test-suite).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Any, Iterable

from repro.obs.events import TraceEvent
from repro.obs.spans import OpSpan
from repro.obs.tracer import Tracer

TRACE_VERSION = 1


def _dumps(obj: dict[str, Any]) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def write_trace(
    fh: IO[str],
    events: Iterable[TraceEvent],
    *,
    spans: Iterable[OpSpan] = (),
    meta: dict[str, Any] | None = None,
) -> int:
    """Write a full trace to a text stream; returns the line count."""
    events = list(events)
    spans = list(spans)
    header: dict[str, Any] = {"type": "meta", "version": TRACE_VERSION}
    header.update(meta or {})
    header["events"] = len(events)
    header["spans"] = len(spans)
    fh.write(_dumps(header) + "\n")
    lines = 1
    for event in events:
        record = {"type": "event"}
        record.update(event.to_dict())
        fh.write(_dumps(record) + "\n")
        lines += 1
    for span in spans:
        record = {"type": "span"}
        record.update(span.to_dict())
        fh.write(_dumps(record) + "\n")
        lines += 1
    return lines


def _retained_events(tracer: Tracer) -> Iterable[TraceEvent]:
    """The events a tracer's sink kept (any sink exposing an ``events``
    collection, e.g. :class:`MemorySink`); raises for non-retaining
    sinks."""
    events = getattr(tracer.sink, "events", None)
    if events is None:
        raise TypeError(
            "export needs a retaining sink such as MemorySink, "
            f"got {type(tracer.sink).__name__}"
        )
    return events


def export_jsonl(tracer: Tracer, path: str | Path) -> int:
    """Export everything a tracer collected to ``path`` (JSONL).

    The tracer's sink must retain events (the no-op sink has nothing to
    export)."""
    events = _retained_events(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        return write_trace(fh, events, spans=tracer.spans, meta=tracer.meta)


def dumps_trace(tracer: Tracer) -> str:
    """The JSONL export as a string (determinism tests compare these)."""
    events = _retained_events(tracer)
    buf = io.StringIO()
    write_trace(buf, events, spans=tracer.spans, meta=tracer.meta)
    return buf.getvalue()


def read_trace(
    source: str | Path | IO[str],
) -> tuple[dict[str, Any], list[dict[str, Any]], list[dict[str, Any]]]:
    """Parse a JSONL trace into ``(meta, events, spans)`` dicts."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    meta: dict[str, Any] = {}
    events: list[dict[str, Any]] = []
    spans: list[dict[str, Any]] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: not a JSON object")
        rtype = record.pop("type", None)
        if rtype == "meta":
            meta = record
        elif rtype == "event":
            events.append(record)
        elif rtype == "span":
            spans.append(record)
        else:
            raise ValueError(f"line {lineno}: unknown record type {rtype!r}")
    return meta, events, spans


__all__ = ["TRACE_VERSION", "dumps_trace", "export_jsonl", "read_trace", "write_trace"]

"""Flight recorder: a bounded ring-buffer sink + post-mortem bundles.

Long live runs cannot keep every event in memory the way experiment
traces do, but when something goes wrong the *recent past* is exactly
what a post-mortem needs.  The :class:`FlightRecorder` is an
:class:`~repro.obs.tracer.EventSink` holding the last ``capacity``
events in a ring buffer (O(1) per event, fixed memory, counts what it
had to forget); :func:`dump_postmortem` writes the buffer out as a
bundle in the chaos counterexample layout (PR-5's
:mod:`repro.chaos.export`): a ``trace.jsonl`` that every ``repro.obs``
subcommand (including ``check``) understands, a ``manifest.json``, and
a ``repro.txt`` with the follow-up commands.

A tracer whose ``postmortem_dir`` is set dumps one bundle per ``crash``
event automatically, on either runtime;
:class:`repro.runtime.aio.AioCluster` sets it from ``postmortem=<dir>``.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any

from repro.obs.events import TraceEvent


class FlightRecorder:
    """Event sink keeping only the most recent ``capacity`` events.

    Attributes:
        events: the retained events, oldest first (a bounded deque —
            the exporters accept it wherever a ``MemorySink`` works).
        dropped: how many older events the ring has already forgotten.
    """

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


def dump_postmortem(
    tracer: Any, out: str | Path, *, reason: str = "postmortem"
) -> dict[str, str]:
    """Write a post-mortem bundle from whatever the tracer retained.

    Creates ``out/`` with ``trace.jsonl`` (meta + retained events +
    spans), ``manifest.json`` (reason, retention accounting, run
    metadata) and ``repro.txt`` — the same member names as a chaos
    counterexample bundle, so post-mortems and counterexamples are
    browsed with the same tools.  Returns path strings keyed like
    :func:`repro.chaos.export.export_counterexample`'s manifest.
    """
    from repro.obs.export import export_jsonl

    target = Path(out)
    target.mkdir(parents=True, exist_ok=True)

    trace_path = target / "trace.jsonl"
    dropped = getattr(tracer.sink, "dropped", 0)
    tracer.meta.setdefault("postmortem", reason)
    if dropped:
        tracer.meta.setdefault("events_dropped", dropped)
    export_jsonl(tracer, trace_path)

    manifest_path = target / "manifest.json"
    with manifest_path.open("w") as fh:
        json.dump(
            {
                "reason": reason,
                "events_retained": len(tracer.sink.events),
                "events_dropped": dropped,
                "events_emitted": tracer.events_emitted,
                "spans": len(tracer.spans),
                "capacity": getattr(tracer.sink, "capacity", None),
                "meta": tracer.meta,
            },
            fh,
            indent=1,
            sort_keys=True,
        )

    repro_path = target / "repro.txt"
    repro_path.write_text(
        "\n".join(
            [
                f"# post-mortem bundle: {reason}",
                f"python -m repro.obs summary {trace_path}",
                f"python -m repro.obs check {trace_path}",
                f"python -m repro.obs render {trace_path}",
            ]
        )
        + "\n"
    )

    return {
        "dir": str(target),
        "trace": str(trace_path),
        "manifest": str(manifest_path),
        "repro": str(repro_path),
    }


__all__ = ["FlightRecorder", "dump_postmortem"]

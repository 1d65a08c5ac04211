"""Typed events of the observability layer.

Every observable fact about an execution — a message handed to the
network, a delivery, a drop at a crashed destination, a crash itself, a
client operation's invocation/response, a protocol phase boundary — is
recorded as one :class:`TraceEvent`.  Events carry three clocks:

- ``t``: the observer's simulation time (the paper's global clock; the
  protocol never reads it);
- ``lamport``: a happens-before-consistent logical clock maintained by
  the tracer (send < deliver on every channel, and per-node events are
  totally ordered);
- implicit emission order: events are appended in deterministic
  simulator order, so the event list itself is a valid linear extension.

The schema is flat on purpose: optional fields are ``None`` when they do
not apply, and the JSONL exporter omits them, so every line is small and
the format is trivially greppable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: the closed set of event kinds (the CLI validates filters against it)
EVENT_KINDS: tuple[str, ...] = (
    "send",
    "deliver",
    "drop",
    "crash",
    "disconnect",
    "reconnect",
    "backpressure",
    "op-invoke",
    "op-respond",
    "op-abort",
    "phase-enter",
    "phase-exit",
)

#: serialization field order (fixed → byte-stable JSONL)
_FIELD_ORDER: tuple[str, ...] = (
    "kind",
    "t",
    "lamport",
    "node",
    "src",
    "dst",
    "msg",
    "op_id",
    "op",
    "phase",
    "detail",
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observed fact.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        t: simulation time of the observation.
        lamport: logical clock value (see module docstring).
        node: the node the event is attributed to (the receiver for
            ``deliver``/``drop``, the sender for ``send``).
        src, dst: message endpoints (message and link events:
            ``disconnect``/``reconnect`` name the gated ordered channel,
            ``backpressure`` the congested one).
        msg: short human label of the payload (message events only);
            produced by :func:`repro.obs.describe.describe_payload`.
        op_id: trace-unique operation id (operation/phase events).
        op: operation kind, e.g. ``"scan"`` (operation/phase events).
        phase: phase name (phase events only).
        detail: free-form extra (op args/result repr, crash reason, …).
    """

    kind: str
    t: float
    lamport: int
    node: int
    src: int | None = None
    dst: int | None = None
    msg: str | None = None
    op_id: int | None = None
    op: str | None = None
    phase: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain dict in fixed field order, ``None`` fields omitted."""
        out: dict[str, Any] = {}
        for name in _FIELD_ORDER:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceEvent":
        return cls(**{k: v for k, v in d.items() if k in _FIELD_ORDER})


__all__ = ["EVENT_KINDS", "TraceEvent"]

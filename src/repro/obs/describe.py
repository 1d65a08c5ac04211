"""Short, deterministic human labels for wire messages.

Shared by the event log, the JSONL exporter and the space-time renderer
(``python -m repro.obs render``).  Labels double as query
keys — ``repro.obs render --include writeTag`` and the ``summary``
per-message counts match on the text produced here — so they must be
stable and derived only from message contents.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any


def describe_payload(payload: Any) -> str:
    """Short label for a wire message.

    Knows the core Algorithm 1 messages and the Byzantine variants'
    extras; anything else (baseline-specific messages, application
    payloads) falls back to a generic ``Kind(field=value, ...)`` label so
    no message ever renders blank in a trace.
    """
    from repro.core import byz_messages as bm
    from repro.core import messages as m

    match payload:
        case m.MValue(vt):
            return f"value:{vt.value}/{vt.ts.tag}"
        case m.MValueAck(vt):
            return f"valueAck:{vt.value}/{vt.ts.tag}"
        case m.MWriteTag(tag, _):
            return f"writeTag:{tag}"
        case m.MWriteAck(tag, _):
            return f"writeAck:{tag}"
        case m.MEchoTag(tag):
            return f"echoTag:{tag}"
        case m.MReadTag(_):
            return "readTag"
        case m.MReadAck(tag, _):
            return f"readAck:{tag}"
        case m.MGoodLA(tag):
            return f"goodLA:{tag}"
        case bm.MHave(vt):
            return f"have:{vt.value}/{vt.ts.tag}"
        case bm.MByzGoodLA(tag, ids):
            return f"byzGoodLA:{tag}/|{len(ids)}|"
        case _:
            return _generic_label(payload)


def _generic_label(payload: Any) -> str:
    """Fallback label: the type name (``M`` prefix stripped) plus a short
    field summary for dataclass messages."""
    name = type(payload).__name__
    if name.startswith("M") and len(name) > 1 and name[1].isupper():
        name = name[1:]
    if is_dataclass(payload) and not isinstance(payload, type):
        parts = []
        for fld in fields(payload):
            value = getattr(payload, fld.name)
            text = repr(value)
            if len(text) > 24:
                text = text[:21] + "..."
            parts.append(f"{fld.name}={text}")
        if parts:
            return f"{name}({', '.join(parts)})"
    return name


__all__ = ["describe_payload"]

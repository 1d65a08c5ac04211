"""History (de)serialization — JSON round-trips for replay debugging.

Experiments fail rarely and at awkward parameter corners; persisting the
offending history lets the checkers re-run on it without re-simulating.
Values must be JSON-representable (the library's own workloads use
strings/ints; application payloads that aren't JSON-safe are stringified
on export and flagged).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.spec.history import SCAN, UPDATE, History


def _jsonable(value: Any) -> tuple[Any, bool]:
    try:
        json.dumps(value)
        return value, True
    except (TypeError, ValueError):
        return repr(value), False


def history_to_dict(history: History) -> dict:
    """Export a history (ops + snapshot contents) to plain data."""
    ops = []
    for op in history.ops:
        entry: dict[str, Any] = {
            "op_id": op.op_id,
            "node": op.node,
            "kind": op.kind,
            "useq": op.useq,
            "t_inv": op.t_inv,
            "t_resp": op.t_resp,
        }
        if op.is_update:
            value, exact = _jsonable(op.args[0] if op.args else None)
            entry["value"] = value
            entry["value_exact"] = exact
        elif op.is_scan and op.complete and isinstance(op.result, Snapshot):
            segments = []
            for j in range(history.n):
                meta = op.result.meta[j]
                if meta is None:
                    segments.append(None)
                else:
                    value, exact = _jsonable(meta.value)
                    segments.append(
                        {
                            "value": value,
                            "value_exact": exact,
                            "tag": meta.ts.tag,
                            "writer": meta.ts.writer,
                            "useq": meta.useq,
                        }
                    )
            entry["snapshot"] = segments
        ops.append(entry)
    return {"n": history.n, "ops": ops}


def history_from_dict(data: dict) -> History:
    """Rebuild a history exported by :func:`history_to_dict`.

    The reconstruction preserves everything the checkers consume:
    timings, per-writer sequence numbers and snapshot metadata.
    """
    history = History(int(data["n"]))
    # replay in invocation order so the per-node pending discipline and
    # useq assignment match the original
    entries = sorted(data["ops"], key=lambda e: e["op_id"])
    for entry in entries:
        kind = entry["kind"]
        if kind == UPDATE:
            op = history.invoke(
                entry["node"], UPDATE, (entry.get("value"),), entry["t_inv"]
            )
            if op.useq != entry["useq"]:
                raise ValueError(
                    f"useq mismatch for op {entry['op_id']}: "
                    f"{op.useq} != {entry['useq']}"
                )
            if entry["t_resp"] is not None:
                history.respond(op, entry["t_resp"], "ACK")
            else:
                history.abort(op)
        elif kind == SCAN:
            op = history.invoke(entry["node"], SCAN, (), entry["t_inv"])
            if entry["t_resp"] is None:
                history.abort(op)
                continue
            segments = entry.get("snapshot") or [None] * history.n
            meta = []
            values = []
            for seg in segments:
                if seg is None:
                    meta.append(None)
                    values.append(None)
                else:
                    vt = ValueTs(
                        seg["value"],
                        Timestamp(seg["tag"], seg["writer"]),
                        seg["useq"],
                    )
                    meta.append(vt)
                    values.append(seg["value"])
            history.respond(
                op,
                entry["t_resp"],
                Snapshot(values=tuple(values), meta=tuple(meta)),
            )
        else:  # non-snapshot op kinds: keep timings only
            op = history.invoke(entry["node"], kind, (), entry["t_inv"])
            if entry["t_resp"] is not None:
                history.respond(op, entry["t_resp"], None)
            else:
                history.abort(op)
    return history


def dump_history(history: History, path: str | Path) -> None:
    """Write a history to a JSON file."""
    with open(path, "w") as fh:
        json.dump(history_to_dict(history), fh, indent=1)


def load_history(path: str | Path) -> History:
    """Load a history from a JSON file."""
    with open(path) as fh:
        return history_from_dict(json.load(fh))


__all__ = [
    "history_to_dict",
    "history_from_dict",
    "dump_history",
    "load_history",
]

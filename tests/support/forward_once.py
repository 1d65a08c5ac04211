"""The forward-once rule, observed and re-derived — a test oracle.

Algorithm 1 line 41 forwards a value the first time a node sees it.  The
algorithms used to keep a ``_seen`` set for that — the values a node had
originated or received — and now read it off the view vector ("new to my
row", and not my own broadcast coming back).  :func:`watch` logs, per
node, every value it originates, receives and forwards, in order;
:func:`seen_set_oracle` replays the originate/receive entries of such a
log through the original ``_seen`` rule and returns the log that rule
produces.  The two must be equal: same forwards, from the same receipts.
"""

from __future__ import annotations

from typing import Any

from repro.core.lattice_agreement import MLAValue
from repro.core.messages import MValue

#: the value-carrying message kinds, and the field holding the value
VALUE_FIELD = {MValue: "vt", MLAValue: "element"}

#: a log entry: ``("own", v)`` — broadcast from a client operation;
#: ``("recv", src, v)`` — delivered; ``("fwd", v)`` — broadcast from
#: inside the handler of the ``recv`` before it
Entry = tuple[Any, ...]


def watch(cluster: Any) -> list[list[Entry]]:
    """Wrap ``on_message`` and ``broadcast`` of every node of ``cluster``
    (instance attributes: the classes are untouched); returns the
    per-node logs, filled in as the cluster runs."""
    logs: list[list[Entry]] = [[] for _ in cluster.nodes]
    for node, log in zip(cluster.nodes, logs):
        _watch_node(node, log)
    return logs


def _watch_node(node: Any, log: list[Entry]) -> None:
    on_message, broadcast = node.on_message, node.broadcast
    in_value_handler = False

    def watched_on_message(src: int, payload: Any) -> None:
        nonlocal in_value_handler
        field = VALUE_FIELD.get(type(payload))
        if field is None:
            on_message(src, payload)
            return
        log.append(("recv", src, getattr(payload, field)))
        in_value_handler = True
        try:
            on_message(src, payload)
        finally:
            in_value_handler = False

    def watched_broadcast(payload: Any, **kwargs: Any) -> None:
        field = VALUE_FIELD.get(type(payload))
        if field is not None:
            kind = "fwd" if in_value_handler else "own"
            log.append((kind, getattr(payload, field)))
        broadcast(payload, **kwargs)

    node.on_message = watched_on_message
    node.broadcast = watched_broadcast


def seen_set_oracle(log: list[Entry]) -> list[Entry]:
    """The log a node keeping the original ``_seen`` set would have
    written, given the same originations and receipts."""
    seen: set[Any] = set()
    expected: list[Entry] = []
    for entry in log:
        if entry[0] == "own":
            seen.add(entry[1])
            expected.append(entry)
        elif entry[0] == "recv":
            expected.append(entry)
            value = entry[2]
            if value not in seen:
                seen.add(value)
                expected.append(("fwd", value))
    return expected


__all__ = ["VALUE_FIELD", "seen_set_oracle", "watch"]

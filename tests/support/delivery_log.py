"""What a cluster's network hands to ``deliver`` — for tests.

The network owns no delivery log: its delivery event is the call
``deliver(src, dsts, payload, sent_at)`` itself.  :func:`log_deliveries`
wraps that callback on a built cluster, so every later delivery event
first appends ``(src, dst, payload, sent_at, delivered_at)`` per
destination — a delivered or a dropped one alike — to the returned list.
The tracer is no substitute: its ``msg`` is a string label, not the
payload.  Wrapping adds no kernel event and moves none.
"""

from __future__ import annotations

from typing import Any, Sequence

#: one destination of one delivery event
Delivery = tuple[int, int, Any, float, float]


def log_deliveries(cluster: Any) -> list[Delivery]:
    """Log every delivery event ``cluster.network`` pushes from now on
    (call it before the run)."""
    log: list[Delivery] = []
    network = cluster.network
    deliver = network._deliver
    sim = network.sim

    def logged(src: int, dsts: Sequence[int], payload: Any, sent_at: float) -> None:
        for dst in dsts:
            log.append((src, dst, payload, sent_at, sim.now))
        deliver(src, dsts, payload, sent_at)

    network._deliver = logged
    return log


def delivered_kinds(log: list[Delivery]) -> set[type]:
    """The payload types in ``log``."""
    return {type(entry[2]) for entry in log}


__all__ = ["Delivery", "delivered_kinds", "log_deliveries"]

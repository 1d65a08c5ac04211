"""Message-complexity measurements.

The paper optimizes *time* in units of ``D``, arguing message and time
complexity are the currencies of message-passing systems (Sec. I).  The
flip side of EQ-ASO's proactive forwarding is its message bill: every
value is forwarded once by every node (``Θ(n²)`` messages per UPDATE),
whereas the pull-based baselines move ``Θ(n)`` messages per operation in
the failure-free case.  This experiment measures the exchange rate: total
messages for one quiet UPDATE and one quiet SCAN, per algorithm, versus
``n`` — the data a practitioner needs to pick a point on the
latency/bandwidth trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.chaos.plan import ChaosPlan
from repro.harness.adversary import QUIET, quiet_plan, run_checked
from repro.harness.scaling import FF_ALGORITHMS
from repro.obs import MemorySink, Tracer


@dataclass(frozen=True, slots=True)
class MessageCosts:
    algorithm: str
    n: int
    update_messages: int
    scan_messages: int


def message_costs_plan(algo: str, n: int) -> ChaosPlan:
    """An update at node 0, then a scan at node 1 once it has settled."""
    return quiet_plan(algo, n, (0, "update", "x"), (1, "scan", None))


def message_costs(
    ns: Sequence[int] = (4, 7, 10, 16),
    algorithms: dict[str, str] | None = None,
) -> list[MessageCosts]:
    """Network-wide message counts for one quiet update and one quiet
    scan (including forwarding and acknowledgement traffic the operation
    triggers anywhere in the cluster): the traced sends before and after
    the scan arrives (``algorithms``: label -> ``CAMPAIGN_ALGOS`` key)."""
    out: list[MessageCosts] = []
    for label, algo in (algorithms or FF_ALGORITHMS).items():
        for n in ns:
            sink = MemorySink()
            run_checked(message_costs_plan(algo, n), tracer=Tracer(sink))
            sends = [e.t for e in sink.events if e.kind == "send"]
            update = sum(t < QUIET for t in sends)
            out.append(MessageCosts(label, n, update, len(sends) - update))
    return out


def format_message_costs(rows: Sequence[MessageCosts]) -> list[str]:
    lines = [f"{'algorithm':22s} {'n':>4s} {'update msgs':>12s} {'scan msgs':>10s}"]
    for row in rows:
        lines.append(
            f"{row.algorithm:22s} {row.n:4d} {row.update_messages:12d} "
            f"{row.scan_messages:10d}"
        )
    return lines


__all__ = ["MessageCosts", "format_message_costs", "message_costs", "message_costs_plan"]

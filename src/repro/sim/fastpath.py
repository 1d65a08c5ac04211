"""Process-wide substrate and data-plane counters.

:class:`SubstrateStats` accumulates executed-event and sent-message
totals across all kernels and networks in the process, plus the
view-vector data plane's EQ-evaluation counters; ``repro.bench`` and
``benchmarks/ledger`` read :meth:`SubstrateStats.counters` around each
run to report events, messages and row work per run.  The counters
are observability-only — nothing in the simulation reads them back.

The module name is historical and load-bearing: ``benchmarks/ledger``
imports ``STATS`` from this path.
"""

from __future__ import annotations


class SubstrateStats:
    """Process-wide substrate and data-plane counters (monotone).

    ``events``/``messages`` come from the simulation substrate (kernel
    and network); the ``eq_*``/``values_interned`` counters come from the
    view-vector data plane (:mod:`repro.core.views`) and show how much
    row work the incremental EQ evaluation avoided.
    """

    __slots__ = (
        "events",
        "messages",
        "eq_evals",
        "eq_rows_scanned",
        "eq_rows_saved",
        "eq_batched_scans",
        "values_interned",
        "messages_packed",
    )

    def __init__(self) -> None:
        self.events = 0
        self.messages = 0
        #: EQ-predicate evaluations across every ViewVector
        self.eq_evals = 0
        #: rows actually (re)compared during those evaluations
        self.eq_rows_scanned = 0
        #: rows the incremental match tracking skipped
        self.eq_rows_saved = 0
        #: pending EQ states refreshed as a batch while flushing dirty
        #: rows for a *different* predicate's evaluation (each one is a
        #: full-rescan the per-scan re-poll design would have paid later)
        self.eq_batched_scans = 0
        #: distinct values interned across every ValueInterner
        self.values_interned = 0
        #: wire-message constructions answered from the intern table
        #: instead of allocating (:mod:`repro.core.messages`)
        self.messages_packed = 0

    def counters(self) -> dict[str, int]:
        """All counters by name (benches snapshot this around runs)."""
        return {name: getattr(self, name) for name in self.__slots__}


#: the process-wide instance updated by Simulator.run and Network sends
STATS = SubstrateStats()


__all__ = ["STATS", "SubstrateStats"]

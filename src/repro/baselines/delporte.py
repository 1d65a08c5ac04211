"""Baseline [19]: Delporte-Gallet, Fauconnier, Rajsbaum & Raynal (TPDS'18),
"Implementing snapshot objects on top of crash-prone asynchronous
message-passing systems" — the first *direct* message-passing ASO.

Structure (faithful to their design, constants simplified):

- every node replicates the segment array ``REG[j] = (seq, value)``
  (:class:`~repro.baselines.register_array.RegisterArray`);
- **UPDATE(v)**: increment the own sequence number, broadcast the write,
  wait for ``n − f`` acknowledgements — one round trip, ``O(D)``;
- **SCAN**: repeated *collects* — broadcast a query, each replica answers
  with its entire ``REG`` (after merging the scanner's current view, which
  makes replica state monotone); the scan returns when ``n − f`` replicas
  answer with a state **identical** to the scanner's current merged view.
  This identical-quorum confirmation is the pull-based counterpart of the
  equivalence quorum and is what makes the returned views of any two
  scans comparable: the two confirmation quorums intersect in a replica
  whose state is monotone, so one view is a prefix of the other.

Each concurrent UPDATE can invalidate a confirmation round, so a scan
takes up to ``O(c)`` rounds with ``c`` concurrent updates — the paper's
``O(n·D)`` worst case (``c ≤ n`` with sequential nodes).  The contrast
with EQ-ASO is the paper's motivating observation (Sec. III-C): pull-based
double-collect pays per-interference rounds; push-based forwarding does
not.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.register_array import RegisterArray, merge, to_snapshot
from repro.runtime.protocol import OpGen


class DelporteAso(RegisterArray):
    """Crash-tolerant ASO in the style of [19] (``n > 2f``)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self.collect_rounds = 0  # instrumentation: scan round count

    def update(self, value: Any) -> OpGen:
        """UPDATE(v): one write round trip — O(D)."""
        return (yield from self.write(value))

    def scan(self) -> OpGen:
        """SCAN(): collect until n−f replicas confirm the exact view."""
        self.phase_enter("stable-collect")
        view = None
        while view is None:
            # None: a concurrent update moved the object; go around again
            view = yield from self._confirm_round()
        self.phase_exit("stable-collect")
        return to_snapshot(view)

    def _confirm_round(self) -> OpGen:
        """One collect with the merged view as query; returns that view
        if ``n − f`` replicas answered it exactly and nothing moved it,
        else ``None``.  Every reply is merged (monotone local view)."""
        self.collect_rounds += 1
        query_view = self.reg
        acks = yield from self._collect(query_view)
        confirmations = sum(1 for v in acks.values() if v == query_view)
        for v in acks.values():
            self.reg = merge(self.reg, v)
        confirmed = confirmations >= self.quorum_size and self.reg == query_view
        return query_view if confirmed else None


__all__ = ["DelporteAso"]

"""SSO-Fast-Scan — the sequentially consistent snapshot object.

Per the paper's conclusion (Sec. V), the framework "naturally supports an
efficient SSO, which completes SCAN operations without any communication by
returning the extracted vector from the view stored locally."

UPDATE is identical to EQ-ASO (same :math:`O(\\sqrt{k}\\,D)` worst case /
amortized :math:`O(D)`); SCAN returns ``extract(safeView)`` where
``safeView`` is the node's most recent *safe* view — the union of every
good-lattice-operation view the node has learned, either by completing a
good lattice operation itself or by receiving a ``goodLA`` message (line 49
records the sender's view before anything else can run).  Good-lattice
views are pairwise comparable (Lemma 2), so the union of those learned so
far equals the largest of them and ``safeView`` advances monotonically —
which is exactly what sequential consistency needs:

- a node's own scans observe non-decreasing bases;
- an UPDATE's renewal view contains the written value, so the updater's
  subsequent local scans see its own writes;
- bases across nodes remain pairwise comparable (A1).

Real-time ordering across nodes is deliberately **not** guaranteed — a test
exhibits an SSO history that is sequentially consistent but not
linearizable (a stale local scan after a remote update completed), which is
the semantic gap between Definition 2 and Definition 3.
"""

from __future__ import annotations

from repro.core.eq_aso import EqAso, View
from repro.core.tags import extract
from repro.runtime.protocol import OpGen


class SsoFastScan(EqAso):
    """Sequentially consistent snapshot object with O(1), zero-message SCAN.

    Requires ``n > 2f`` (UPDATE uses the EQ-ASO machinery unchanged).
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        # the empty view *of this node's plane*, so that the unions below
        # stay handles of one interner and never copy a value
        self._safe_view: View = self.V.row(node_id)
        self.scan_messages = 0  # stays 0 forever; asserted by tests

    def _on_safe_view(self, view: View) -> None:
        # Views from good lattice operations form a chain (Lemma 2), so
        # the running union equals the maximum view learned so far.
        # Views are immutable, so SCAN hands this one out without
        # copying; the subset guard skips stale/duplicate views.
        if not view <= self._safe_view:
            self._safe_view = self._safe_view | view

    def scan(self) -> OpGen:  # lint: ignore[RL005] — zero-communication op
        """SCAN() — completes locally, sends nothing, never waits (its
        span has no protocol phases by construction, so the per-D
        accounting stays total without annotations)."""
        yield from ()  # a generator with zero waits: O(1) local step
        return extract(self._safe_view, self.n)


__all__ = ["SsoFastScan"]

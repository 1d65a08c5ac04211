"""Byzantine-tolerant atomic snapshot object (tech-report reconstruction).

The conference paper describes the Byzantine ASO only as "integrating
reliable broadcast [18] with our framework" (Sec. V); DESIGN.md §3.3
documents our reconstruction in full.  Summary of the changes relative to
:class:`~repro.core.eq_aso.EqAso` (requires ``n > 3f``):

1. **Values travel by Bracha RBC.**  A Byzantine writer cannot equivocate:
   at most one value is delivered per message id, and delivery is
   all-or-nothing across honest nodes.  A delivered value is accepted only
   if its claimed writer is the RBC origin, and only the first value per
   timestamp counts (a Byzantine origin cannot create two values with one
   timestamp).

2. **Rows of ``V`` are rebuilt from ``HAVE`` announcements.**  Each node
   announces every value it delivers, exactly once, in delivery order;
   a ``HAVE`` from ``j`` is applied only once the value has been
   RBC-delivered locally (buffered otherwise), so Byzantine nodes cannot
   plant fabricated values in honest rows.  Honest rows remain prefixes of
   one per-sender sequence (Observation 1); for Byzantine rows the EQ
   quorum-intersection argument falls back on honest intersection:
   with ``n > 3f``, two ``n−f`` quorums share at least ``f+1`` nodes,
   hence at least one honest node, which restores Lemma 1.

3. **Borrowed views are verified.**  ``goodLA`` carries the view contents;
   a borrow is accepted only when ``f+1`` distinct senders claim an
   identical ``(tag, view)`` (so at least one claimant is honest and the
   view is a genuine good-lattice view) *and* every value in it has been
   delivered locally.  When no verifiable borrow is available the renewal
   keeps running lattice operations instead; termination then follows
   whenever Byzantine tag interference is finite — which is the regime of
   the paper's ``O(k·D)`` claim (``k`` counts faulty *nodes*, each with a
   bounded damage budget).  Safety (linearizability of the honest
   sub-history) holds unconditionally; the test-suite checks it under
   every shipped attack behaviour.

4. **Arbitrary garbage is tolerated.**  Unknown or malformed messages are
   dropped instead of raising (a Byzantine sender controls payload bytes).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.byz_messages import MByzGoodLA, MHave
from repro.core.eq_aso import EqAso, View
from repro.core.messages import MEchoTag, MReadAck, MReadTag, MWriteAck, MWriteTag
from repro.core.tags import Timestamp, ValueTs
from repro.net.rbc import BrachaRBC
from repro.runtime.protocol import OpGen, WaitUntil

#: lines 43-48 run through the table inherited from EqAso; its ``value``/
#: ``goodLA`` entries stay unreachable (RBC values, verified borrows)
_TAG_KINDS = frozenset({MWriteTag, MWriteAck, MEchoTag, MReadTag, MReadAck})


class ByzantineAso(EqAso):
    """Byzantine-tolerant multi-shot ASO (``n > 3f``)."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        if n <= 3 * f:
            raise ValueError(f"Byzantine ASO requires n > 3f (n={n}, f={f})")
        super().__init__(node_id, n, f)
        self.rbc = BrachaRBC(self, self._on_rbc_deliver)
        self._delivered_ts: dict[Timestamp, ValueTs] = {}
        self._pending_haves: dict[ValueTs, set[int]] = {}
        # votes for verified borrowing: (tag, ids) -> distinct claimants
        self._good_la_votes: dict[tuple[int, frozenset[ValueTs]], set[int]] = {}
        # claims verified locally against the HAVE-rows (see
        # _row_verify_claim) plus claims that reached f+1 matching votes
        self._verified_claims: set[tuple[int, frozenset[ValueTs]]] = set()
        self._pending_claims: set[tuple[int, frozenset[ValueTs]]] = set()
        # a delivery or HAVE of `vt` can only newly satisfy claims whose
        # view contains `vt` (a row gaining an outside value can only
        # *break* that claim's row matches, and vote-count changes are
        # rechecked directly by the goodLA handler), so pending claims
        # are indexed by the values they wait on instead of rescanned
        self._claims_waiting_on: dict[
            ValueTs, set[tuple[int, frozenset[ValueTs]]]
        ] = {}
        self.garbage_dropped = 0

    # ==================================================================
    # value dissemination: RBC + HAVE rows
    # ==================================================================
    def _disseminate_value(self, vt: ValueTs) -> None:
        self.rbc.rbc_broadcast(vt)

    def _on_rbc_deliver(self, origin: int, payload: Any) -> None:
        if not isinstance(payload, ValueTs):
            self.garbage_dropped += 1
            return
        vt = payload
        if vt.writer != origin:
            self.garbage_dropped += 1  # byz origin claiming another's segment
            return
        if vt.ts in self._delivered_ts:
            return  # integrity: first value per timestamp wins
        self._delivered_ts[vt.ts] = vt
        self.V.add(self.node_id, vt)
        self.broadcast(MHave(vt))
        for j in self._pending_haves.pop(vt, ()):  # flush buffered HAVEs
            self.V.add(j, vt)
        self._recheck_pending_claims(vt)

    def _is_delivered(self, vt: ValueTs) -> bool:
        return self._delivered_ts.get(vt.ts) == vt

    # ==================================================================
    # client operations (UPDATE overrides only the dissemination step)
    # ==================================================================
    def update(self, value: Any) -> OpGen:
        """UPDATE(v): like Algorithm 1 lines 4-10, with RBC dissemination."""
        r = yield from self._read_tag()
        ts = Timestamp(r + 1, self.node_id)
        self._useq += 1
        vt = ValueTs(value, ts, self._useq)
        self._disseminate_value(vt)
        if self.enable_phase0:
            self.phase_enter("phase0")
            yield from self._lattice(r)
            self.phase_exit("phase0")
        r2 = max(r + 1, self.max_tag)
        yield from self._lattice_renewal(r2)
        return "ACK"

    # scan() inherited unchanged.

    # ==================================================================
    # lattice renewal with verified borrowing
    # ==================================================================
    def _lattice_renewal(self, r: int) -> Generator[WaitUntil, None, View]:
        self.phase_enter("lattice")
        try:
            while True:
                status, view = yield from self._lattice(r)
                if status:
                    return view
                # Not good ⇒ maxTag advanced past r.  Prefer a verified
                # borrow (covers any tag in [r, maxTag]); otherwise renew
                # at maxTag.
                borrowed = self._find_verified_borrow(r, self.max_tag)
                if borrowed is not None:
                    self.indirect_views_used += 1
                    return borrowed
                r = self.max_tag
        finally:
            self.phase_exit("lattice")

    def _broadcast_good_la(self, tag: int, view: View) -> None:
        ids = frozenset(view)
        self.broadcast(MByzGoodLA(tag, ids))
        # our own claim counts as one vote (we are honest by assumption)
        self._good_la_votes.setdefault((tag, ids), set()).add(self.node_id)

    def _find_verified_borrow(self, lo: int, hi: int) -> View | None:
        """A verified claimed view for a tag in [lo, hi]: either ≥ f+1
        distinct senders claimed the identical (tag, ids), or the claim is
        locally row-verified; all values must be locally delivered."""
        best: View | None = None
        best_key = (-1, -1)
        for (tag, ids), voters in self._good_la_votes.items():
            if not (lo <= tag <= hi):
                continue
            if len(voters) < self.f + 1 and (tag, ids) not in self._verified_claims:
                continue
            if not all(self._is_delivered(vt) for vt in ids):
                continue
            key = (tag, len(ids))
            if key > best_key:
                best_key, best = key, ids
        return best

    # ------------------------------------------------------------------
    # claim verification against HAVE-rows
    # ------------------------------------------------------------------
    def _row_verify_claim(self, tag: int, ids: View) -> bool:
        """A claim is *row-verified* when ``≥ n−f`` HAVE-rows restricted to
        ``tag`` equal ``ids`` — the verifier's own equivalence-quorum
        evidence, independent of the claimant.  Row-verified sets are
        pairwise comparable across honest verifiers by the usual honest
        quorum-intersection argument (DESIGN.md §3.3), so they are safe to
        serve from the SSO's local vector and to borrow.  The row
        comparison is a per-row mask test on the bitset data plane."""
        if not all(self._is_delivered(vt) for vt in ids):
            return False
        return self.V.matching_restricted_rows(tag, ids) >= self.quorum_size

    def _accept_claim(self, tag: int, ids: View) -> None:
        if (tag, ids) in self._verified_claims:
            return
        self._verified_claims.add((tag, ids))
        self._unpend_claim((tag, ids))
        self._on_safe_view(ids)

    def _consider_claim(self, tag: int, ids: View) -> None:
        voters = self._good_la_votes.get((tag, ids), set())
        if len(voters) >= self.f + 1 and all(self._is_delivered(vt) for vt in ids):
            self._accept_claim(tag, ids)
        elif self._row_verify_claim(tag, ids):
            self._accept_claim(tag, ids)
        else:
            self._pend_claim((tag, ids))

    def _pend_claim(self, key: tuple[int, View]) -> None:
        if key in self._pending_claims:
            return
        self._pending_claims.add(key)
        for vt in key[1]:
            self._claims_waiting_on.setdefault(vt, set()).add(key)

    def _unpend_claim(self, key: tuple[int, View]) -> None:
        if key not in self._pending_claims:
            return
        self._pending_claims.discard(key)
        for vt in key[1]:
            bucket = self._claims_waiting_on.get(vt)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._claims_waiting_on[vt]

    def _recheck_pending_claims(self, vt: ValueTs) -> None:
        """Recheck only the pending claims whose view contains ``vt`` —
        the ones a delivery/HAVE of ``vt`` can newly satisfy."""
        bucket = self._claims_waiting_on.get(vt)
        if not bucket:
            return
        for key in list(bucket):
            if key in self._pending_claims:
                self._consider_claim(*key)

    # ==================================================================
    # server thread
    # ==================================================================
    def on_message(self, src: int, payload: Any) -> None:
        try:
            if self.rbc.handle(src, payload):
                return
            kind = type(payload)
            if kind in _TAG_KINDS:
                self._handlers[kind](self, src, payload)
                return
            match payload:
                case MHave(vt) if isinstance(vt, ValueTs):
                    if self._is_delivered(vt):
                        self.V.add(src, vt)
                        self._recheck_pending_claims(vt)
                    else:
                        self._pending_haves.setdefault(vt, set()).add(src)
                case MByzGoodLA(tag, ids) if isinstance(tag, int) and tag >= 0:
                    view = frozenset(ids)
                    self._good_la_votes.setdefault((tag, view), set()).add(src)
                    self.D_view[src] = view
                    self._consider_claim(tag, view)
                case _:
                    self.garbage_dropped += 1
        except (TypeError, ValueError, AttributeError):
            # malformed byz payload inside a structurally valid envelope
            self.garbage_dropped += 1


__all__ = ["ByzantineAso"]

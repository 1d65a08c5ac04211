"""EQ-ASO — Algorithm 1 of the paper (multi-shot atomic snapshot object).

A line-by-line transcription of the pseudocode, written sans-io so the same
object runs under the discrete-event simulator and asyncio.  Key design
points preserved from the paper (each pinned by a dedicated test):

- ``maxTag`` is updated **only** by ``writeTag``/``echoTag`` messages,
  never by ``value`` messages (Sec. III-D, "Message Handlers") — this is
  what makes a good lattice operation exist for every tag and underpins
  the :math:`O(\\sqrt{k}\\,D)` bound;
- lines 16–21 execute atomically: the equivalence set is captured, the
  ``maxTag ≤ r`` test performed and ``goodLA`` broadcast without any
  intervening handler;
- UPDATE performs the *phase-0* lattice operation (line 7) with the tag it
  read, **before** the renewal with ``max(r+1, maxTag)``;
- ``LatticeRenewal`` runs at most three lattice operations and then
  borrows an indirect view from a ``goodLA`` sender (techniques T1/T2);
- the ``goodLA`` handler records the borrowed view before any pending
  renewal resumes (the paper's NOTE at line 49).

One deliberate deviation, documented in DESIGN.md: the pseudocode's
indentation places the ``writeAck`` reply (line 46) inside the
``tag > maxTag`` guard.  Read literally, a second node writing an
already-known tag would never assemble its ack quorum and ``writeTag``
would block forever — yet the paper's analysis has many nodes running
lattice operations *with the same tag*.  We therefore send ``writeAck``
unconditionally (echoing and the ``maxTag`` update stay guarded), which is
the only reading under which the algorithm is live.
"""

from __future__ import annotations

import itertools
from collections.abc import Set
from typing import Any, Generator

from repro.core.messages import (
    MEchoTag,
    MGoodLA,
    MReadAck,
    MReadTag,
    MValue,
    MWriteAck,
    MWriteTag,
)
from repro.core.tags import Timestamp, ValueTs, extract
from repro.core.views import ViewVector
from repro.runtime.protocol import OpGen, ProtocolNode, WaitUntil, handles

#: a view is a set of values; the view plane hands them out as handles
#: (:class:`repro.core.views.ViewHandle`), ``ByzantineAso`` also holds
#: plain frozensets received off the wire
View = Set[ValueTs]


class EqAso(ProtocolNode):
    """Crash-tolerant multi-shot atomic snapshot object (Algorithm 1).

    Requires ``n > 2f``.  Public client operations: :meth:`update` and
    :meth:`scan` (generator-style; drive them with a runtime).

    Instrumentation attributes (read by experiments, never by the
    algorithm itself): :attr:`lattice_ops_started`,
    :attr:`good_lattice_ops`, :attr:`indirect_views_used`.
    """

    #: ablation switches (class-level defaults; the ablation experiments
    #: subclass/flip these to demonstrate each mechanism is load-bearing)
    enable_tag_recheck: bool = True  # technique (T1), line 17
    enable_borrowing: bool = True  # technique (T2), lines 26-30
    enable_phase0: bool = True  # line 7

    #: long-lived deployments: keep borrowable goodLA views only for the
    #: most recent ``gc_tag_window`` tags (None = keep everything, the
    #: pseudocode's implicit behaviour).  A tag a renewal is currently
    #: waiting on is always retained, so liveness is unaffected; older
    #: entries can no longer be borrowed by *future* renewals, which is
    #: safe because a renewal only ever borrows at a tag ≥ the one it
    #: read, and read tags are non-decreasing.
    gc_tag_window: int | None = None

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"EQ-ASO requires n > 2f (n={n}, f={f})")
        # --- Algorithm 1 local variables (lines 1-3) ---
        self.V = ViewVector(n)
        self.max_tag = 0
        self.D_view: list[View | None] = [None] * n
        # --- bookkeeping the pseudocode leaves implicit ---
        self._useq = 0  # per-writer update sequence number (footnote 2)
        self._reqids = itertools.count(1)
        # goodLA views recorded per (tag, sender) at receipt time; the
        # per-tag record is the race-free generalization of D[j] needed by
        # the asyncio runtime (handlers and client threads interleave there)
        self._good_la_views: dict[int, dict[int, View]] = {}
        self._borrow_tag_in_use: int | None = None
        # --- instrumentation ---
        self.lattice_ops_started = 0
        self.good_lattice_ops = 0
        self.indirect_views_used = 0
        #: (tag, view) of every good lattice operation this node completed
        #: — the raw material for the Lemma 2 property tests
        self.good_views: list[tuple[int, View]] = []

    # ==================================================================
    # client operations
    # ==================================================================
    def update(self, value: Any) -> OpGen:
        """UPDATE(v) — lines 4-10."""
        r = yield from self._read_tag()  # line 4
        ts = Timestamp(r + 1, self.node_id)  # line 5
        self._useq += 1
        vt = ValueTs(value, ts, self._useq)
        self.broadcast(MValue(vt))  # line 6
        if self.enable_phase0:
            self.phase_enter("phase0")
            yield from self._lattice(r)  # line 7 (phase 0)
            self.phase_exit("phase0")
        r2 = max(r + 1, self.max_tag)  # line 8
        yield from self._lattice_renewal(r2)  # line 9 (view discarded)
        return "ACK"  # line 10

    def scan(self) -> OpGen:
        """SCAN() — lines 11-13."""
        r = yield from self._read_tag()  # line 11
        view = yield from self._lattice_renewal(r)  # line 12
        return extract(view, self.n)  # line 13

    # ==================================================================
    # helper procedures
    # ==================================================================
    def _lattice(self, r: int) -> Generator[WaitUntil, None, tuple[bool, View]]:
        """Lattice(r) — lines 14-21."""
        self.lattice_ops_started += 1
        self.phase_enter("lattice-op")
        yield from self._write_tag(r)  # line 14
        holder: list[View] = []

        def eq_holds() -> bool:
            hit = self.V.eq_predicate(self.node_id, self.f, r)
            if hit is None:
                return False
            holder.append(hit[1])
            return True

        self.phase_enter("eq-wait")
        yield WaitUntil(eq_holds, f"EQ(V^<={r}, {self.node_id})")  # line 15
        self.phase_exit("eq-wait")
        self.phase_exit("lattice-op")
        # lines 16-21 run atomically: the runtime resumes us synchronously
        # and no handler executes until the next yield.
        v_star = holder[-1]  # line 16
        if (not self.enable_tag_recheck) or self.max_tag <= r:  # line 17
            self.good_lattice_ops += 1
            self._record_good_la(r, v_star)
            self._broadcast_good_la(r, v_star)  # line 18
            return (True, v_star)  # line 19
        return (False, frozenset())  # line 21

    def _broadcast_good_la(self, tag: int, view: View) -> None:
        """Announce a good lattice operation (line 18).  The Byzantine
        variant overrides this to attach the view's contents."""
        self.broadcast(MGoodLA(tag))

    def _lattice_renewal(self, r: int) -> Generator[WaitUntil, None, View]:
        """LatticeRenewal(r) — lines 22-30."""
        self.phase_enter("lattice")
        try:
            return (yield from self._renewal_body(r))
        finally:
            self.phase_exit("lattice")

    def _renewal_body(self, r: int) -> Generator[WaitUntil, None, View]:
        for phase in (1, 2, 3):  # line 22
            status, view = yield from self._lattice(r)  # line 23
            if status:
                return view  # line 25 (direct view)
            if phase == 3:
                break  # line 27
            r = self.max_tag  # line 28
        if not self.enable_borrowing:
            # ablation: keep renewing forever instead of borrowing; the
            # liveness probe (StuckError) demonstrates why T2 exists.
            while True:
                r = max(r + 1, self.max_tag)
                status, view = yield from self._lattice(r)
                if status:
                    return view
        # line 29: wait for a goodLA with *this* tag from some node j
        tag = r

        def borrowable() -> bool:
            views = self._good_la_views.get(tag)
            return bool(views)

        self._borrow_tag_in_use = tag  # pin against gc_tag_window pruning
        self.phase_enter("borrow-wait")
        try:
            yield WaitUntil(borrowable, f"goodLA({tag}) from some node")
        finally:
            self._borrow_tag_in_use = None
            self.phase_exit("borrow-wait")
        views = self._good_la_views[tag]
        j = min(views)  # deterministic choice of "some node j"
        self.indirect_views_used += 1
        return views[j]  # line 30 (indirect view)

    def _read_tag(self) -> Generator[WaitUntil, None, int]:
        """readTag() — lines 35-37."""
        reqid = next(self._reqids)
        self.phase_enter("readTag")
        acks = yield from self.quorum_round(
            reqid, MReadTag(reqid), f"readTag quorum (req {reqid})"
        )  # lines 35-36
        self.phase_exit("readTag")
        return max(acks.values())  # line 37

    def _write_tag(self, tag: int) -> Generator[WaitUntil, None, None]:
        """writeTag(tag) — lines 38-39."""
        reqid = next(self._reqids)
        self.phase_enter("writeTag")
        yield from self.quorum_round(
            reqid, MWriteTag(tag, reqid), f"writeTag({tag}) quorum (req {reqid})"
        )  # lines 38-39
        self.phase_exit("writeTag")

    # ==================================================================
    # server thread (lines 40-49); each invocation is atomic
    # ==================================================================
    @handles(MValue)
    def _on_value(self, src: int, m: MValue) -> None:  # lines 40-42
        # forward exactly once: on first receipt (new to ``V[i]``), unless
        # it is our own line-6 broadcast coming back — everyone has that
        if self.V.learn(src, self.node_id, m.vt) and src != self.node_id:
            self.broadcast(m)

    @handles(MGoodLA)
    def _on_good_la(self, src: int, m: MGoodLA) -> None:  # line 49
        view = self.V.restricted_row(src, m.tag)
        self.D_view[src] = view
        self._good_la_views.setdefault(m.tag, {})[src] = view
        self._on_safe_view(view)

    # the tag sub-protocol (lines 43-48); shared with the Byzantine variant
    @handles(MWriteTag)
    def _on_write_tag(self, src: int, m: MWriteTag) -> None:  # lines 43-46
        tag = m.tag
        if tag > self.max_tag:
            self.max_tag = tag
            self.broadcast(MEchoTag(tag))
            self._gc_old_tags()
        # writeAck is unconditional; see module docstring.
        self.send(src, MWriteAck(tag, m.reqid))

    @handles(MWriteAck)
    def _on_write_ack(self, src: int, m: MWriteAck) -> None:
        self.round_reply(MWriteTag, m.reqid, src)

    @handles(MEchoTag)
    def _on_echo_tag(self, src: int, m: MEchoTag) -> None:  # line 47
        if m.tag > self.max_tag:
            self.max_tag = m.tag
            self._gc_old_tags()

    @handles(MReadTag)
    def _on_read_tag(self, src: int, m: MReadTag) -> None:  # line 48
        self.send(src, MReadAck(self.max_tag, m.reqid))

    @handles(MReadAck)
    def _on_read_ack(self, src: int, m: MReadAck) -> None:
        self.round_reply(MReadTag, m.reqid, src, m.tag)

    # ------------------------------------------------------------------
    def _record_good_la(self, tag: int, view: View) -> None:
        """Record our own good lattice operation's view (the broadcast at
        line 18 also reaches us, but recording synchronously keeps the
        local state exact for the SSO subclass)."""
        self.D_view[self.node_id] = view
        self._good_la_views.setdefault(tag, {})[self.node_id] = view
        self.good_views.append((tag, view))
        self._on_safe_view(view)

    def _on_safe_view(self, view: View) -> None:
        """Hook: a view known to be safe to return was learned.
        :class:`repro.core.sso.SsoFastScan` overrides this to maintain the
        local vector its zero-communication SCAN returns."""

    def _gc_old_tags(self) -> None:
        """Prune borrowable-view records older than the gc window (no-op
        unless :attr:`gc_tag_window` is set).  The tag a renewal is
        actively waiting on is always retained.

        Also retires the view vector's per-tag bookkeeping (incremental
        EQ states, cumulative masks) below the cutoff: read tags are
        non-decreasing, so no future lattice operation restricts below
        it.
        """
        if self.gc_tag_window is None:
            return
        cutoff = self.max_tag - self.gc_tag_window
        for tag in [t for t in self._good_la_views if t < cutoff]:
            if tag != self._borrow_tag_in_use:
                del self._good_la_views[tag]
        self.V.prune_below(cutoff)


__all__ = ["EqAso"]

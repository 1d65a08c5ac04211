"""View vectors and the equivalence-quorum predicate (Definition 6).

Node ``i`` maintains ``V[1..n]`` where ``V[j]`` is the set of values
(value–timestamp pairs) received from node ``j``.  Because channels are
FIFO and each node forwards every value exactly once, ``V_i[j]`` is ``i``'s
view of what ``j`` has learned (Sec. III-C), which yields the comparability
property of Observation 1.

``EQ(V, i)`` holds iff at least ``n − f`` rows (an *equivalence quorum*)
equal row ``i`` (the *equivalence set*).  The multi-shot algorithm checks
the predicate on the tag-restricted vector ``V^{≤r}``.

**Representation.**  Every distinct value is interned into a dense
integer id by a per-node :class:`ValueInterner`, a row is a Python int
used as a bitset (``row |= 1 << id``), and a tag restriction
``V[j]^{≤r}`` is ``row & mask(r)`` for a cumulative mask the interner
keeps current — one ``&``, nothing to cache.

**A view is a handle.**  ``row``, ``restricted_row``, ``all_values`` and
the equivalence set of ``eq_predicate`` are :class:`ViewHandle` objects:
the pair ``(interner, mask)``, an immutable ``collections.abc.Set``.
Ids are append-only and never reused, so a mask names the same set of
values forever and handing one out copies nothing.  ``len`` is a
popcount, ``in`` one id lookup and a bit test, ``==``/``<=``/``|``/``&``
between two handles of one node are integer operations, iteration walks
the set bits in id order, and :func:`repro.core.tags.extract` reads the
interner's per-writer, timestamp-ordered id lists from the newest entry
down instead of visiting every member.  A handle *materializes* — builds
the ``frozenset`` it denotes, once, and keeps it — only when it meets
something outside its own interner: a comparison or union with another
node's handle or a plain ``frozenset``, or ``hash()`` (``ByzantineAso``
keys dicts on views; the hash equals the frozenset's).  A crash-model
DES run never does: an UPDATE discards its renewal view, a SCAN
extracts from it, ``goodLA`` records and the SSO's safe view stay
handles of one interner.  So the cost of a lattice operation is what
the paper counts — messages and ``D`` — not an O(N) copy of everything
written so far.

**Incremental EQ.**  ``EQ(V^{≤r}, i)`` is masked integer equality kept
up to date across polls: the runtime re-polls the
predicate after *every* delivery while a lattice operation waits, so the
vector tracks which rows changed since the last poll and maintains a
bitmask of rows matching row ``i`` — a delivery that touched no row
re-checks nothing, and a typical delivery re-checks exactly one row
instead of rebuilding ``n`` frozensets.  Incremental match state is kept
for up to :data:`MAX_EQ_STATES` distinct ``(i, r)`` predicates
simultaneously, and one pass over the dirty rows refreshes *every*
pending predicate's match mask (the batched-EQ evaluation): a lattice
operation returning to a tag it polled before — phase-0 at ``r`` followed
by a renewal, or the three-attempt renewal loop — answers from its kept
mask instead of re-scanning all ``n`` rows.  ``STATS.eq_batched_scans``
counts the piggybacked refreshes.

Algorithms never observe the representation.  The original
frozenset-per-row implementation lives on as the behavioural oracle in
``tests/support/reference_substrate.py``; randomized differential tests
drive both through identical operation interleavings.
"""

from __future__ import annotations

import operator
from bisect import insort
from collections.abc import Set
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.tags import ValueTs, latest_by_scan, tag_of
from repro.sim.fastpath import STATS

#: Upper bound on concurrently-tracked incremental EQ states per vector.
#: A node polls EQ for its own row at the current read tag plus the
#: handful of renewal tags a lattice operation revisits, so a small
#: bound captures every live predicate; eviction is least-recently-
#: queried (re-querying an evicted state just pays one full rescan).
MAX_EQ_STATES = 8

#: A state not re-queried within this many evaluations is dropped at the
#: next dirty flush instead of refreshed: batched upkeep is a bet that
#: the predicate will be polled again soon, and a stale state would
#: otherwise tax every flush until `prune_below` retires its tag.
MAX_EQ_IDLE = 64


class ValueInterner:
    """Per-vector table assigning each distinct value a dense integer id.

    The id is the value's bit position in every row bitset.  The interner
    also maintains, per distinct tag, the bitmask of ids carrying that
    tag, and memoizes cumulative ``tag ≤ r`` masks so a tag restriction
    is a single ``&``.  Memoized masks are kept current as new values are
    interned (a new bit is OR-ed into every covering mask), so a memoized
    mask is never stale.

    For ``extract`` it also keeps, per writer, the ``(tag, id)`` pairs of
    that writer's values in timestamp order (one writer's timestamps
    differ only in the tag), and the mask of ids that carry no timestamp
    at all (lattice-agreement proposals).
    """

    __slots__ = (
        "_ids",
        "_values",
        "_tag_masks",
        "_cum_masks",
        "_by_writer",
        "_untagged_mask",
    )

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []
        self._tag_masks: dict[int, int] = {}
        self._cum_masks: dict[int, int] = {}
        self._by_writer: list[list[tuple[int, int]]] = []
        self._untagged_mask = 0

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, assigning the next free one if new."""
        idx = self._ids.get(value)
        if idx is None:
            idx = len(self._values)
            self._ids[value] = idx
            self._values.append(value)
            tag = tag_of(value)
            bit = 1 << idx
            self._tag_masks[tag] = self._tag_masks.get(tag, 0) | bit
            for r in self._cum_masks:
                if tag <= r:
                    self._cum_masks[r] |= bit
            ts = getattr(value, "ts", None)
            if ts is None:
                self._untagged_mask |= bit
            else:
                by_writer = self._by_writer
                while len(by_writer) <= ts.writer:
                    by_writer.append([])
                entries = by_writer[ts.writer]
                if not entries or entries[-1][0] < tag:
                    entries.append((tag, idx))
                else:  # arrived out of timestamp order (jitter, Byzantine)
                    insort(entries, (tag, idx))
            STATS.values_interned += 1
        return idx

    def id_of(self, value: Hashable) -> int | None:
        """The id of ``value`` if it has been interned, else ``None``."""
        return self._ids.get(value)

    def mask_at_most(self, r: int) -> int:
        """Bitmask of every interned value with tag ≤ ``r`` (memoized)."""
        mask = self._cum_masks.get(r)
        if mask is None:
            mask = 0
            for tag, tag_mask in self._tag_masks.items():
                if tag <= r:
                    mask |= tag_mask
            self._cum_masks[r] = mask
        return mask

    def prune_masks_below(self, r: int) -> None:
        """Drop memoized cumulative masks for restrictions below ``r``
        (recomputable from the per-tag masks if ever queried again)."""
        for key in [k for k in self._cum_masks if k < r]:
            del self._cum_masks[key]

    def mask_stats(self) -> dict[str, int]:
        """Diagnostics: table sizes (read by ``cache_stats``/benchmarks)."""
        return {
            "interned": len(self._values),
            "tag_masks": len(self._tag_masks),
            "cum_masks": len(self._cum_masks),
        }


class ViewHandle(Set):
    """An immutable set of interned values: ``(interner, mask)``.

    Behaves as the ``frozenset`` of the values whose ids are set in
    ``mask`` — equal to it, hashing like it, usable wherever one is —
    without building it.  Operations between two handles of the same
    interner are integer operations on the masks; anything else goes
    through :meth:`_materialize` (see the module docstring).
    """

    __slots__ = ("_interner", "_mask", "_frozen")

    def __init__(self, interner: ValueInterner, mask: int) -> None:
        self._interner = interner
        self._mask = mask
        self._frozen: frozenset | None = None

    @classmethod
    def _from_iterable(cls, it: Iterable[Any]) -> frozenset:
        # results of the inherited element-wise operators (-, ^)
        return frozenset(it)

    def _materialize(self) -> frozenset:
        """The frozenset this handle denotes, built once and kept."""
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(self)
        return frozen

    def _peer_mask(self, other: object) -> int | None:
        """``other``'s mask if it is a handle of this interner."""
        if type(other) is ViewHandle and other._interner is self._interner:
            return other._mask
        return None

    def _foreign(self, op: Callable[[Any, Any], Any], other: object) -> Any:
        """``op`` against anything that is not a handle of this interner:
        on the materialized frozensets."""
        if not isinstance(other, Set):
            return NotImplemented
        if type(other) is ViewHandle:
            other = other._materialize()
        return op(self._materialize(), other)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __contains__(self, value: object) -> bool:
        idx = self._interner._ids.get(value)
        return idx is not None and (self._mask >> idx) & 1 == 1

    def __iter__(self) -> Iterator[Any]:
        values = self._interner._values
        m = self._mask
        while m:
            low = m & -m
            yield values[low.bit_length() - 1]
            m ^= low

    def __hash__(self) -> int:
        return hash(self._materialize())

    def __repr__(self) -> str:
        return f"ViewHandle({set(self)!r})" if self._mask else "ViewHandle()"

    # ``!=`` and ``<``/``>`` come from these through ``object`` and the
    # ``Set`` mixin; ``-``, ``^`` and ``isdisjoint`` are the mixin's
    # element-wise versions.
    def __eq__(self, other: object) -> bool:
        peer = self._peer_mask(other)
        if peer is None:
            return self._foreign(operator.eq, other)
        return self._mask == peer

    def __le__(self, other: Set) -> bool:
        peer = self._peer_mask(other)
        if peer is None:
            return self._foreign(operator.le, other)
        return self._mask & ~peer == 0

    def __ge__(self, other: Set) -> bool:
        peer = self._peer_mask(other)
        if peer is None:
            return self._foreign(operator.ge, other)
        return peer & ~self._mask == 0

    def __or__(self, other: Set) -> Set:
        peer = self._peer_mask(other)
        if peer is None:
            return self._foreign(operator.or_, other)
        return ViewHandle(self._interner, self._mask | peer)

    __ror__ = __or__

    def __and__(self, other: Set) -> Set:
        peer = self._peer_mask(other)
        if peer is None:
            return self._foreign(operator.and_, other)
        return ViewHandle(self._interner, self._mask & peer)

    __rand__ = __and__

    def latest_per_writer(self, n: int) -> list[Any]:
        """For each writer ``j < n``, the member written by ``j`` with the
        largest timestamp (``None`` if there is none) — what
        :func:`repro.core.tags.extract` needs of a view.

        Walks each writer's timestamp-ordered ids from the newest down to
        the first one in the mask: a view is a recent prefix of what the
        node has learned, so that is the first or second entry in
        practice, and exact whatever the arrival order was.  Timestamps
        are unique (footnote 2); were one reused, the value interned
        last would win.
        """
        interner = self._interner
        mask = self._mask
        by_writer = interner._by_writer
        if mask & interner._untagged_mask or len(by_writer) > n:
            # a member without a timestamp, or a writer outside 0..n-1:
            # let the generic scan report it the way it always has
            return latest_by_scan(self, n)
        values = interner._values
        best: list[Any] = [None] * n
        for j, entries in enumerate(by_writer):
            for _, idx in reversed(entries):
                if (mask >> idx) & 1:
                    best[j] = values[idx]
                    break
        return best


class ViewVector:
    """The vector ``V[0..n-1]`` of value sets at one node (interned
    bitset rows with incremental EQ — see the module docstring)."""

    __slots__ = (
        "n",
        "_interner",
        "_rows",
        "_dirty",
        "_eq_states",
        "_eq_tick",
        "_union_mask",
        "_max_seen_tag",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self._interner = ValueInterner()
        self._rows: list[int] = [0] * n
        #: bitmask of rows changed since the last eq_predicate evaluation
        self._dirty = 0
        #: (i, r) -> mutable [target bits, match bitmask, last-queried
        #: tick]; insertion order is least-recently-queried (each hit
        #: reinserts its key), bounded at MAX_EQ_STATES by evicting the
        #: front, with idle states expired after MAX_EQ_IDLE evals
        self._eq_states: dict[tuple[int, int | None], list[int]] = {}
        #: eq_predicate call counter (the idle-expiry clock)
        self._eq_tick = 0
        self._union_mask = 0
        self._max_seen_tag = 0

    def add(self, j: int, vt: ValueTs) -> bool:
        """Add ``vt`` to row ``j``; returns True if it was new to that row."""
        bit = 1 << self._interner.intern(vt)
        row = self._rows[j]
        if row & bit:
            return False
        self._rows[j] = row | bit
        self._dirty |= 1 << j
        if not self._union_mask & bit:
            self._union_mask |= bit
            tag = tag_of(vt)
            if tag > self._max_seen_tag:
                self._max_seen_tag = tag
        return True

    def learn(self, src: int, me: int, value: Hashable) -> bool:
        """Node ``me`` received ``value`` from ``src`` (Algorithm 1 lines
        40-41): intern it once, add it to rows ``src`` and ``me``, and
        return whether it was new to row ``me``.

        Row ``me`` holds every value the node has received, so "new to
        my row" is "first receipt" — the forward-once test of line 41,
        with no set kept beside the vector.
        """
        bit = 1 << self._interner.intern(value)
        rows = self._rows
        mine = rows[me]
        new = not mine & bit
        if new:
            rows[me] = mine | bit
            self._dirty |= 1 << me
            if not self._union_mask & bit:
                self._union_mask |= bit
                tag = tag_of(value)
                if tag > self._max_seen_tag:
                    self._max_seen_tag = tag
        theirs = rows[src]
        if not theirs & bit:  # the union has it: row ``me`` does by now
            rows[src] = theirs | bit
            self._dirty |= 1 << src
        return new

    def row(self, j: int) -> ViewHandle:
        """A read-only snapshot of row ``j`` (the full, unrestricted view)."""
        return ViewHandle(self._interner, self._rows[j])

    def row_size(self, j: int) -> int:
        return self._rows[j].bit_count()

    def contains(self, j: int, vt: ValueTs) -> bool:
        idx = self._interner.id_of(vt)
        return idx is not None and (self._rows[j] >> idx) & 1 == 1

    def restricted_row(self, j: int, r: int) -> ViewHandle:
        """``V[j]^{≤r}`` — the values in row ``j`` with tag at most ``r``."""
        interner = self._interner
        return ViewHandle(interner, self._rows[j] & interner.mask_at_most(r))

    def matching_restricted_rows(self, r: int, ids: Set[ValueTs]) -> int:
        """How many rows satisfy ``V[j]^{≤r} == ids``.

        This is the verifier's side of the Byzantine row-verified borrow
        (DESIGN.md §3.3): the caller compares the count against its
        ``n − f`` quorum.  One mask comparison per row.
        """
        id_of = self._interner.id_of
        claim = 0
        for vt in ids:
            idx = id_of(vt)
            if idx is None:
                return 0  # a value no row here has ever seen: no row matches
            claim |= 1 << idx
        mask = self._interner.mask_at_most(r)
        if claim & ~mask:
            return 0  # some claimed value has tag > r: no restriction matches
        return sum(1 for row in self._rows if row & mask == claim)

    def all_values(self) -> ViewHandle:
        """Union of all rows (every value this node has ever seen).

        Maintained incrementally by :meth:`add` — feeds per-op harness
        diagnostics, never the algorithm.
        """
        return ViewHandle(self._interner, self._union_mask)

    def max_value_tag(self) -> int:
        """Largest tag among received values (0 if none).

        Note this is *not* the algorithm's ``maxTag`` variable: per the
        paper (Sec. III-D, "Message Handlers"), ``maxTag`` is updated only
        by writeTag/echoTag messages — a dedicated test pins that rule.
        This helper only feeds diagnostics and is maintained incrementally
        by :meth:`add`.
        """
        return self._max_seen_tag

    def eq_predicate(
        self, i: int, f: int, r: int | None = None
    ) -> tuple[tuple[int, ...], ViewHandle] | None:
        """Evaluate ``EQ(V^{≤r}, i)`` (Definition 6).

        Args:
            i: the node evaluating the predicate.
            f: fault threshold; the quorum size is ``n − f``.
            r: tag bound; ``None`` means the unrestricted predicate
               (one-shot algorithm, Sec. III-C).

        Returns:
            ``(quorum, equivalence_set)`` if the predicate holds — the
            quorum is the sorted tuple of *all* matching rows (a superset
            of some ``n − f``-quorum) — else ``None``.
        """
        STATS.eq_evals += 1
        rows = self._rows
        n = self.n
        interner = self._interner
        key = (i, r)
        states = self._eq_states
        state = states.get(key)
        dirty = self._dirty
        tick = self._eq_tick = self._eq_tick + 1
        if dirty:
            # one pass over the dirty rows refreshes EVERY pending
            # predicate's match mask (the batched-EQ evaluation), so a
            # predicate re-queried later answers incrementally instead
            # of paying a full rescan for rows that changed "while it
            # was away".  A new value interned since a state's last
            # refresh can widen its mask, but an unchanged row cannot
            # contain the new bit (setting a row bit marks the row
            # dirty), so clean rows keep their masked value — and their
            # match status — as-is; the mask is re-derived fresh per
            # state for exactly this reason.  eq_rows_scanned/saved keep
            # their PR-4 meaning (row work for the *queried* predicate);
            # piggybacked refreshes are accounted in eq_batched_scans.
            expired = None
            for k, st in states.items():
                if k != key and tick - st[2] > MAX_EQ_IDLE:
                    if expired is None:
                        expired = [k]
                    else:
                        expired.append(k)
                    continue
                k_mask = -1 if k[1] is None else interner.mask_at_most(k[1])
                if (dirty >> k[0]) & 1:
                    # the state's own target row changed: recompute the
                    # full match mask (n integer compares).
                    k_target = rows[k[0]] & k_mask
                    k_matches = 0
                    bit = 1
                    for j in range(n):
                        if rows[j] & k_mask == k_target:
                            k_matches |= bit
                        bit <<= 1
                    st[0] = k_target
                    st[1] = k_matches
                    if k == key:
                        STATS.eq_rows_scanned += n
                else:
                    k_target = st[0]
                    k_matches = st[1]
                    scanned = 0
                    d = dirty
                    while d:
                        low = d & -d
                        if rows[low.bit_length() - 1] & k_mask == k_target:
                            k_matches |= low
                        else:
                            k_matches &= ~low
                        d ^= low
                        scanned += 1
                    st[1] = k_matches
                    if k == key:
                        STATS.eq_rows_scanned += scanned
                        STATS.eq_rows_saved += n - scanned
                if k != key:
                    STATS.eq_batched_scans += 1
            if expired is not None:
                for k in expired:
                    del states[k]
            self._dirty = 0
        if state is None:
            # first evaluation of this (i, r) (or it was evicted):
            # full scan, then register it for incremental upkeep.
            mask = -1 if r is None else interner.mask_at_most(r)
            target = rows[i] & mask
            matches = 0
            bit = 1
            for j in range(n):
                if rows[j] & mask == target:
                    matches |= bit
                bit <<= 1
            STATS.eq_rows_scanned += n
            if len(states) >= MAX_EQ_STATES:
                del states[next(iter(states))]
            state = [target, matches, tick]
        else:
            if not dirty:
                STATS.eq_rows_saved += n
            target, matches = state[0], state[1]
            state[2] = tick
            del states[key]  # reinsert below: move to most-recent
        states[key] = state
        if matches.bit_count() >= n - f:
            quorum = tuple(j for j in range(n) if (matches >> j) & 1)
            return quorum, ViewHandle(interner, target)
        return None

    def prune_below(self, r: int) -> None:
        """Retire incremental EQ states and cumulative masks below ``r``.

        Called by :meth:`repro.core.eq_aso.EqAso._gc_old_tags` with the
        ``gc_tag_window`` cutoff: read tags are non-decreasing, so no
        future lattice operation restricts below it.  A restriction
        itself leaves no state behind (it is one ``&``); this only stops
        the per-tag bookkeeping from growing over a long-lived
        deployment, and never affects results.
        """
        for eq_key in [
            k for k in self._eq_states if k[1] is not None and k[1] < r
        ]:
            del self._eq_states[eq_key]
        self._interner.prune_masks_below(r)

    def cache_stats(self) -> dict[str, int | str]:
        """Diagnostics: table sizes (tests read this; algorithms never
        do)."""
        return {
            "plane": "bitset",
            "eq_states": len(self._eq_states),
            **self._interner.mask_stats(),
        }


def eq_predicate(
    V: ViewVector, i: int, f: int, r: int | None = None
) -> tuple[tuple[int, ...], ViewHandle] | None:
    """Evaluate ``EQ(V^{≤r}, i)`` (Definition 6).

    Thin functional wrapper over :meth:`ViewVector.eq_predicate`, kept
    for API stability (tests and notebooks call the Definition by name).
    """
    return V.eq_predicate(i, f, r)


__all__ = [
    "MAX_EQ_IDLE",
    "MAX_EQ_STATES",
    "ValueInterner",
    "ViewHandle",
    "ViewVector",
    "eq_predicate",
]

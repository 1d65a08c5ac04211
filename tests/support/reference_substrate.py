"""Reference implementations of the simulation substrate — test oracles.

The shipped package has one event queue, one network send path, one
view-vector representation and interned message construction.  Each was
introduced as an optimisation over a simpler original; the originals
live here, unchanged in behaviour, so differential tests can keep
proving the optimisations are invisible:

- :class:`ReferenceEventQueue` — the heap-only queue (no burst lane);
- :class:`ReferenceNetwork` — one closure-carrying kernel event per
  message, tuple-keyed FIFO clamp, no broadcast batching;
- :class:`ReferenceViewVector` — frozenset-per-row views, EQ evaluated
  by rebuilding and comparing all ``n`` rows;
- plain message construction — a fresh dataclass instance per call;
- :func:`run_until_complete_by_polling` — the settled-predicate loop
  ``Simulator.stop()`` replaced.

:func:`reference_substrate` patches all four into the places the
package constructs them.  Nothing under ``src/`` knows these exist.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Sequence
from unittest import mock

from repro.core import messages
from repro.core.tags import ValueTs, tag_of
from repro.net.network import DeliveryRecord
from repro.sim.events import _CANCELLED, _FIRED, _PENDING, Record
from repro.sim.fastpath import STATS


class ReferenceEventQueue:
    """Heap-only queue: same API, same ``(time, priority, seq)`` pop
    order and fired/cancelled semantics as ``repro.sim.events.EventQueue``;
    every push and pop goes through the binary heap."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[Record] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        tag: str = "",
    ) -> Record:
        return self.push_call(time, action, (), priority=priority, tag=tag)

    def push_call(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        *,
        priority: int = 0,
        tag: str = "",
    ) -> Record:
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._seq
        self._seq = seq + 1
        event = [time, priority, seq, fn, args, tag, _PENDING]
        heappush(self._heap, event)
        self._live += 1
        return event

    def cancel(self, event: Record) -> None:
        if event[6] == _PENDING:
            event[6] = _CANCELLED
            self._live -= 1

    def pop(self) -> Record:
        heap = self._heap
        while heap:
            event = heappop(heap)
            if event[6] == _CANCELLED:
                continue
            event[6] = _FIRED
            self._live -= 1
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float | None:
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[6] == _CANCELLED:
                heappop(heap)
                continue
            return entry[0]
        return None


def _checked_delay(model: Any, src: int, dst: int, payload: Any, now: float) -> float:
    """The original ``DelayModel.delay_for``: self-sends are free, every
    sampled delay is checked against ``[0, D]``."""
    if src == dst:
        return 0.0
    d = model.sample(src, dst, payload, now)
    if not 0.0 <= d <= model.D:
        raise ValueError(
            f"delay model produced {d} outside [0, {model.D}] for {src}->{dst}"
        )
    return d


class ReferenceNetwork:
    """The pre-optimisation network: one closure-carrying, tagged kernel
    event per message, validated ``schedule_at``, tuple-keyed clamp
    table.  Same constructor and public surface as
    ``repro.net.network.Network``."""

    def __init__(
        self,
        sim: Any,
        n: int,
        delay_model: Any,
        crash_plan: Any,
        deliver: Callable[[int, int, Any], None],
        *,
        record_trace: bool = False,
        tracer: Any = None,
        backpressure_hwm: int | None = None,  # accepted; never reported
    ) -> None:
        self.sim = sim
        self.n = n
        self.delay_model = delay_model
        self.crash_plan = crash_plan
        self._deliver = deliver
        self._last_delivery: dict[tuple[int, int], float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.sent_by_node: list[int] = [0] * n
        self.trace: list[DeliveryRecord] = []
        self._record_trace = record_trace
        self._gated: set[tuple[int, int]] = set()
        self._parked: dict[tuple[int, int], list[Any]] = {}
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None

    @property
    def D(self) -> float:
        return self.delay_model.D

    def _check_link(self, src: int, dst: int) -> None:
        if not (0 <= src < self.n and 0 <= dst < self.n) or src == dst:
            raise ValueError(f"bad endpoints {src}->{dst} for n={self.n}")

    def disconnect(self, src: int, dst: int) -> None:
        self._check_link(src, dst)
        self._gated.add((src, dst))
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=False)

    def reconnect(self, src: int, dst: int) -> None:
        self._check_link(src, dst)
        if (src, dst) not in self._gated:
            return
        self._gated.discard((src, dst))
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=True)
        for payload in self._parked.pop((src, dst), []):
            self._schedule_delivery(src, dst, payload)

    def send(self, src: int, dst: int, payload: Any) -> None:
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise ValueError(f"bad endpoints {src}->{dst} for n={self.n}")
        self.messages_sent += 1
        self.sent_by_node[src] += 1
        STATS.messages += 1
        if self._tracer is not None:
            self._tracer.on_send(src, dst, payload)
        if (src, dst) in self._gated:
            self._parked.setdefault((src, dst), []).append(payload)
            return
        self._schedule_delivery(src, dst, payload)

    def _schedule_delivery(self, src: int, dst: int, payload: Any) -> None:
        now = self.sim.now
        delay = _checked_delay(self.delay_model, src, dst, payload, now)
        deliver_at = now + delay
        pair = (src, dst)
        prev = self._last_delivery.get(pair, 0.0)
        if deliver_at < prev:
            deliver_at = prev  # FIFO clamp
        self._last_delivery[pair] = deliver_at
        self.sim.schedule_at(
            deliver_at,
            lambda: self._arrive(src, dst, payload, now),
            tag=f"deliver:{src}->{dst}",
        )

    def broadcast(self, src: int, payload: Any, dests: Sequence[int]) -> None:
        allowed, crash_now = self.crash_plan.filter_broadcast(src, payload, dests)
        for dst in allowed:
            self.send(src, dst, payload)
        if crash_now:
            self.crash_plan.mark_crashed(src)
            if self._tracer is not None:
                self._tracer.on_crash(src, detail="mid-broadcast crash")

    def _arrive(self, src: int, dst: int, payload: Any, sent_at: float) -> None:
        dropped = self.crash_plan.is_crashed(dst)
        if self._record_trace:
            self.trace.append(
                DeliveryRecord(src, dst, payload, sent_at, self.sim.now, dropped)
            )
        if dropped:
            self.messages_dropped += 1
            if self._tracer is not None:
                self._tracer.on_drop(src, dst, payload)
            return
        self.messages_delivered += 1
        if self._tracer is not None:
            self._tracer.on_deliver(src, dst, payload)
        self._deliver(dst, src, payload)


class ReferenceViewVector:
    """The original set-based view vector.

    Rows only ever grow; the class exploits that to cache tag-restricted
    rows (the EQ predicate is re-evaluated after every delivery while a
    lattice operation waits, and most rows are unchanged between checks).
    Same public API as ``repro.core.views.ViewVector``.
    """

    __slots__ = ("n", "_rows", "_filter_cache", "_union_values", "_max_seen_tag")

    def __init__(self, n: int) -> None:
        self.n = n
        self._rows: list[set[ValueTs]] = [set() for _ in range(n)]
        #: (j, r) -> (row size at filter time, materialized frozenset)
        self._filter_cache: dict[tuple[int, int], tuple[int, frozenset[ValueTs]]] = {}
        self._union_values: set[ValueTs] = set()
        self._max_seen_tag = 0

    def add(self, j: int, vt: ValueTs) -> bool:
        row = self._rows[j]
        if vt in row:
            return False
        row.add(vt)
        if vt not in self._union_values:
            self._union_values.add(vt)
            tag = tag_of(vt)
            if tag > self._max_seen_tag:
                self._max_seen_tag = tag
        return True

    def learn(self, src: int, me: int, vt: ValueTs) -> bool:
        new = vt not in self._rows[me]
        self.add(src, vt)
        self.add(me, vt)
        return new

    def row(self, j: int) -> frozenset[ValueTs]:
        return frozenset(self._rows[j])

    def row_size(self, j: int) -> int:
        return len(self._rows[j])

    def contains(self, j: int, vt: ValueTs) -> bool:
        return vt in self._rows[j]

    def restricted_row(self, j: int, r: int) -> frozenset[ValueTs]:
        key = (j, r)
        size = len(self._rows[j])
        hit = self._filter_cache.get(key)
        if hit is not None and hit[0] == size:
            return hit[1]
        filtered = frozenset(vt for vt in self._rows[j] if tag_of(vt) <= r)
        self._filter_cache[key] = (size, filtered)
        return filtered

    def matching_restricted_rows(self, r: int, ids: frozenset[ValueTs]) -> int:
        target = ids if isinstance(ids, frozenset) else frozenset(ids)
        return sum(1 for j in range(self.n) if self.restricted_row(j, r) == target)

    def all_values(self) -> frozenset[ValueTs]:
        return frozenset(self._union_values)

    def max_value_tag(self) -> int:
        return self._max_seen_tag

    def eq_predicate(
        self, i: int, f: int, r: int | None = None
    ) -> tuple[tuple[int, ...], frozenset[ValueTs]] | None:
        STATS.eq_evals += 1
        n = self.n
        need = n - f
        if r is None:
            target: frozenset[ValueTs] = self.row(i)
            rows = [self.row(j) for j in range(n)]
        else:
            target = self.restricted_row(i, r)
            rows = [self.restricted_row(j, r) for j in range(n)]
        STATS.eq_rows_scanned += n
        quorum = tuple(j for j in range(n) if rows[j] == target)
        if len(quorum) >= need:
            return quorum, target
        return None

    def prune_below(self, r: int) -> None:
        for key in [k for k in self._filter_cache if k[1] < r]:
            del self._filter_cache[key]

    def cache_stats(self) -> dict[str, int | str]:
        return {
            "plane": "reference",
            "eq_states": 0,
            "interned": 0,
            "tag_masks": 0,
            "cum_masks": 0,
        }


def run_until_complete_by_polling(cluster: Any, handles: Sequence[Any]) -> None:
    """The original ``Cluster.run_until_complete``: ask "has every handle
    settled?" before every kernel event, and stop at the first yes (or
    when the queue drains).  The shipped one is *told* when the last
    handle settles; it must stop at the very same event."""
    cluster.start()
    while not all(h.done or h.aborted for h in handles) and cluster.sim.step():
        pass


#: every place the package constructs a queue, a network or a view
#: vector, and the message metaclass's constructor (``type.__call__`` is
#: the plain dataclass call: a fresh instance every time)
_PATCHES: tuple[tuple[str, Any], ...] = (
    ("repro.sim.kernel.EventQueue", ReferenceEventQueue),
    ("repro.runtime.cluster.Network", ReferenceNetwork),
    ("repro.core.eq_aso.ViewVector", ReferenceViewVector),
    ("repro.core.lattice_agreement.ViewVector", ReferenceViewVector),
    ("repro.core.one_shot.ViewVector", ReferenceViewVector),
)


@contextmanager
def reference_substrate() -> Iterator[None]:
    """Within the block, newly built kernels, clusters, protocol nodes
    and wire messages use the reference implementations."""
    with ExitStack() as stack:
        for target, replacement in _PATCHES:
            stack.enter_context(mock.patch(target, replacement))
        stack.enter_context(
            mock.patch.object(messages._MsgMeta, "__call__", type.__call__)
        )
        yield


__all__ = [
    "ReferenceEventQueue",
    "ReferenceNetwork",
    "ReferenceViewVector",
    "reference_substrate",
    "run_until_complete_by_polling",
]

"""Reliable FIFO point-to-point network over the DES kernel.

Implements the channel contract of Sec. II-A:

- **reliable**: once :meth:`Network.send` returns, delivery to a live
  destination is guaranteed, even if the sender crashes afterwards;
- **FIFO**: per ordered pair, deliveries occur in send order.  The network
  clamps each delivery time to be no earlier than the previous delivery on
  the same channel; since the earlier message already obeyed ``delay <= D``,
  the clamp preserves the bound (``deliver_1 <= send_1 + D <= send_2 + D``);
- **bounded delay**: the delay model guarantees ``delay <= D``.

Crashed nodes neither send nor receive: sends by a crashed node are
rejected upstream (the cluster silences it) and deliveries to a node that
crashed in the meantime are dropped at delivery time.

There is one send path.  Per-message scheduling is closure-free (the
delivery event carries ``(src, dst, payload, sent_at)``), the FIFO clamp
table is a flat ``n*n`` float list, a constant-delay model is read
once and every other model's ``sample`` is bound once (its draws are
checked against ``[0, D]`` inline, on both send paths), and
:meth:`Network.broadcast` batches its
fan-out — one delivery event per distinct post-clamp delivery time
carrying the destination list, so a lockstep broadcast costs ~1 kernel
event instead of ``n − 1``.  Per-destination crash-drop checks still
happen at delivery time.

Everything that looks at individual messages — tracer callbacks, the
:class:`DeliveryRecord` trace, link gating — sits inline behind one
flag, ``_watched``, which is true iff a tracer is enabled, the delivery
trace is recorded, or some channel is currently gated.  Observation
never changes the schedule: a watched run executes the same kernel
events in the same ``(time, priority, seq)`` order as a bare one.

Batching never changes observable order: a broadcast's sends would hold
consecutive sequence numbers (nothing can interleave), within one batch
the destination list preserves the per-destination order, and any event
scheduled by an earlier delivery's handler carries a larger sequence
number than the whole batch, exactly as it would with per-message
events.  ``tests/support/reference_substrate.py`` keeps the
one-event-per-message network as the oracle for that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.net.delays import ConstantDelay, DelayModel
from repro.net.faults import CrashPlan
from repro.sim.fastpath import STATS
from repro.sim.kernel import Simulator


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One delivered (or dropped) message, for traces and message counts."""

    src: int
    dst: int
    payload: Any
    sent_at: float
    delivered_at: float
    dropped: bool


def _bad_delay(delay: float, D: float, src: int, dst: int) -> ValueError:
    """A model broke its contract (``not 0 <= d <= D`` catches NaN too)."""
    return ValueError(
        f"delay model produced {delay} outside [0, {D}] for {src}->{dst}"
    )


class Network:
    """The message fabric connecting a cluster of nodes."""

    def __init__(
        self,
        sim: Simulator,
        n: int,
        delay_model: DelayModel,
        crash_plan: CrashPlan,
        deliver: Callable[[int, int, Any], None],
        *,
        record_trace: bool = False,
        tracer: Any = None,
        backpressure_hwm: int | None = None,
    ) -> None:
        """
        Args:
            sim: the simulation kernel.
            n: number of nodes (ids ``0..n-1``).
            delay_model: assigns per-message delays in ``[0, D]``.
            crash_plan: the crash adversary; consulted for mid-broadcast
                truncation and for dropping deliveries to dead nodes.
            deliver: callback ``(dst, src, payload)`` invoked at delivery
                time (the cluster routes it into the node's handler).
            record_trace: keep a full :class:`DeliveryRecord` list
                (memory-heavy; off by default, on in figure regenerators).
            tracer: optional :class:`repro.obs.Tracer`; send/deliver/drop
                events are emitted through it.  A disabled tracer is
                normalized to ``None``.
            backpressure_hwm: a traced run emits ``backpressure`` each
                time a channel's depth — sends accepted (parked ones
                included) and not yet delivered or dropped — grows to
                exactly this; ``None`` = never.
        """
        self.sim = sim
        self.n = n
        self.delay_model = delay_model
        self.crash_plan = crash_plan
        self._deliver = deliver
        #: flat FIFO-clamp table, indexed ``src * n + dst``
        self._last_delivery = [0.0] * (n * n)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.sent_by_node: list[int] = [0] * n
        self.trace: list[DeliveryRecord] = []
        self._record_trace = record_trace
        #: channels (``src * n + dst``) currently gated by
        #: :meth:`disconnect`, and the sends parked on them awaiting
        #: :meth:`reconnect` (FIFO)
        self._gated: set[int] = set()
        self._parked: dict[int, list[Any]] = {}
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        #: per-channel depth; maintained by traced runs only
        self._depth = [0] * (n * n)
        self._hwm = backpressure_hwm
        #: does anything look at individual messages?  Kept current by
        #: disconnect/reconnect; the unwatched hot path tests only this.
        self._watched = self._tracer is not None or record_trace
        #: constant per-message delay, or None for model-driven sampling
        self._const_delay: float | None = (
            delay_model.delay if type(delay_model) is ConstantDelay else None
        )
        self._sample = delay_model.sample
        self._max_delay = delay_model.D
        # delivery times are provably >= now (delay >= 0 plus a monotone
        # clamp), so the kernel's schedule-time validation is redundant:
        # bind the queue's push once — and the plan's live crashed-set,
        # so that a delivery-time crash check is ``dst in crashed``.
        self._push_call = sim.queue.push_call
        self._crashed = crash_plan.crashed

    @property
    def D(self) -> float:
        """The maximum message delay (observer-only knowledge)."""
        return self.delay_model.D

    # ------------------------------------------------------------------
    # link gating (temporary partitions)
    # ------------------------------------------------------------------
    def _channel(self, src: int, dst: int) -> int:
        """Index of the gateable channel ``src -> dst``.  A node's
        self-addressed messages never traverse the network
        (:mod:`repro.net.delays`), so there is no ``i -> i`` link to gate."""
        n = self.n
        if not (0 <= src < n and 0 <= dst < n) or src == dst:
            raise ValueError(f"bad endpoints {src}->{dst} for n={n}")
        return src * n + dst

    def disconnect(self, src: int, dst: int) -> None:
        """Gate the ordered channel ``src -> dst``: subsequent sends are
        parked (in order) until :meth:`reconnect` releases them.

        While a link is gated the synchrony bound ``delay <= D`` does not
        hold for its parked messages — a partition suspends the bound by
        definition; reliability and FIFO order are preserved.  Messages
        already in flight when the gate closes still deliver, and
        ungated channels keep batching.
        """
        self._gated.add(self._channel(src, dst))
        self._watched = True
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=False)

    def reconnect(self, src: int, dst: int) -> None:
        """Release a gated channel, scheduling its parked sends with
        fresh delays sampled at release time (FIFO clamp keeps order)."""
        idx = self._channel(src, dst)
        if idx not in self._gated:
            return
        self._gated.discard(idx)
        self._watched = (
            bool(self._gated) or self._tracer is not None or self._record_trace
        )
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=True)
        for payload in self._parked.pop(idx, ()):
            self._schedule(src, dst, payload)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _trace_send(self, src: int, dst: int, payload: Any) -> None:
        """Traced runs only: the send event, and the channel's depth."""
        self._tracer.on_send(src, dst, payload)
        idx = src * self.n + dst
        depth = self._depth[idx] = self._depth[idx] + 1
        if depth == self._hwm:
            self._tracer.on_backpressure(src, dst, depth)

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Hand one message to the network (reliable from this point on)."""
        n = self.n
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"bad endpoints {src}->{dst} for n={n}")
        self.messages_sent += 1
        self.sent_by_node[src] += 1
        STATS.messages += 1
        if self._watched:
            if self._tracer is not None:
                self._trace_send(src, dst, payload)
            idx = src * n + dst
            if idx in self._gated:
                self._parked.setdefault(idx, []).append(payload)
                return
        self._schedule(src, dst, payload)

    def _schedule(self, src: int, dst: int, payload: Any) -> None:
        """Sample a delay, apply the FIFO clamp, push the delivery."""
        now = self.sim.now
        if src == dst:
            delay = 0.0
        else:
            delay = self._const_delay
            if delay is None:
                delay = self._sample(src, dst, payload, now)
                if not 0.0 <= delay <= self._max_delay:
                    raise _bad_delay(delay, self._max_delay, src, dst)
        deliver_at = now + delay
        idx = src * self.n + dst
        last = self._last_delivery
        if deliver_at < last[idx]:
            deliver_at = last[idx]  # FIFO clamp; see module docstring
        else:
            last[idx] = deliver_at
        self._push_call(deliver_at, self._arrive, (src, dst, payload, now))

    def broadcast(self, src: int, payload: Any, dests: Sequence[int]) -> None:
        """Send ``payload`` to each destination as one batched fan-out
        (one delivery event per distinct delivery time), applying
        mid-broadcast crash truncation (Definition 11) if the crash plan
        says so.

        A :class:`~repro.net.faults.BroadcastCrash` leaves only the
        adversary-chosen destinations in the send loop; the caller (the
        cluster) is then told to crash the node via the plan state.
        """
        allowed, crash_now = self.crash_plan.filter_broadcast(src, payload, dests)
        if allowed:
            n = self.n
            if not 0 <= src < n:
                raise ValueError(f"bad endpoints {src}->? for n={n}")
            now = self.sim.now
            count = len(allowed)
            self.messages_sent += count
            self.sent_by_node[src] += count
            STATS.messages += count
            watched = self._watched
            tracer = self._tracer
            const_delay = self._const_delay
            sample = self._sample
            D = self._max_delay
            last = self._last_delivery
            base = src * n
            groups: dict[float, list[int]] = {}
            for dst in allowed:
                if not 0 <= dst < n:
                    raise ValueError(f"bad endpoints {src}->{dst} for n={n}")
                idx = base + dst
                if watched:
                    if tracer is not None:
                        self._trace_send(src, dst, payload)
                    if idx in self._gated:
                        self._parked.setdefault(idx, []).append(payload)
                        continue
                if src == dst:
                    delay = 0.0
                elif const_delay is not None:
                    delay = const_delay
                else:
                    delay = sample(src, dst, payload, now)
                    if not 0.0 <= delay <= D:
                        raise _bad_delay(delay, D, src, dst)
                deliver_at = now + delay
                if deliver_at < last[idx]:
                    deliver_at = last[idx]  # FIFO clamp
                else:
                    last[idx] = deliver_at
                group = groups.get(deliver_at)
                if group is None:
                    groups[deliver_at] = [dst]
                else:
                    group.append(dst)
            push_call = self._push_call
            for deliver_at, dsts in groups.items():
                if len(dsts) == 1:
                    push_call(deliver_at, self._arrive, (src, dsts[0], payload, now))
                else:
                    push_call(deliver_at, self._arrive_batch, (src, dsts, payload, now))
        if crash_now:
            self.crash_plan.mark_crashed(src)
            if self._tracer is not None:
                self._tracer.on_crash(src, detail="mid-broadcast crash")

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _arrive(self, src: int, dst: int, payload: Any, sent_at: float) -> None:
        dropped = dst in self._crashed
        if self._watched:
            if self._record_trace:
                self.trace.append(
                    DeliveryRecord(src, dst, payload, sent_at, self.sim.now, dropped)
                )
            if self._tracer is not None:
                self._depth[src * self.n + dst] -= 1
                if dropped:
                    self._tracer.on_drop(src, dst, payload)
                else:
                    self._tracer.on_deliver(src, dst, payload)
        if dropped:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        self._deliver(dst, src, payload)

    def _arrive_batch(
        self, src: int, dsts: list[int], payload: Any, sent_at: float
    ) -> None:
        """Deliver one batched fan-out group, re-checking crash state per
        destination (a destination may have died since the send — or be
        killed by an earlier delivery in this very batch)."""
        if self._watched:
            for dst in dsts:
                self._arrive(src, dst, payload, sent_at)
            return
        crashed = self._crashed
        deliver = self._deliver
        for dst in dsts:
            if dst in crashed:
                self.messages_dropped += 1
            else:
                self.messages_delivered += 1
                deliver(dst, src, payload)


__all__ = ["Network", "DeliveryRecord"]

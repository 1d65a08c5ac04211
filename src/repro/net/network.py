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

The network is the send side: the delay, its ``[0, D]`` check, the FIFO
clamp, gating and the push.  The delivery event is the call
``deliver(src, dsts, payload, sent_at)`` itself — in a cluster,
``BaseCluster._deliver``, which drops each destination that crashed since
the send, keeps ``messages_delivered``/``messages_dropped`` and runs the
handler, with no network frame in between.

A message's path is: :meth:`Network.send` or :meth:`Network.broadcast`
count it, trace it and park it if its channel is gated — all at send
time — and hand the rest to one routine, :meth:`Network._post`, which
draws each destination's delay, checks it against ``[0, D]``, clamps it
FIFO and pushes the delivery.  :meth:`Network.reconnect` hands a parked
message to the same routine, so a release is neither counted nor traced
again.  Scheduling is closure-free and the FIFO clamp table a flat
``n*n`` list; a constant delay is read once, a
:class:`~repro.net.delays.UniformDelay` drawn inline, any other model's
``sample`` bound once.  Under sampled delays each destination is pushed
as it is drawn; otherwise a fan-out is batched — one delivery event per
distinct post-clamp time carrying the destination list, so a lockstep
broadcast costs ~1 kernel event instead of ``n − 1``.

Everything that looks at individual messages — tracer callbacks and link
gating — sits behind one flag, ``_watched``: a tracer is enabled or a
channel is gated.  A traced post pushes :meth:`Network._arrive`, which
emits each destination's delivery or drop and hands it to ``deliver``.
Observation never changes the schedule: a watched run executes the same
kernel events in the same ``(time, seq)`` order as a bare one.

Batching never changes observable order: a broadcast's sends would hold
consecutive sequence numbers (nothing can interleave), within one batch
the destination list preserves the per-destination order, and any event
scheduled by an earlier delivery's handler carries a larger sequence
number than the whole batch, exactly as it would with per-message
events.  ``tests/support/reference_substrate.py`` keeps the
one-event-per-message network as the oracle for that claim.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.net.delays import ConstantDelay, DelayModel, UniformDelay
from repro.net.faults import CrashPlan
from repro.sim.fastpath import STATS
from repro.sim.kernel import Simulator


def _bad_delay(delay: float, D: float, src: int, dst: int) -> ValueError:
    """A model broke its contract (``not 0 <= d <= D`` catches NaN too)."""
    return ValueError(f"delay model produced {delay} outside [0, {D}] for {src}->{dst}")


class Network:
    """The message fabric connecting a cluster of nodes."""

    def __init__(
        self,
        sim: Simulator,
        n: int,
        delay_model: DelayModel,
        crash_plan: CrashPlan,
        deliver: Callable[[int, Sequence[int], Any, float], None],
        *,
        tracer: Any = None,
        backpressure_hwm: int | None = None,
    ) -> None:
        """
        Args:
            sim: the simulation kernel.
            n: number of nodes (ids ``0..n-1``).
            delay_model: assigns per-message delays in ``[0, D]``.
            crash_plan: the crash adversary; consulted for mid-broadcast
                truncation (and, on traced runs, for what is dropped).
            deliver: the delivery events' function, ``deliver(src, dsts,
                payload, sent_at)`` (``dsts``: one destination or a batch);
                it drops deliveries to crashed nodes and keeps the counts.
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
        #: kept by ``deliver``, which decides what is delivered
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.sent_by_node: list[int] = [0] * n
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
        self._watched = self._tracer is not None
        #: constant per-message delay, or None for model-driven sampling
        self._const_delay: float | None = (
            delay_model.delay if type(delay_model) is ConstantDelay else None
        )
        #: a uniform model's ``(lo, span, random)``: its ``sample`` is
        #: ``lo + span * random()``, drawn inline without the frame
        self._uniform: tuple[float, float, Callable[[], float]] | None = None
        if type(delay_model) is UniformDelay:
            self._uniform = (delay_model.lo, delay_model._span, delay_model._random)
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
        self._watched = bool(self._gated) or self._tracer is not None
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=True)
        for payload in self._parked.pop(idx, ()):
            self._post(src, (dst,), payload)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Hand one message to the network (reliable from this point on)."""
        n = self.n
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"bad endpoints {src}->{dst} for n={n}")
        self.messages_sent += 1
        self.sent_by_node[src] += 1
        STATS.messages += 1
        dsts: Sequence[int] = (dst,)
        if self._watched:
            dsts = self._observe(src, dsts, payload)
        self._post(src, dsts, payload)

    def broadcast(self, src: int, payload: Any, dests: Sequence[int]) -> None:
        """Send ``payload`` to each destination, applying mid-broadcast
        crash truncation (Definition 11) if the crash plan says so.

        Every endpoint is checked before anything is counted, clamped or
        fired.  A :class:`~repro.net.faults.BroadcastCrash` leaves only
        the adversary-chosen destinations; the caller (the cluster) is
        then told to crash the node via the plan state.
        """
        n = self.n
        if dests and not (0 <= src < n and 0 <= min(dests) and max(dests) < n):
            bad = next((d for d in dests if not 0 <= d < n), "?")
            raise ValueError(f"bad endpoints {src}->{bad} for n={n}")
        allowed, crash_now = self.crash_plan.filter_broadcast(src, payload, dests)
        if allowed:
            count = len(allowed)
            self.messages_sent += count
            self.sent_by_node[src] += count
            STATS.messages += count
            if self._watched:
                allowed = self._observe(src, allowed, payload)
            self._post(src, allowed, payload)
        if crash_now:
            self.crash_plan.mark_crashed(src)
            if self._tracer is not None:
                self._tracer.on_crash(src, detail="mid-broadcast crash")

    def _observe(self, src: int, dsts: Sequence[int], payload: Any) -> list[int]:
        """Watched sends only, at send time: trace each one (and its
        channel's depth), park each one whose channel is gated, and
        return the destinations left to post."""
        tracer = self._tracer
        open_dsts = []
        for dst in dsts:
            idx = src * self.n + dst
            if tracer is not None:
                tracer.on_send(src, dst, payload)
                depth = self._depth[idx] = self._depth[idx] + 1
                if depth == self._hwm:
                    tracer.on_backpressure(src, dst, depth)
            if idx in self._gated:
                self._parked.setdefault(idx, []).append(payload)
            else:
                open_dsts.append(dst)
        return open_dsts

    def _post(self, src: int, dsts: Sequence[int], payload: Any) -> None:
        """The channel contract, once: per destination, draw the delay,
        check it against ``[0, D]``, clamp it FIFO and push the delivery
        — each as drawn under sampled delays, else one event per distinct
        delivery time (a single destination needs no grouping)."""
        now = self.sim.now
        const_delay = self._const_delay
        uniform = self._uniform
        last = self._last_delivery
        base = src * self.n
        push_call = self._push_call
        deliver = self._deliver if self._tracer is None else self._arrive
        # delivery time -> destinations; None: push each as drawn
        groups: dict[float, list[int]] | None = (
            None if uniform is not None or len(dsts) == 1 else {}
        )
        for dst in dsts:
            if src == dst:
                delay = 0.0
            elif const_delay is not None:
                delay = const_delay
            else:
                if uniform is not None:
                    delay = uniform[0] + uniform[1] * uniform[2]()
                else:
                    delay = self._sample(src, dst, payload, now)
                if not 0.0 <= delay <= self._max_delay:
                    raise _bad_delay(delay, self._max_delay, src, dst)
            deliver_at = now + delay
            idx = base + dst
            if deliver_at < last[idx]:
                deliver_at = last[idx]  # FIFO clamp; see module docstring
            else:
                last[idx] = deliver_at
            if groups is None:
                push_call(deliver_at, deliver, (src, (dst,), payload, now))
            else:
                group = groups.get(deliver_at)
                if group is None:
                    groups[deliver_at] = [dst]
                else:
                    group.append(dst)
        if groups:
            for deliver_at, group in groups.items():
                push_call(deliver_at, deliver, (src, group, payload, now))

    # -- delivery, traced -------------------------------------------------
    def _arrive(self, src: int, dsts: Sequence[int], payload: Any, sent_at: float) -> None:
        """A traced post's delivery event: emit each destination's
        delivery — or drop, if it crashed since the send or by an earlier
        delivery of this batch — then hand it to ``deliver``."""
        tracer = self._tracer
        for dst in dsts:
            self._depth[src * self.n + dst] -= 1
            if dst in self._crashed:
                tracer.on_drop(src, dst, payload)
            else:
                tracer.on_deliver(src, dst, payload)
            self._deliver(src, (dst,), payload, sent_at)


__all__ = ["Network"]

"""Isolated per-layer probes: tight loops over one public function.

Each probe runs at least ``MIN_S`` seconds split over ``BATCHES``
batches and reports the median batch, per call, in host ns/µs/ms.  They
are workload-independent: they say what one unit of a layer's work
costs, and the workload counts (events, messages, EQ polls per op) say
how many units an op buys.  Everything here is host time.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import statistics
import time
from typing import Any, Callable

from workloads import mixed_ops

from repro.chaos.algos import CAMPAIGN_ALGOS
from repro.chaos.campaign import run_campaign
from repro.chaos.gen import generate_plan
from repro.chaos.plan import ChaosPlan
from repro.core import EqAso
from repro.core.messages import MReadAck
from repro.core.tags import Timestamp, ValueTs
from repro.core.views import ViewVector
from repro.lint.engine import run_lint
from repro.net.delays import ConstantDelay, UniformDelay
from repro.net.faults import CrashPlan
from repro.net.network import Network
from repro.obs import MemorySink, Tracer, dumps_trace
from repro.obs.metrics import Histogram
from repro.obs.registry import HdrHistogram
from repro.parallel import run_tasks
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import ProtocolNode, WaitUntil
from repro.shard.router import ShardRouter
from repro.shard.service import ShardConfig, ShardedSnapshotService
from repro.shard.workload import WorkloadSpec, generate_arrivals
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.spec.order import order_check
from repro.spec.serialize import history_from_dict, history_to_dict

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(LEDGER_DIR)), "src", "repro")

clock = time.perf_counter


class Bench:
    """Calibrate-then-measure harness shared by every probe."""

    def __init__(self, *, min_s: float, batches: int) -> None:
        self.batch_s = min_s / batches
        self.batches = batches

    def per_call(self, probe: Callable[[int], float], *, loops: int = 256) -> float:
        """Median seconds per unit of ``probe(loops)``, which returns the
        host seconds its ``loops`` timed units took.  ``loops`` grows
        until one call — untimed preparation included — fills a batch."""
        while True:
            start = clock()
            probe(loops)
            took = clock() - start
            if took >= self.batch_s:
                break
            loops = max(loops * 2, int(loops * 1.2 * self.batch_s / max(took, 1e-9)))
        return statistics.median(probe(loops) / loops for _ in range(self.batches))

    def once(self, call: Callable[[], Any], *, batches: int | None = None) -> float:
        """Median seconds of a call long enough to be its own batch."""
        times = []
        for _ in range(batches or self.batches):
            start = clock()
            call()
            times.append(clock() - start)
        return statistics.median(times)


def _noop(*_args: Any) -> None:
    pass


# -- sim ----------------------------------------------------------------

def _queue_mono(loops: int) -> float:
    queue = EventQueue()
    start = clock()
    for i in range(loops):
        queue.push_call(float(i), _noop)
    for _ in range(loops):
        queue.pop()
    return clock() - start


def _queue_random(times: list[float]) -> Callable[[int], float]:
    def probe(loops: int) -> float:
        while len(times) < loops:
            times.extend(times)
        queue = EventQueue()
        start = clock()
        for i in range(loops):
            queue.push_call(times[i], _noop)
        for _ in range(loops):
            queue.pop()
        return clock() - start
    return probe


def _queue_cancel(loops: int) -> float:
    queue = EventQueue()
    events = [queue.push_call(float(i), _noop) for i in range(loops)]
    start = clock()
    for event in events:
        queue.cancel(event)
    return clock() - start


def _kernel_event(loops: int) -> float:
    sim = Simulator()
    for i in range(loops):
        sim.schedule_call_at(float(i), _noop)
    start = clock()
    sim.run()
    return clock() - start


# -- net ----------------------------------------------------------------

def _network(n: int, seed: int | None) -> tuple[Simulator, Network]:
    sim = Simulator()
    delays = (ConstantDelay(1.0) if seed is None
              else UniformDelay(1.0, SeededRng(seed), lo=0.1, hi=1.0))
    return sim, Network(sim, n, delays, CrashPlan.none(), _noop)


def _send(seed: int | None) -> Callable[[int], float]:
    """One message end to end: ``send`` plus the kernel event that
    delivers it (the per-message path the jitter workload lives on)."""
    def probe(loops: int) -> float:
        sim, net = _network(5, seed)
        start = clock()
        for i in range(loops):
            net.send(i % 5, (i + 1) % 5, i)
        sim.run()
        return clock() - start
    return probe


def _broadcast(n: int) -> Callable[[int], float]:
    """Per destination of a lockstep (batched) broadcast, delivery included."""
    dests = tuple(range(n))

    def probe(loops: int) -> float:
        sim, net = _network(n, None)
        start = clock()
        for i in range(loops):
            net.broadcast(i % n, i, dests)
        sim.run()
        return clock() - start
    return probe


# -- core ---------------------------------------------------------------

EQ_N, EQ_F = 15, 7


#: adds per fresh ViewVector — rows are bitsets that widen with every
#: interned value, so a probe keeps them at episode size (a 500-op
#: episode interns a few hundred values), not at loop-count size
VIEW_CHUNK = 512


def _values(count: int, tag: int = 1) -> list[ValueTs]:
    return [ValueTs(f"v{tag}.{i}", Timestamp(tag, i % EQ_N), i // EQ_N + 1)
            for i in range(count)]


def _view_add(loops: int) -> float:
    values = _values(VIEW_CHUNK)
    views = [ViewVector(EQ_N) for _ in range(-(-loops // VIEW_CHUNK))]
    start = clock()
    for view in views:
        for i, vt in enumerate(values):
            view.add(i % EQ_N, vt)
    return (clock() - start) * loops / (len(views) * VIEW_CHUNK)


def _filled_view() -> ViewVector:
    """Every row holds the same 2n values: EQ holds at every row."""
    view = ViewVector(EQ_N)
    for vt in _values(2 * EQ_N):
        for row in range(EQ_N):
            view.add(row, vt)
    return view


def _eq_poll_clean(loops: int) -> float:
    view = _filled_view()
    view.eq_predicate(0, EQ_F, 2)
    start = clock()
    for _ in range(loops):
        view.eq_predicate(0, EQ_F, 2)
    return clock() - start


def _eq_poll_dirty(loops: int) -> float:
    """One row dirtied between polls; the ``add`` is inside the loop, so
    subtract ``core.view_add_ns`` for the poll alone."""
    fresh = _values(VIEW_CHUNK, tag=2)
    views = [_filled_view() for _ in range(-(-loops // VIEW_CHUNK))]
    for view in views:
        view.eq_predicate(0, EQ_F, 2)
    start = clock()
    for view in views:
        for i, vt in enumerate(fresh):
            view.add(i % EQ_N, vt)
            view.eq_predicate(0, EQ_F, 2)
    return (clock() - start) * loops / (len(views) * VIEW_CHUNK)


def _msg_hit(loops: int) -> float:
    MReadAck(3, 7)
    start = clock()
    for _ in range(loops):
        MReadAck(3, 7)
    return clock() - start


def _msg_miss() -> Callable[[int], float]:
    reqid = 1 << 40  # never repeated, so every construction misses

    def probe(loops: int) -> float:
        nonlocal reqid
        base = reqid
        reqid += loops
        start = clock()
        for i in range(loops):
            MReadAck(3, base + i)
        return clock() - start
    return probe


# -- runtime ------------------------------------------------------------

class NoopNode(ProtocolNode):
    """A zero-message op: what is left is generator drive plus one
    ``WaitUntil`` poll, on either runtime."""

    def on_message(self, src: int, payload: Any) -> None:
        pass

    def noop(self):
        yield WaitUntil(lambda: True, "noop")
        return "ok"


def _des_noop(loops: int) -> float:
    cluster = Cluster(NoopNode, n=1, f=0)
    start = clock()
    handles = cluster.chain_ops(0, [("noop", ())] * loops)
    cluster.run_until_complete(handles)
    return clock() - start


def _aio_noop(loop: asyncio.AbstractEventLoop) -> Callable[[int], float]:
    async def drive(loops: int) -> float:
        cluster = AioCluster(NoopNode, 1, 0, mean_delay=0.0)
        await cluster.start()
        start = clock()
        for _ in range(loops):
            await cluster.call(0, "noop")
        took = clock() - start
        await cluster.shutdown()
        return took
    return lambda loops: loop.run_until_complete(drive(loops))


# -- spec / obs / shard / chaos -------------------------------------------

def _eq_aso_run(ops: int, seed: int, *, scan_frac: float = 0.5,
                tracer: Tracer | None = None) -> Cluster:
    """One closed-loop EQ-ASO episode on n=5, as the DES workloads run it."""
    cluster = Cluster(EqAso, n=5, f=2, tracer=tracer)
    node_ops = mixed_ops(SeededRng(seed).child("mix"), 5, ops // 5, scan_frac)
    handles = [h for node in range(5) for h in cluster.chain_ops(node, node_ops[node])]
    cluster.run_until_complete(handles)
    return cluster


def _tracer_overhead(bench: Bench, seed: int, ops: int) -> float:
    """1 − (ops/s traced ÷ ops/s untraced) on a scan-heavy episode."""
    ratios = []
    for _ in range(bench.batches):
        plain = bench.once(lambda: _eq_aso_run(ops, seed, scan_frac=0.8), batches=1)
        traced = bench.once(lambda: _eq_aso_run(
            ops, seed, scan_frac=0.8, tracer=Tracer(MemorySink())), batches=1)
        ratios.append(plain / traced)
    return 1.0 - statistics.median(ratios)


def _parallel_task(x: int) -> int:
    return x


def run_all(seed: int, *, smoke: bool) -> dict[str, float]:
    bench = Bench(min_s=0.01, batches=2) if smoke else Bench(min_s=0.2, batches=5)
    heavy = 1 if smoke else 3  # batches for calls that take a second each
    out: dict[str, float] = {}
    ns, us, ms = 1e9, 1e6, 1e3

    out["sim.queue_push_pop_mono_ns"] = bench.per_call(_queue_mono) * ns
    rng = SeededRng(seed).child("probe")
    out["sim.queue_push_pop_random_ns"] = bench.per_call(
        _queue_random([rng.random() for _ in range(4096)])) * ns
    out["sim.queue_cancel_ns"] = bench.per_call(_queue_cancel) * ns
    out["sim.kernel_event_ns"] = bench.per_call(_kernel_event) * ns

    out["net.send_const_ns"] = bench.per_call(_send(None)) * ns
    out["net.send_jitter_ns"] = bench.per_call(_send(seed)) * ns
    for n in (5, 21, 64):
        out[f"net.broadcast_per_dst_n{n}_ns"] = bench.per_call(_broadcast(n), loops=64) * ns / n

    out["core.view_add_ns"] = bench.per_call(_view_add) * ns
    out["core.eq_poll_clean_ns"] = bench.per_call(_eq_poll_clean) * ns
    out["core.eq_poll_dirty_ns"] = bench.per_call(_eq_poll_dirty) * ns
    out["core.msg_construct_hit_ns"] = bench.per_call(_msg_hit) * ns
    out["core.msg_construct_miss_ns"] = bench.per_call(_msg_miss()) * ns

    out["runtime.des_noop_op_us"] = bench.per_call(_des_noop) * us
    loop = asyncio.new_event_loop()
    try:
        out["runtime.aio_noop_op_us"] = bench.per_call(_aio_noop(loop)) * us
    finally:
        loop.close()

    small, large = (60, 240) if smoke else (250, 1000)
    h_small = _eq_aso_run(small, seed).history
    h_large = _eq_aso_run(large, seed).history
    t_small = bench.per_call(lambda loops: _timed(
        lambda: order_check(h_small, real_time=True), loops), loops=1)
    t_large = bench.once(lambda: order_check(h_large, real_time=True), batches=heavy)
    out["spec.order_check_250_ms"] = t_small * ms
    out["spec.order_check_1000_ms"] = t_large * ms
    out["spec.order_check_exponent"] = math.log(t_large / t_small) / math.log(large / small)
    out["spec.history_roundtrip_us_per_op"] = bench.per_call(lambda loops: _timed(
        lambda: history_from_dict(json.loads(json.dumps(history_to_dict(h_small)))), loops),
        loops=1) * us / len(h_small)

    tracer = Tracer(MemorySink())
    tracer.bind(Simulator())

    def tracer_events(loops: int) -> float:
        tracer.sink.events.clear()
        start = clock()
        for i in range(loops):
            tracer.on_send(0, 1, i)
        return clock() - start

    out["obs.tracer_event_ns"] = bench.per_call(tracer_events) * ns
    samples = [rng.uniform(0.5, 50.0) for _ in range(4096)]
    for name, factory in (("obs.hdr_observe_ns", HdrHistogram),
                          ("obs.exact_hist_observe_ns", Histogram)):
        def observe(loops: int, factory=factory) -> float:
            hist = factory("probe")
            start = clock()
            for i in range(loops):
                hist.observe(samples[i & 4095])
            return clock() - start
        out[name] = bench.per_call(observe) * ns
    traced = Tracer(MemorySink())
    _eq_aso_run(small, seed, tracer=traced)
    out["obs.export_jsonl_us_per_event"] = bench.per_call(lambda loops: _timed(
        lambda: dumps_trace(traced), loops), loops=1) * us / len(traced.sink.events)
    out["obs.tracer_overhead_frac"] = _tracer_overhead(bench, seed, small)

    router = ShardRouter(4)
    keys = [f"k{i:04d}" for i in range(256)]

    def route(loops: int) -> float:
        start = clock()
        for i in range(loops):
            router.shard_of(keys[i & 255])
        return clock() - start

    out["shard.route_ns"] = bench.per_call(route) * ns
    spec = WorkloadSpec(ops=4 * small, keys=256, zipf_theta=1.1, read_ratio=0.35,
                        global_scan_ratio=0.10 / 0.35, rate=0.8, off_rate=0.2,
                        mean_on=40.0, mean_off=20.0)
    out["shard.generate_arrivals_us_per_op"] = bench.per_call(lambda loops: _timed(
        lambda: generate_arrivals(spec, seed), loops), loops=1) * us / spec.ops
    report = ShardedSnapshotService(ShardConfig(shards=4, nodes_per_shard=3, f=1)).run(
        spec, seed, check=False)
    out["shard.report_dump_ms"] = bench.per_call(lambda loops: _timed(
        lambda: json.dumps(report.as_dict(), sort_keys=True), loops), loops=1) * ms

    profile = CAMPAIGN_ALGOS["eq_aso"]
    plan_seeds = itertools.count(seed)
    out["chaos.generate_plan_us"] = bench.per_call(lambda loops: _timed(
        lambda: generate_plan(profile, next(plan_seeds)), loops)) * us
    plan = generate_plan(profile, seed)
    out["chaos.plan_roundtrip_us"] = bench.per_call(lambda loops: _timed(
        lambda: ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict()))), loops)) * us
    plans = 3 if smoke else 32
    for algo in CAMPAIGN_ALGOS:
        took = bench.once(lambda: run_campaign([algo], seed_range=(0, plans),
                                               master_seed=seed, workers=1), batches=heavy)
        out[f"baselines.exec_per_s.{algo}"] = plans / took

    out["parallel.run_tasks_overhead_ms"] = bench.once(
        lambda: run_tasks(_parallel_task, list(range(8)), workers=2)) * ms
    lint_paths = [os.path.join(REPO_SRC, "sim")] if smoke else [REPO_SRC]
    out["lint.cold_s"] = bench.once(lambda: run_lint(lint_paths), batches=heavy)
    cache = os.path.join(LEDGER_DIR, "out", "lint-cache")
    run_lint(lint_paths, cache_dir=cache)
    out["lint.warm_s"] = bench.once(lambda: run_lint(lint_paths, cache_dir=cache))
    return out


def _timed(call: Callable[[], Any], loops: int) -> float:
    start = clock()
    for _ in range(loops):
        call()
    return clock() - start


__all__ = ["run_all"]

"""The seven ledger workloads.

Every workload is a *pass* — a fixed, seed-determined amount of work —
that the child repeats until its time budget is spent.  Passes of one
seed are identical computations: their model-time fingerprints and
substrate counts must agree exactly, so only the first pass's histories
need the (super-quadratic) ``order_check`` to vouch for all of them.

Inputs are generated in ``setup`` from the seed; the program under test
only ever sees the generated op lists, arrival lists and plan seeds.
Host time (``perf_counter``) and model time (``D``) never mix: a pass
reports ``wall_s`` in host seconds and ``model_lat`` in ``D``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from attribution import Spans

from repro.chaos.algos import CAMPAIGN_ALGOS, LINEARIZABLE
from repro.chaos.campaign import run_campaign
from repro.core import EqAso
from repro.net.delays import ConstantDelay, UniformDelay
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.shard.service import ShardConfig, ShardedSnapshotService
from repro.shard.workload import WorkloadSpec, generate_arrivals
from repro.sim.rng import SeededRng, derive_seed
from repro.spec.order import order_check

#: EQ-ASO is atomic: its histories are checked with real-time order
EQ_ASO_REAL_TIME = CAMPAIGN_ALGOS["eq_aso"].consistency == LINEARIZABLE

#: open-loop latency limit (D) that defines the sustained rate
LATENCY_LIMIT_D = 40.0
RATE_LADDER = (0.4, 0.6, 0.8, 1.0, 1.2)
REFERENCE_RATE = 0.8


@dataclass
class PassResult:
    """What one pass measured (host seconds and model ``D`` kept apart)."""

    wall_s: float  #: host seconds of the timed region
    attempted: int
    completed: int
    fingerprint: str  #: digest of the model-time results
    model_lat: dict[str, list[float]] = field(default_factory=dict)  #: D, by op kind
    wall_lat_ms: list[float] = field(default_factory=list)  #: host ms per op (aio)
    phases: dict[str, float] = field(default_factory=dict)  #: host-time splits
    exact: dict[str, float] = field(default_factory=dict)  #: model-time extras
    evidence: Any = None  #: what ``verify`` checks


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def mixed_ops(rng: SeededRng, nodes: int, per_node: int, scan_frac: float):
    """Per-node op lists.  The scan share is exact (the seed shuffles
    positions, it does not draw the mix), so seeds differ in interleaving
    and not in how much work they ask for; every UPDATE writes a value
    unique to (node, position)."""
    total = nodes * per_node
    kinds = ["scan"] * round(total * scan_frac)
    kinds += ["update"] * (total - len(kinds))
    rng.shuffle(kinds)
    return [
        [
            ("scan", ()) if kinds[node * per_node + i] == "scan" else ("update", (f"v{node}.{i}",))
            for i in range(per_node)
        ]
        for node in range(nodes)
    ]


def _warmup(ops: list) -> list:
    """The first tenth of every node's op list: one small untimed
    episode through the same code path."""
    return [node_ops[: max(4, len(node_ops) // 10)] for node_ops in ops]


def _handles_payload(handles) -> list:
    return [
        [h.node, h.kind, h.done, h.aborted,
         h.t_inv if h.record else None, h.t_resp if h.done else None,
         repr(h.result.values) if h.kind == "scan" and h.done else None]
        for h in handles
    ]


def _latencies_by_kind(handles) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"update": [], "scan": []}
    for h in handles:
        if h.done:
            out[h.kind].append(h.latency)
    return out


def _rejected_ops(histories, spans: Spans) -> int:
    """Ops sitting in a history ``order_check`` rejects."""
    failed = 0
    for episode, history in enumerate(histories):
        with spans.span("order_check", layer="spec", episode=episode):
            ok = order_check(history, real_time=EQ_ASO_REAL_TIME).ok
        if not ok:
            failed += len(history)
    return failed


class Workload:
    """What the child drives: ``setup`` builds inputs from the seed and
    warms up, ``run_pass`` does one timed pass, ``verify`` returns how
    many of a pass's ops sit in evidence the checkers reject."""

    name: str
    sizes: dict[str, Any]

    def setup(self, spans: Spans) -> None:
        raise NotImplementedError

    def run_pass(self, spans: Spans) -> PassResult:
        raise NotImplementedError

    def verify(self, evidence: Any, spans: Spans) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` opened (nothing, by default)."""


class DesClosedLoop(Workload):
    """Closed-loop EQ-ASO episodes on the DES runtime: one ``chain_ops``
    client per node, fresh ``Cluster`` per episode."""

    def __init__(self, name: str, seed: int, *, n: int, f: int, episodes: int,
                 ops: int, scan_frac: float, jitter: bool) -> None:
        self.name = name
        self.seed = seed
        self.n, self.f = n, f
        self.episodes, self.ops = episodes, ops
        self.scan_frac, self.jitter = scan_frac, jitter
        self.sizes = {"n": n, "f": f, "episodes": episodes, "ops_per_episode": ops,
                      "scan_frac": scan_frac,
                      "delay": "UniformDelay(0.1D..D)" if jitter else "ConstantDelay(D)"}
        self._inputs: list[tuple[int, list]] = []

    def setup(self, spans: Spans) -> None:
        for episode in range(self.episodes):
            eseed = derive_seed(self.seed, self.name, episode)
            ops = mixed_ops(SeededRng(eseed).child("mix"), self.n,
                             self.ops // self.n, self.scan_frac)
            self._inputs.append((eseed, ops))
        self._episode(spans, -1, self._inputs[0][0], _warmup(self._inputs[0][1]))

    def _episode(self, spans: Spans, episode: int, eseed: int, ops: list):
        if self.jitter:
            delays = UniformDelay(1.0, SeededRng(eseed).child("delay"), lo=0.1, hi=1.0)
        else:
            delays = ConstantDelay(1.0)
        with spans.span("Cluster", layer="runtime", episode=episode):
            cluster = Cluster(EqAso, n=self.n, f=self.f, delay_model=delays)
        with spans.span("chain_ops", layer="runtime", episode=episode):
            handles = [h for node in range(self.n) for h in cluster.chain_ops(node, ops[node])]
        with spans.span("run_until_complete", layer="runtime", episode=episode):
            cluster.run_until_complete(handles)
        return cluster, handles

    def run_pass(self, spans: Spans) -> PassResult:
        runs = []
        start = time.perf_counter()
        for episode, (eseed, ops) in enumerate(self._inputs):
            runs.append(self._episode(spans, episode, eseed, ops))
        wall = time.perf_counter() - start
        handles = [h for _, hs in runs for h in hs]
        return PassResult(
            wall_s=wall,
            attempted=len(handles),
            completed=sum(h.done for h in handles),
            fingerprint=_digest(_handles_payload(handles)),
            model_lat=_latencies_by_kind(handles),
            evidence=[cluster.history for cluster, _ in runs],
        )

    def verify(self, evidence: Any, spans: Spans) -> int:
        return _rejected_ops(evidence, spans)


class DesLongStreamChecked(Workload):
    """One long 50/50 stream and the ``order_check`` of its history,
    both timed: the run-one-long-experiment-and-verify-it flow."""

    name = "des_long_stream_checked"

    def __init__(self, seed: int, *, ops: int) -> None:
        self.seed = seed
        self.ops = ops
        self.n, self.f = 5, 2
        self.sizes = {"n": 5, "f": 2, "ops": ops, "scan_frac": 0.5,
                      "delay": "ConstantDelay(D)", "checked_in_timed_region": True}
        self._ops: list = []

    def setup(self, spans: Spans) -> None:
        rng = SeededRng(derive_seed(self.seed, self.name, 0)).child("mix")
        self._ops = mixed_ops(rng, self.n, self.ops // self.n, 0.5)
        self._stream(spans, _warmup(self._ops))

    def _stream(self, spans: Spans, ops: list):
        stamps: list[float] = []
        stamp = stamps.append
        clock = time.perf_counter
        start = clock()
        with spans.span("Cluster", layer="runtime"):
            cluster = Cluster(EqAso, n=self.n, f=self.f)
        with spans.span("chain_ops", layer="runtime"):
            handles = [h for node in range(self.n) for h in cluster.chain_ops(node, ops[node])]
            for handle in handles:
                handle.on_complete(lambda _h: stamp(clock()))
        with spans.span("run_until_complete", layer="runtime"):
            cluster.run_until_complete(handles)
        ran = clock()
        with spans.span("order_check", layer="spec"):
            ok = order_check(cluster.history, real_time=EQ_ASO_REAL_TIME).ok
        end = clock()
        return handles, ok, start, ran, end, stamps

    def run_pass(self, spans: Spans) -> PassResult:
        handles, ok, start, ran, end, stamps = self._stream(spans, self._ops)
        quarter = max(1, len(stamps) // 4)
        first = stamps[quarter - 1] - start
        last = stamps[-1] - stamps[-quarter - 1] if len(stamps) > quarter else first
        return PassResult(
            wall_s=end - start,
            attempted=len(handles),
            completed=sum(h.done for h in handles),
            fingerprint=_digest(_handles_payload(handles)),
            model_lat=_latencies_by_kind(handles),
            phases={"stream_run_s": ran - start, "order_check_s": end - ran,
                    "stream_decay_ratio": last / first},
            evidence=(ok, len(handles)),
        )

    def verify(self, evidence: Any, spans: Spans) -> int:
        ok, ops = evidence  # the check already ran, inside the timed region
        return 0 if ok else ops


class ShardOpenZipf(Workload):
    """Open-loop Zipf/MMPP traffic over the sharded service, at each
    rate of the ladder.  Latency runs from each op's scheduled arrival
    in model time, so the generator is never late (lateness 0 by
    construction)."""

    name = "shard_open_zipf"

    def __init__(self, seed: int, *, ops: int) -> None:
        self.seed = seed
        self.ops = ops
        self.config = ShardConfig(shards=4, nodes_per_shard=3, f=1)
        self.sizes = {"shards": 4, "nodes_per_shard": 3, "f": 1, "ops_per_rate": ops,
                      "rates_per_D": list(RATE_LADDER), "reference_rate": REFERENCE_RATE,
                      "keys": 256, "zipf_theta": 1.1, "scan_frac": 0.35,
                      "gscan_frac": 0.10, "mean_on_D": 40.0, "mean_off_D": 20.0,
                      "latency_limit_D": LATENCY_LIMIT_D}
        self.service: ShardedSnapshotService | None = None
        self._rungs: list[tuple[float, WorkloadSpec, int, list]] = []

    def _spec(self, rate: float, ops: int) -> WorkloadSpec:
        return WorkloadSpec(
            ops=ops, keys=256, zipf_theta=1.1, read_ratio=0.35,
            global_scan_ratio=0.10 / 0.35, rate=rate, off_rate=rate / 4,
            mean_on=40.0, mean_off=20.0,
        )

    def setup(self, spans: Spans) -> None:
        self.service = ShardedSnapshotService(self.config)
        for index, rate in enumerate(RATE_LADDER):
            spec = self._spec(rate, self.ops)
            rseed = derive_seed(self.seed, self.name, index)
            with spans.span("generate_arrivals", layer="shard", episode=index):
                arrivals = generate_arrivals(spec, rseed)
            self._rungs.append((rate, spec, rseed, arrivals))
        warm = self._spec(REFERENCE_RATE, max(20, self.ops // 10))
        self.service.run_arrivals(generate_arrivals(warm, self.seed), spec=warm,
                                  seed=self.seed, check=False)

    def run_pass(self, spans: Spans) -> PassResult:
        assert self.service is not None
        reports = []
        start = time.perf_counter()
        for index, (_rate, spec, rseed, arrivals) in enumerate(self._rungs):
            with spans.span("service.run_arrivals", layer="shard", episode=index):
                reports.append(self.service.run_arrivals(
                    arrivals, spec=spec, seed=rseed, check=False))
        wall = time.perf_counter() - start

        sustained = 0.0
        model_lat: dict[str, list[float]] = {}
        exact: dict[str, float] = {}
        for (rate, spec, _rseed, arrivals), report in zip(self._rungs, reports):
            by_kind: dict[str, list[float]] = {"update": [], "scan": [], "gscan": []}
            for o in report.outcomes:
                if o.lane == "local" and not o.aborted:
                    by_kind[o.kind].append(o.latency)
            by_kind["gscan"] = [c.latency for c in report.composites if c.latency is not None]
            every = sorted(x for xs in by_kind.values() for x in xs)
            drained = (report.completed == spec.ops
                       and report.makespan_D <= arrivals[-1].t + LATENCY_LIMIT_D)
            if drained and every and percentile(every, 99) <= LATENCY_LIMIT_D:
                sustained = max(sustained, rate)
            if rate == REFERENCE_RATE:
                model_lat = by_kind
                exact["shard.routed_imbalance"] = report.routed_imbalance
                done = sum(c.complete for c in report.composites)
                exact["shard.composites_complete_frac"] = (
                    done / len(report.composites) if report.composites else 0.0)
                exact["shard.gscan_p99_D"] = (
                    percentile(sorted(by_kind["gscan"]), 99) if by_kind["gscan"] else 0.0)
        exact["model_sustained_rate_per_D"] = sustained

        if spans.enabled:
            with spans.span("report_dump", layer="shard"):
                for report in reports:
                    json.dumps(report.as_dict(), sort_keys=True)
        return PassResult(
            wall_s=wall,
            attempted=sum(spec.ops for _, spec, _, _ in self._rungs),
            completed=sum(r.completed for r in reports),
            fingerprint=_digest([r.per_shard_fingerprints for r in reports]),
            model_lat=model_lat,
            exact=exact,
            evidence=[r.per_shard_fingerprints for r in reports],
        )

    def verify(self, evidence: Any, spans: Spans) -> int:
        """Re-run every rung with ``check=True``: each per-shard history
        must pass ``order_check`` and reproduce the timed fingerprints."""
        assert self.service is not None
        failed = 0
        for index, ((_rate, spec, rseed, arrivals), prints) in enumerate(
                zip(self._rungs, evidence)):
            with spans.span("service.run_arrivals[check]", layer="shard", episode=index):
                checked = self.service.run_arrivals(arrivals, spec=spec, seed=rseed, check=True)
            if checked.order_ok is not True or checked.per_shard_fingerprints != prints:
                failed += spec.ops
        return failed


class AioClosedLoop(Workload):
    """Closed loop on the asyncio runtime, one client per node, every
    episode in one event loop.  ``mean_delay=0.0`` — instant delivery:
    latency is processor plus event-loop time only (a non-zero delay
    measures ``asyncio.sleep``, whatever the code does)."""

    name = "aio_closed_n5"

    def __init__(self, seed: int, *, episodes: int, ops: int) -> None:
        self.seed = seed
        self.n, self.f = 5, 2
        self.episodes, self.ops = episodes, ops
        self.sizes = {"n": 5, "f": 2, "episodes": episodes, "ops_per_episode": ops,
                      "scan_frac": 0.5, "clients": 5, "mean_delay_s": 0.0}
        self.loop: asyncio.AbstractEventLoop | None = None
        self._inputs: list[tuple[int, list]] = []

    def setup(self, spans: Spans) -> None:
        self.loop = asyncio.new_event_loop()
        for episode in range(self.episodes):
            eseed = derive_seed(self.seed, self.name, episode)
            ops = mixed_ops(SeededRng(eseed).child("mix"), self.n, self.ops // self.n, 0.5)
            self._inputs.append((eseed, ops))
        self.loop.run_until_complete(
            self._episode(spans, -1, self._inputs[0][0], _warmup(self._inputs[0][1]), []))

    async def _episode(self, spans: Spans, episode: int, eseed: int, ops: list,
                       lat_ms: list[float]):
        cluster = AioCluster(EqAso, self.n, self.f, mean_delay=0.0, seed=eseed)
        with spans.span("AioCluster.start", layer="runtime", episode=episode):
            await cluster.start()
        results: list[list] = [[] for _ in range(self.n)]
        clock = time.perf_counter

        async def client(node: int) -> None:
            for kind, args in ops[node]:
                begin = clock()
                result = await cluster.call(node, kind, *args)
                lat_ms.append((clock() - begin) * 1e3)
                results[node].append(repr(result.values) if kind == "scan" else None)

        with spans.span("AioCluster.call", layer="runtime", episode=episode):
            await asyncio.gather(*(client(node) for node in range(self.n)))
        with spans.span("AioCluster.shutdown", layer="runtime", episode=episode):
            await cluster.shutdown()
        return cluster.history, results

    async def _pass(self, spans: Spans, lat_ms: list[float]):
        return [
            await self._episode(spans, episode, eseed, ops, lat_ms)
            for episode, (eseed, ops) in enumerate(self._inputs)
        ]

    def run_pass(self, spans: Spans) -> PassResult:
        assert self.loop is not None
        lat_ms: list[float] = []
        start = time.perf_counter()
        runs = self.loop.run_until_complete(self._pass(spans, lat_ms))
        wall = time.perf_counter() - start
        attempted = sum(len(node_ops) for _, ops in self._inputs for node_ops in ops)
        return PassResult(
            wall_s=wall,
            attempted=attempted,
            completed=len(lat_ms),  # a crashed call raises; none are planned
            fingerprint=_digest([results for _, results in runs]),
            wall_lat_ms=lat_ms,
            evidence=[history for history, _ in runs],
        )

    def verify(self, evidence: Any, spans: Spans) -> int:
        return _rejected_ops(evidence, spans)

    def close(self) -> None:
        if self.loop is not None:
            self.loop.close()


class ChaosSweepAll(Workload):
    """The fault-injected sweep over all eight algorithms; an "op" is
    one generated, executed and checked plan."""

    name = "chaos_sweep_all"

    def __init__(self, seed: int, *, plans_per_algo: int) -> None:
        self.seed = seed
        self.plans = plans_per_algo
        self.algos = list(CAMPAIGN_ALGOS)
        self.sizes = {"algos": self.algos, "plans_per_algo": plans_per_algo, "workers": 1}

    def setup(self, spans: Spans) -> None:
        run_campaign(self.algos, seed_range=(0, 2), master_seed=self.seed, workers=1)

    def run_pass(self, spans: Spans) -> PassResult:
        start = time.perf_counter()
        with spans.span("run_campaign", layer="chaos"):
            report = run_campaign(self.algos, seed_range=(0, self.plans),
                                  master_seed=self.seed, workers=1)
        wall = time.perf_counter() - start
        attempted = len(self.algos) * self.plans
        validated = sum(a.cross_validated for a in report.algos)
        return PassResult(
            wall_s=wall,
            attempted=attempted,
            completed=attempted - report.total_failures,
            fingerprint=_digest(report.to_dict()),
            exact={"chaos.cross_validated_frac": validated / attempted},
            evidence=attempted - sum(a.histories_checked for a in report.algos),
        )

    def verify(self, evidence: Any, spans: Spans) -> int:
        return evidence  # plans the campaign's online check never saw (failures are not completed)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _des(name: str, **shape: Any):
    small = dict(shape, episodes=2, ops=40 if shape["n"] == 5 else 2 * shape["n"])
    return (lambda seed: DesClosedLoop(name, seed, **shape),
            lambda seed: DesClosedLoop(name, seed, **small))


#: name -> (full-size factory, smoke-size factory).  A full-size pass
#: takes one to two seconds here, so a run repeats it several times and
#: reports the fastest pass.
WORKLOADS: dict[str, tuple[Any, Any]] = {
    "des_scan_heavy": _des("des_scan_heavy", n=5, f=2, episodes=8, ops=500,
                           scan_frac=0.8, jitter=False),
    "des_update_heavy": _des("des_update_heavy", n=5, f=2, episodes=4, ops=500,
                             scan_frac=0.2, jitter=False),
    "des_jitter_n21": _des("des_jitter_n21", n=21, f=10, episodes=2, ops=252,
                           scan_frac=0.5, jitter=True),
    "des_long_stream_checked": (lambda seed: DesLongStreamChecked(seed, ops=1000),
                                lambda seed: DesLongStreamChecked(seed, ops=100)),
    "shard_open_zipf": (lambda seed: ShardOpenZipf(seed, ops=600),
                        lambda seed: ShardOpenZipf(seed, ops=60)),
    "aio_closed_n5": (lambda seed: AioClosedLoop(seed, episodes=4, ops=500),
                      lambda seed: AioClosedLoop(seed, episodes=2, ops=50)),
    "chaos_sweep_all": (lambda seed: ChaosSweepAll(seed, plans_per_algo=64),
                        lambda seed: ChaosSweepAll(seed, plans_per_algo=3)),
}


def build(name: str, seed: int, smoke: bool):
    full, small = WORKLOADS[name]
    return (small if smoke else full)(seed)


__all__ = ["PassResult", "WORKLOADS", "build", "mixed_ops", "percentile"]

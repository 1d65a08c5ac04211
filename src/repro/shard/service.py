"""The keyspace-sharded multi-object snapshot service.

One :class:`~repro.runtime.cluster.Cluster` — its own simulator, quorum
group and registered algorithm — per shard; a
:class:`~repro.shard.router.ShardRouter` in front.  Per-key UPDATEs and
single-shard SCANs route to the key's shard; cross-shard (*global*)
SCANs compose per-shard snapshots under the **monotone cut** rule:

    the sub-scan on shard ``s+1`` is invoked only after the sub-scan on
    shard ``s`` responded (sub-scans run in ascending shard order).

Because each per-shard snapshot is linearizable within its shard, the
cut ``r_0 <= r_1 <= ... <= r_{S-1}`` of response times is monotone, and
a composite scan that *ends* before another one *starts* observes, on
every shard, a sub-snapshot that linearizes no later — so non-overlapping
composite scans never observe each other's shards in contradictory
orders (the stitched reads are comparable, shard by shard).  Within a
shard the full linearizability guarantee of the underlying algorithm
applies; *across* shards the composite is a consistent-cut read, not an
atomic one — the standard trade Herlihy–Wing locality gives a sharded
store.  :mod:`repro.shard.oracle` checks the rule differentially
against single-object executions on small configurations.

**Execution model (open loop).**  The workload generator emits arrivals
on its own clock; each arrival is ``Cluster.invoke_at`` its time, at the
client's pinned node (``client % nodes_per_shard``).  The cluster's
per-node FIFO sequences it (nodes are sequential per Sec. II-A): it
begins on arrival at an idle node, otherwise in the event after the
node's previous operation settles.  Reported latency is *response −
arrival*, queueing included — the open-loop definition that makes tail
latency meaningful.

**Determinism & parallelism.**  Shards never exchange messages, so each
shard's execution is a pure function of its own schedule — the service
fans shards out over :func:`repro.parallel.run_tasks` and the merged
report is byte-identical to a serial run.  Global scans introduce a
forward dependency (shard ``s+1``'s sub-scan time depends on shard
``s``'s response), so workloads containing them run shards in ascending
order in-process; pure per-key traffic parallelizes freely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.tags import Snapshot
from repro.net.faults import CrashAtTime, CrashPlan
from repro.obs.registry import HdrHistogram, Registry
from repro.runtime.cluster import Cluster
from repro.shard.router import DEFAULT_VNODES, ShardRouter
from repro.shard.workload import (
    GLOBAL_SCAN,
    SCAN,
    UPDATE,
    Arrival,
    WorkloadSpec,
    generate_arrivals,
)

#: sub-scans of a composite scan are tracked in this lane so per-shard
#: local-scan latency stays uncontaminated by composite plumbing
_LOCAL = "local"
_COMPOSITE = "composite"


def resolve_algorithm(name: str):
    """Factory + consistency level of a registered algorithm profile."""
    from repro.chaos.algos import LINEARIZABLE, all_profiles

    try:
        profile = all_profiles()[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; see repro.chaos.algos"
        ) from None
    return profile.factory, profile.consistency == LINEARIZABLE


@dataclass(frozen=True, slots=True)
class ShardConfig:
    """Topology of the sharded service (one quorum group per shard)."""

    shards: int = 4
    nodes_per_shard: int = 3
    f: int = 1
    algo: str = "eq_aso"
    D: float = 1.0
    vnodes: int = DEFAULT_VNODES
    ring_seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.nodes_per_shard < 1:
            raise ValueError(
                f"nodes_per_shard must be >= 1, got {self.nodes_per_shard}"
            )
        if self.f < 0 or self.nodes_per_shard <= 2 * self.f:
            raise ValueError(
                f"need n > 2f per shard, got n={self.nodes_per_shard} f={self.f}"
            )


@dataclass(frozen=True, slots=True)
class _ShardOp:
    """One scheduled operation of a shard's sub-workload (picklable)."""

    index: int  #: global arrival index (shared by a composite's sub-scans)
    t: float  #: arrival time at this shard
    node: int
    kind: str  #: "update" | "scan"
    value: Any = None  #: UPDATE payload
    lane: str = _LOCAL  #: _LOCAL or _COMPOSITE
    keep_snapshot: bool = False


@dataclass(frozen=True, slots=True)
class _ShardTask:
    """Everything one shard run needs — the parallel sweep unit."""

    shard: int
    n: int
    f: int
    algo: str
    D: float
    ops: tuple[_ShardOp, ...]
    crash_time: float | None = None
    check: bool = True
    keep_snapshots: bool = False


@dataclass(frozen=True, slots=True)
class OpOutcome:
    """Settled fate of one scheduled shard operation."""

    index: int
    shard: int
    kind: str
    node: int
    lane: str
    t_arrival: float
    t_dispatch: float | None  #: when it began; None = never (crashed node)
    t_resp: float | None  #: None = aborted
    aborted: bool
    snapshot: Snapshot | None = None

    @property
    def latency(self) -> float:
        """Open-loop latency: response − *arrival* (queueing included)."""
        assert self.t_resp is not None, "aborted op has no latency"
        return self.t_resp - self.t_arrival


@dataclass(slots=True)
class _ShardOutcome:
    """One shard's run, as shipped back from a worker process."""

    shard: int
    outcomes: list[OpOutcome]
    completed: int
    aborted: int
    messages: int
    sim_end: float  #: last response time (this shard's makespan)
    order_ok: bool | None  #: per-shard consistency verdict (None = unchecked)
    registry: Registry
    fingerprint: str


def _snapshot_digest(snap: Snapshot | None) -> str | None:
    if snap is None:
        return None
    return hashlib.sha256(repr(snap).encode()).hexdigest()[:16]


def shard_fingerprint(outcomes: list[OpOutcome]) -> str:
    """Canonical digest of a shard execution (times, fates, snapshot
    contents) — what the projection oracle and the workers-vs-serial CI
    check compare byte-for-byte."""
    payload = [
        [
            o.index,
            o.kind,
            o.node,
            o.lane,
            round(o.t_arrival, 9),
            None if o.t_dispatch is None else round(o.t_dispatch, 9),
            None if o.t_resp is None else round(o.t_resp, 9),
            o.aborted,
            _snapshot_digest(o.snapshot),
        ]
        for o in outcomes
    ]
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _run_shard_task(task: _ShardTask) -> _ShardOutcome:
    """Run one shard's sub-workload to completion (module-level so the
    PR-8 fork pool can pickle it)."""
    factory, linearizable = resolve_algorithm(task.algo)
    plan = CrashPlan()
    if task.crash_time is not None:
        # whole-shard crash: every node of this quorum group halts (the
        # chaos harness deliberately exceeds f — the shard must *die
        # cleanly*, not stay live)
        for node in range(task.n):
            plan.add(node, CrashAtTime(task.crash_time))
    cluster = Cluster(factory, task.n, task.f, D=task.D, crash_plan=plan)
    # each op is an arrival at its node's FIFO: it begins on arrival at an
    # idle node, else once the ops queued before it settled; on a crashed
    # node it aborts unbegun
    handles = [
        cluster.invoke_at(
            op.t, op.node, op.kind, *([op.value] if op.kind == UPDATE else [])
        )
        for op in task.ops
    ]
    cluster.run_until_complete(handles)

    outcomes = [
        OpOutcome(
            index=op.index,
            shard=task.shard,
            kind=op.kind,
            node=op.node,
            lane=op.lane,
            t_arrival=op.t,
            t_dispatch=None if h.record is None else h.record.t_inv,
            t_resp=h.t_resp if h.done else None,
            aborted=h.aborted,
            snapshot=(
                h.result
                if h.done and op.kind == SCAN and (op.keep_snapshot or task.keep_snapshots)
                else None
            ),
        )
        for op, h in zip(task.ops, handles)
    ]

    # Metrics are derived in op order from the settled outcomes — a pure
    # post-pass, so histogram contents are independent of callback
    # interleavings by construction.
    reg = Registry(histogram_factory=HdrHistogram)
    lat_all = reg.histogram("shard.latency.all_D")
    lat_kind = {
        UPDATE: reg.histogram("shard.latency.update_D"),
        SCAN: reg.histogram("shard.latency.scan_D"),
    }
    lat_sub = reg.histogram("shard.latency.subscan_D")
    completed = aborted = 0
    sim_end = 0.0
    for o in outcomes:
        if o.aborted:
            aborted += 1
            reg.counter("shard.ops.aborted").inc()
            continue
        completed += 1
        reg.counter("shard.ops.completed").inc()
        reg.counter(f"shard.ops.{o.kind}").inc()
        if o.t_resp > sim_end:
            sim_end = o.t_resp
        if o.lane == _COMPOSITE:
            lat_sub.observe(o.latency)
            continue  # composite latency is stitched by the service
        lat_all.observe(o.latency)
        lat_kind[o.kind].observe(o.latency)

    order_ok: bool | None = None
    if task.check:
        from repro.spec.order import order_check

        order_ok = order_check(cluster.history, real_time=linearizable).ok

    return _ShardOutcome(
        shard=task.shard,
        outcomes=outcomes,
        completed=completed,
        aborted=aborted,
        messages=sum(cluster.network.sent_by_node),
        sim_end=sim_end,
        order_ok=order_ok,
        registry=reg,
        fingerprint=shard_fingerprint(outcomes),
    )


@dataclass(frozen=True, slots=True)
class CompositeSnapshot:
    """A cross-shard SCAN: one sub-snapshot per shard, monotone cut.

    ``parts[s]`` is shard ``s``'s snapshot (``None`` if that shard's
    sub-scan aborted — e.g. the shard crashed — making the composite
    *partial*); ``cut[s]`` is the sub-scan's response time, monotone
    non-decreasing across shards by construction.
    """

    index: int  #: the originating arrival's index
    client: int
    t_arrival: float
    parts: tuple[Snapshot | None, ...]
    cut: tuple[float | None, ...]

    @property
    def complete(self) -> bool:
        return all(p is not None for p in self.parts)

    @property
    def t_resp(self) -> float | None:
        """Response time (last sub-scan's response); None if *every*
        shard aborted (nothing was observed at all)."""
        times = [t for t in self.cut if t is not None]
        return max(times) if times else None

    @property
    def latency(self) -> float | None:
        """Latency in D; ``None`` when every shard aborted (a crash-all
        campaign observes nothing, it does not crash the accounting)."""
        t = self.t_resp
        return None if t is None else t - self.t_arrival


@dataclass(slots=True)
class ShardRunReport:
    """Everything one service run produced.

    ``as_dict()`` is the JSON-stable projection the bench fingerprints;
    it contains only simulated quantities (times in ``D``, counts,
    digests) — never wall-clock — so the shipped and reference
    substrates and serial/parallel executions produce identical bytes.
    """

    config: ShardConfig
    spec: WorkloadSpec
    seed: int
    outcomes: list[OpOutcome] = field(default_factory=list)
    composites: list[CompositeSnapshot] = field(default_factory=list)
    registry: Registry = field(default_factory=Registry)
    per_shard_ops: list[int] = field(default_factory=list)
    per_shard_completed: list[int] = field(default_factory=list)
    per_shard_aborted: list[int] = field(default_factory=list)
    per_shard_messages: list[int] = field(default_factory=list)
    per_shard_fingerprints: list[str] = field(default_factory=list)
    order_ok: bool | None = None
    routed_imbalance: float = 0.0
    makespan_D: float = 0.0
    crashed_shard: int | None = None

    @property
    def completed(self) -> int:
        """Client-visible completions: local ops plus composite scans
        (a composite's per-shard sub-scans are *internal* work — they
        appear in the per-shard counts, not here)."""
        local = sum(
            1 for o in self.outcomes if not o.aborted and o.lane == _LOCAL
        )
        return local + sum(1 for c in self.composites if c.t_resp is not None)

    @property
    def aborted(self) -> int:
        local = sum(1 for o in self.outcomes if o.aborted and o.lane == _LOCAL)
        return local + sum(1 for c in self.composites if c.t_resp is None)

    @property
    def ops_per_D(self) -> float:
        """Aggregate simulated throughput: completed operations per unit
        of ``D`` of *makespan* (shards run concurrently, so the makespan
        is the slowest shard's last response)."""
        if self.makespan_D <= 0:
            return 0.0
        return self.completed / self.makespan_D

    def _latency_summary(self, name: str) -> dict[str, float | int]:
        hist = self.registry.histogram(name)
        if hist.empty:
            return {"count": 0}
        return {
            "count": hist.count,
            "mean": round(hist.mean, 6),
            "p50": round(hist.p50, 6),
            "p95": round(hist.p95, 6),
            "p99": round(hist.p99, 6),
            "max": round(hist.maximum, 6),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "shards": self.config.shards,
            "nodes_per_shard": self.config.nodes_per_shard,
            "f": self.config.f,
            "algo": self.config.algo,
            "seed": self.seed,
            "ops": self.spec.ops,
            "completed": self.completed,
            "aborted": self.aborted,
            "makespan_D": round(self.makespan_D, 6),
            "ops_per_D": round(self.ops_per_D, 6),
            "order_ok": self.order_ok,
            "crashed_shard": self.crashed_shard,
            "routed_imbalance": round(self.routed_imbalance, 6),
            "per_shard_ops": list(self.per_shard_ops),
            "per_shard_completed": list(self.per_shard_completed),
            "per_shard_aborted": list(self.per_shard_aborted),
            "per_shard_messages": list(self.per_shard_messages),
            "per_shard_fingerprints": list(self.per_shard_fingerprints),
            "latency": {
                "all": self._latency_summary("shard.latency.all_D"),
                "update": self._latency_summary("shard.latency.update_D"),
                "scan": self._latency_summary("shard.latency.scan_D"),
                "gscan": self._latency_summary("shard.latency.gscan_D"),
            },
            "composites": [
                {
                    "index": c.index,
                    "complete": c.complete,
                    "t_resp": None if c.t_resp is None else round(c.t_resp, 6),
                }
                for c in self.composites
            ],
        }


class ShardedSnapshotService:
    """Routes an open-loop workload over independent per-shard clusters."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.router = ShardRouter(
            config.shards, vnodes=config.vnodes, ring_seed=config.ring_seed
        )

    # -- schedule construction -------------------------------------------
    def _partition(
        self, arrivals: list[Arrival]
    ) -> tuple[list[list[_ShardOp]], list[Arrival]]:
        """Route per-key traffic; return per-shard schedules plus the
        global scans (composed separately)."""
        per_shard: list[list[_ShardOp]] = [[] for _ in range(self.config.shards)]
        global_scans: list[Arrival] = []
        n = self.config.nodes_per_shard
        for a in arrivals:
            if a.kind == GLOBAL_SCAN:
                global_scans.append(a)
                continue
            shard = self.router.shard_of(a.key)
            node = a.client % n
            if a.kind == UPDATE:
                # the written value carries (key, arrival index): unique,
                # hashable (interning-friendly) and key-attributable
                per_shard[shard].append(
                    _ShardOp(a.index, a.t, node, UPDATE, value=(a.key, a.index))
                )
            else:
                per_shard[shard].append(_ShardOp(a.index, a.t, node, SCAN))
        return per_shard, global_scans

    def _task(
        self,
        shard: int,
        ops: list[_ShardOp],
        *,
        crash_time: float | None,
        check: bool,
        keep_snapshots: bool,
    ) -> _ShardTask:
        cfg = self.config
        return _ShardTask(
            shard=shard,
            n=cfg.nodes_per_shard,
            f=cfg.f,
            algo=cfg.algo,
            D=cfg.D,
            ops=tuple(sorted(ops, key=lambda o: (o.t, o.index))),
            crash_time=crash_time,
            check=check,
            keep_snapshots=keep_snapshots,
        )

    # -- execution --------------------------------------------------------
    def run(
        self,
        spec: WorkloadSpec,
        seed: int,
        *,
        workers: int = 1,
        check: bool = True,
        keep_snapshots: bool = False,
        crash_shard: int | None = None,
        crash_time: float | None = None,
    ) -> ShardRunReport:
        """Generate, route and execute one workload; return the report.

        ``crash_shard``/``crash_time`` crash *every* node of one shard at
        an absolute time (the whole-shard chaos scenario): that shard's
        in-flight and subsequent traffic aborts, every other shard is
        unaffected, and composite scans covering the dead shard complete
        *partial* (their surviving parts still form a monotone cut).

        ``workers > 1`` fans shards out over :func:`repro.parallel.run_tasks`
        when the workload has no global scans (those impose a cross-shard
        forward dependency and run shards in ascending order in-process).
        Either way the report is byte-identical.
        """
        arrivals = generate_arrivals(spec, seed)
        return self.run_arrivals(
            arrivals,
            spec=spec,
            seed=seed,
            workers=workers,
            check=check,
            keep_snapshots=keep_snapshots,
            crash_shard=crash_shard,
            crash_time=crash_time,
        )

    def run_arrivals(
        self,
        arrivals: list[Arrival],
        *,
        spec: WorkloadSpec,
        seed: int,
        workers: int = 1,
        check: bool = True,
        keep_snapshots: bool = False,
        crash_shard: int | None = None,
        crash_time: float | None = None,
    ) -> ShardRunReport:
        """:meth:`run` on a prepared arrival list (the oracle replays
        surgically modified workloads through this entry point)."""
        if crash_shard is not None:
            if not 0 <= crash_shard < self.config.shards:
                raise ValueError(
                    f"crash_shard {crash_shard} out of range "
                    f"[0, {self.config.shards})"
                )
            if crash_time is None:
                raise ValueError("crash_shard requires crash_time")
        self.router.reset_counters()
        per_shard, global_scans = self._partition(arrivals)

        def shard_crash(shard: int) -> float | None:
            return crash_time if shard == crash_shard else None

        report = ShardRunReport(
            config=self.config, spec=spec, seed=seed, crashed_shard=crash_shard
        )

        if not global_scans:
            tasks = [
                self._task(
                    s,
                    ops,
                    crash_time=shard_crash(s),
                    check=check,
                    keep_snapshots=keep_snapshots,
                )
                for s, ops in enumerate(per_shard)
            ]
            if workers > 1:
                from repro.parallel import run_tasks

                shard_outcomes = run_tasks(
                    _run_shard_task,
                    tasks,
                    workers=workers,
                    labels=[f"shard {t.shard}" for t in tasks],
                )
            else:
                shard_outcomes = [_run_shard_task(t) for t in tasks]
            self._collect(report, shard_outcomes)
            return report

        # Global scans: sub-scan on shard s+1 arrives at shard s's
        # response (the monotone cut), so shards execute in ascending
        # order, each consuming the cut times the previous one produced.
        n = self.config.nodes_per_shard
        cut_times: dict[int, float] = {g.index: g.t for g in global_scans}
        alive: dict[int, bool] = {g.index: False for g in global_scans}
        parts: dict[int, list[Snapshot | None]] = {
            g.index: [] for g in global_scans
        }
        cuts: dict[int, list[float | None]] = {g.index: [] for g in global_scans}
        shard_outcomes = []
        for s in range(self.config.shards):
            ops = list(per_shard[s])
            for g in global_scans:
                ops.append(
                    _ShardOp(
                        g.index,
                        cut_times[g.index],
                        g.client % n,
                        SCAN,
                        lane=_COMPOSITE,
                        keep_snapshot=True,
                    )
                )
            task = self._task(
                s,
                ops,
                crash_time=shard_crash(s),
                check=check,
                keep_snapshots=keep_snapshots,
            )
            outcome = _run_shard_task(task)
            shard_outcomes.append(outcome)
            for o in outcome.outcomes:
                if o.lane != _COMPOSITE:
                    continue
                if o.aborted:
                    parts[o.index].append(None)
                    cuts[o.index].append(None)
                    # the cut does not advance past a dead shard: the
                    # next sub-scan still waits out the *intended* time
                else:
                    parts[o.index].append(o.snapshot)
                    cuts[o.index].append(o.t_resp)
                    cut_times[o.index] = o.t_resp
                    alive[o.index] = True
        self._collect(report, shard_outcomes)
        gscan_hist = report.registry.histogram("shard.latency.gscan_D")
        for g in global_scans:
            comp = CompositeSnapshot(
                index=g.index,
                client=g.client,
                t_arrival=g.t,
                parts=tuple(parts[g.index]),
                cut=tuple(cuts[g.index]),
            )
            report.composites.append(comp)
            if alive[g.index]:
                gscan_hist.observe(comp.latency)
                report.registry.counter("shard.ops.gscan").inc()
            else:
                # every sub-scan aborted: a degraded (counted) outcome,
                # not an AssertionError in the accounting
                report.registry.counter("shard.ops.aborted_composite").inc()
        return report

    def _collect(
        self, report: ShardRunReport, shard_outcomes: list[_ShardOutcome]
    ) -> None:
        """Fold per-shard outcomes into the report, in shard order (the
        merge order makes aggregate metrics worker-count independent)."""
        makespan = 0.0
        order_ok: bool | None = None
        for outcome in shard_outcomes:
            report.outcomes.extend(outcome.outcomes)
            report.per_shard_ops.append(len(outcome.outcomes))
            report.per_shard_completed.append(outcome.completed)
            report.per_shard_aborted.append(outcome.aborted)
            report.per_shard_messages.append(outcome.messages)
            report.per_shard_fingerprints.append(outcome.fingerprint)
            report.registry.merge(outcome.registry)
            makespan = max(makespan, outcome.sim_end)
            if outcome.order_ok is not None:
                order_ok = (
                    outcome.order_ok
                    if order_ok is None
                    else (order_ok and outcome.order_ok)
                )
        report.makespan_D = makespan
        report.order_ok = order_ok
        report.routed_imbalance = self.router.imbalance()


__all__ = [
    "CompositeSnapshot",
    "OpOutcome",
    "ShardConfig",
    "ShardRunReport",
    "ShardedSnapshotService",
    "resolve_algorithm",
    "shard_fingerprint",
]

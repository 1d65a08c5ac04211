"""Differential validation of the cross-shard composition rule.

The monotone-cut composite SCAN is a *construction*, not an algorithm
from the paper, so it earns its keep by differential checks against
executions we already trust:

1. **Identity** — on a single shard, composing is the identity: a
   workload whose global scans are rewritten into plain per-shard scans
   (same arrival time, same client/node) must produce byte-identical
   response times and snapshot contents.  Any divergence means the
   composite plumbing itself (sub-op injection, cut threading)
   perturbed the execution.
2. **Projection** — each shard of a sharded run, replayed *standalone*
   at its recorded schedule (local arrivals plus the composite
   sub-scans at their reconstructed cut times), must reproduce the
   shard's execution fingerprint byte-for-byte.  Shards exchange no
   messages, so the sharded run must equal the product of its
   projections; a mismatch means hidden cross-shard coupling.
3. **Composition semantics** — within every composite the cut is
   monotone non-decreasing, and for any two composites where one
   responds before the other is invoked, the later one observes on
   every shard a per-writer superset (``useq`` non-decreasing per
   writer).  This is the paper-facing guarantee the monotone cut buys:
   non-overlapping composite scans are comparable, shard by shard.
   Per-shard linearizability itself is checked inside every shard task
   by :func:`repro.spec.order.order_check`.

``run_oracle`` is deliberately sized for *small* configurations (the
acceptance gate runs it on 1–3 shards with hundreds of ops); it re-runs
the workload several times, which is exactly the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.tags import Snapshot
from repro.shard.service import (
    _COMPOSITE,
    CompositeSnapshot,
    ShardConfig,
    ShardRunReport,
    ShardedSnapshotService,
    _run_shard_task,
)
from repro.shard.workload import (
    GLOBAL_SCAN,
    SCAN,
    Arrival,
    WorkloadSpec,
    generate_arrivals,
)


@dataclass(slots=True)
class OracleReport:
    """Verdicts of the three differential checks (None = not applicable)."""

    identity_ok: bool | None = None
    projection_ok: bool | None = None
    composition_ok: bool | None = None
    order_ok: bool | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        verdicts = (
            self.identity_ok,
            self.projection_ok,
            self.composition_ok,
            self.order_ok,
        )
        return all(v is not False for v in verdicts) and not self.failures


def _flatten_globals(arrivals: list[Arrival]) -> list[Arrival]:
    """Rewrite every global scan into a plain scan (key ``""`` routes
    somewhere fixed; on one shard, anywhere is the only shard)."""
    return [
        Arrival(a.index, a.t, a.client, SCAN, "") if a.kind == GLOBAL_SCAN else a
        for a in arrivals
    ]


def check_identity(
    config: ShardConfig, spec: WorkloadSpec, seed: int
) -> list[str]:
    """On one shard, the composite must equal the plain scan it wraps."""
    config = replace(config, shards=1)
    arrivals = generate_arrivals(spec, seed)
    composed = ShardedSnapshotService(config).run_arrivals(
        arrivals, spec=spec, seed=seed, keep_snapshots=True
    )
    flat = ShardedSnapshotService(config).run_arrivals(
        _flatten_globals(arrivals), spec=spec, seed=seed, keep_snapshots=True
    )
    failures: list[str] = []
    flat_by_index = {o.index: o for o in flat.outcomes}
    for comp in composed.composites:
        ref = flat_by_index.get(comp.index)
        if ref is None:
            failures.append(f"composite {comp.index}: no flat counterpart")
            continue
        if comp.t_resp != ref.t_resp:
            failures.append(
                f"composite {comp.index}: t_resp {comp.t_resp} != "
                f"flat scan {ref.t_resp}"
            )
        if comp.parts != (ref.snapshot,):
            failures.append(
                f"composite {comp.index}: snapshot differs from flat scan"
            )
    # the local (non-global) traffic must be untouched by composition
    comp_local = {
        o.index: (o.t_resp, o.aborted)
        for o in composed.outcomes
        if o.lane != _COMPOSITE
    }
    flat_local = {
        o.index: (o.t_resp, o.aborted)
        for o in flat.outcomes
        if o.index in comp_local
    }
    if comp_local != flat_local:
        diff = [
            i
            for i in comp_local
            if comp_local[i] != flat_local.get(i)
        ]
        failures.append(f"local traffic perturbed at indices {diff[:5]}")
    return failures


def _composite_arrival_times(comp: CompositeSnapshot) -> list[float]:
    """Reconstruct each sub-scan's arrival time from the cut: shard 0
    starts at the composite's arrival; shard ``s+1`` starts at shard
    ``s``'s response (a dead shard does not advance the cut)."""
    times: list[float] = []
    t = comp.t_arrival
    for cut in comp.cut:
        times.append(t)
        if cut is not None:
            t = cut
    return times


def check_projection(
    config: ShardConfig,
    spec: WorkloadSpec,
    seed: int,
    report: ShardRunReport | None = None,
    *,
    keep_snapshots: bool = False,
) -> list[str]:
    """Replay each shard standalone; fingerprints must match the run.

    ``keep_snapshots`` must match the policy of the run that produced
    ``report`` — the fingerprint hashes kept snapshot contents, so the
    replay has to keep (or drop) them identically.
    """
    service = ShardedSnapshotService(config)
    if report is None:
        report = service.run(spec, seed, keep_snapshots=keep_snapshots)
    if report.crashed_shard is not None:
        raise ValueError(
            "projection replays crash-free runs only (a crashed shard's "
            "schedule is not reconstructible from the report)"
        )
    per_shard, global_scans = service._partition(
        generate_arrivals(spec, seed), keep_snapshots=keep_snapshots
    )
    arrival_times = {
        comp.index: _composite_arrival_times(comp) for comp in report.composites
    }
    failures: list[str] = []
    for shard, ops in enumerate(per_shard):
        cut_times = {index: times[shard] for index, times in arrival_times.items()}
        task = service._task(
            shard, ops, global_scans, cut_times, crash_time=None, check=False
        )
        replay = _run_shard_task(task)
        if replay.fingerprint != report.per_shard_fingerprints[shard]:
            failures.append(
                f"shard {shard}: standalone replay fingerprint "
                f"{replay.fingerprint[:12]} != run "
                f"{report.per_shard_fingerprints[shard][:12]}"
            )
    return failures


def _writer_useqs(snap: Snapshot | None) -> tuple[int, ...]:
    if snap is None:
        return ()
    return tuple(0 if m is None else m.useq for m in snap.meta)


def check_composition(report: ShardRunReport) -> list[str]:
    """Monotone cut within composites; per-writer inclusion across
    non-overlapping composites."""
    failures: list[str] = []
    for comp in report.composites:
        cuts = [c for c in comp.cut if c is not None]
        if any(b < a for a, b in zip(cuts, cuts[1:])):
            failures.append(f"composite {comp.index}: cut not monotone {cuts}")
    done = [c for c in report.composites if c.t_resp is not None]
    done.sort(key=lambda c: c.t_resp)
    for i, first in enumerate(done):
        for second in done[i + 1 :]:
            if first.t_resp >= second.t_arrival:
                continue  # overlapping: no cross-composite guarantee
            for shard, (p1, p2) in enumerate(zip(first.parts, second.parts)):
                if p1 is None or p2 is None:
                    continue
                u1, u2 = _writer_useqs(p1), _writer_useqs(p2)
                if any(b < a for a, b in zip(u1, u2)):
                    failures.append(
                        f"composites {first.index} -> {second.index} shard "
                        f"{shard}: later scan observes less ({u1} -> {u2})"
                    )
    return failures


def run_oracle(
    config: ShardConfig,
    spec: WorkloadSpec,
    seed: int,
    *,
    crash_shard: int | None = None,
    crash_time: float | None = None,
) -> OracleReport:
    """All three differential checks on one (config, spec, seed) cell."""
    out = OracleReport()
    report = ShardedSnapshotService(config).run(
        spec,
        seed,
        keep_snapshots=True,
        crash_shard=crash_shard,
        crash_time=crash_time,
    )
    out.order_ok = report.order_ok

    identity_failures = check_identity(config, spec, seed)
    out.identity_ok = not identity_failures
    out.failures.extend(identity_failures)

    if crash_shard is None:
        projection_failures = check_projection(
            config, spec, seed, report, keep_snapshots=True
        )
        out.projection_ok = not projection_failures
        out.failures.extend(projection_failures)

    composition_failures = check_composition(report)
    out.composition_ok = not composition_failures
    out.failures.extend(composition_failures)
    return out


__all__ = [
    "OracleReport",
    "check_composition",
    "check_identity",
    "check_projection",
    "run_oracle",
]

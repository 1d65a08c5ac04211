"""Whole-shard crash campaign: the service must degrade, not fail.

The single-object chaos campaigns (:mod:`repro.chaos`) crash at most
``f`` of ``n`` nodes — the regime the algorithms are *proved* for.  A
sharded deployment has a new failure mode those sweeps cannot exercise:
an entire quorum group dying at once (a rack, an AZ).  No algorithm
survives ``k > f``; what the *service* owes the client is graceful
degradation, which is a checkable contract:

- **survivors unaffected** — every other shard completes all its
  traffic, zero aborts, and stays linearizable (shards share nothing,
  so one shard's death must be invisible to the rest);
- **dead shard quiesces** — nothing on the crashed shard completes
  after the crash instant, everything queued or arriving later aborts
  (no zombie completions, no hangs);
- **composites stay live** — cross-shard scans keep responding, marked
  *partial* for the dead shard, and their surviving parts still form a
  monotone cut.

Each campaign cell derives its own crash site and crash time from the
master seed (:func:`repro.sim.rng.derive_seed`), so a sweep is
replayable cell-by-cell and fans out over the PR-8 executor with
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.shard.service import _LOCAL, ShardConfig, ShardedSnapshotService
from repro.shard.workload import WorkloadSpec
from repro.sim.rng import SeededRng, derive_seed


@dataclass(frozen=True, slots=True)
class _CellTask:
    """Picklable description of one campaign cell."""

    cell: int
    master_seed: int
    config: ShardConfig
    spec: WorkloadSpec


@dataclass(frozen=True, slots=True)
class ShardChaosCell:
    """Verdict of one whole-shard-crash execution."""

    cell: int
    seed: int
    crash_shard: int
    crash_time: float
    completed: int
    aborted: int
    survivors_clean: bool
    dead_shard_quiesced: bool
    composites_live: bool
    order_ok: bool | None
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _expected_span_D(spec: WorkloadSpec) -> float:
    """Rough arrival-span estimate used to place the crash mid-run."""
    duty = 1.0
    if spec.mean_off > 0.0:
        on = spec.mean_on
        off = spec.mean_off
        duty = (spec.rate * on + spec.off_rate * off) / (
            spec.rate * (on + off)
        )
    return spec.ops / (spec.rate * max(duty, 1e-9))


def _run_cell(task: _CellTask) -> ShardChaosCell:
    """Execute one cell (module-level so the fork pool can pickle it)."""
    cfg = task.config
    seed = derive_seed(task.master_seed, "shard-chaos", task.cell)
    rng = SeededRng(seed)
    crash_shard = rng.randint(0, cfg.shards - 1)
    crash_time = rng.uniform(0.2, 0.7) * _expected_span_D(task.spec)
    report = ShardedSnapshotService(cfg).run(
        task.spec,
        seed,
        crash_shard=crash_shard,
        crash_time=crash_time,
    )
    failures: list[str] = []

    survivor_aborts = sum(
        1
        for o in report.outcomes
        if o.shard != crash_shard and o.lane == _LOCAL and o.aborted
    )
    survivors_clean = survivor_aborts == 0
    if not survivors_clean:
        failures.append(
            f"{survivor_aborts} local ops aborted on surviving shards"
        )

    zombies = [
        o
        for o in report.outcomes
        if o.shard == crash_shard
        and not o.aborted
        and o.t_resp is not None
        and o.t_resp > crash_time
    ]
    dead_quiesced = not zombies
    if zombies:
        failures.append(
            f"{len(zombies)} ops completed on shard {crash_shard} after "
            f"its crash at {crash_time:.3f}"
        )

    dead_composites = sum(1 for c in report.composites if c.t_resp is None)
    composites_live = cfg.shards < 2 or dead_composites == 0
    if not composites_live:
        failures.append(
            f"{dead_composites} composite scans got no response at all "
            f"despite {cfg.shards - 1} surviving shards"
        )

    if report.order_ok is False:
        failures.append("per-shard consistency check failed")

    return ShardChaosCell(
        cell=task.cell,
        seed=seed,
        crash_shard=crash_shard,
        crash_time=round(crash_time, 6),
        completed=report.completed,
        aborted=report.aborted,
        survivors_clean=survivors_clean,
        dead_shard_quiesced=dead_quiesced,
        composites_live=composites_live,
        order_ok=report.order_ok,
        failures=tuple(failures),
    )


def shard_crash_campaign(
    config: ShardConfig,
    spec: WorkloadSpec,
    master_seed: int,
    *,
    cells: int = 8,
    workers: int = 1,
) -> dict:
    """Sweep ``cells`` derived-seed whole-shard-crash executions.

    Returns a JSON-stable report (simulated quantities only); the
    ``all_ok`` key is the campaign verdict.  ``workers > 1`` fans cells
    out over :func:`repro.parallel.run_tasks` — byte-identical reports.
    """
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    tasks = [
        _CellTask(cell=i, master_seed=master_seed, config=config, spec=spec)
        for i in range(cells)
    ]
    if workers > 1:
        from repro.parallel import run_tasks

        results = run_tasks(
            _run_cell,
            tasks,
            workers=workers,
            labels=[f"shard-chaos cell {t.cell}" for t in tasks],
        )
    else:
        results = [_run_cell(t) for t in tasks]
    return {
        "campaign": "shard-crash",
        "master_seed": master_seed,
        **asdict(config),
        "ops_per_cell": spec.ops,
        "cells": [asdict(r) for r in results],
        "ok_cells": sum(1 for r in results if r.ok),
        "all_ok": all(r.ok for r in results),
    }


__all__ = ["ShardChaosCell", "shard_crash_campaign"]

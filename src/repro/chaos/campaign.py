"""Seed-swept chaos campaigns.

A campaign runs ``seeds`` independent random executions per algorithm.
The i-th execution of algorithm ``algo`` uses the seed

    ``derive_seed(master_seed, "chaos", algo, i)``

so every execution is an independent, addressable random stream: a
failure report names ``(algo, campaign index)`` and anyone can replay
exactly that execution with one CLI line — without running the rest of
the sweep (the :func:`~repro.sim.rng.derive_seed` hygiene rule).

On a failure the campaign delta-debugs the plan
(:mod:`repro.chaos.shrink`), re-checks the shrunk plan, and exports the
counterexample bundle (:mod:`repro.chaos.export`).

**Parallel sweeps.**  ``workers > 1`` fans the per-index entries out to
a :func:`repro.parallel.run_tasks` process pool.  One entry — plan
generation, execution, checking, shrinking and counterexample export —
is one task: its seed derives from ``(master_seed, "chaos", algo,
index)`` alone, so entries are order-independent and the merged report
(and every exported bundle) is byte-identical to a serial run.  Shrink
and export run inside the worker; only the plain
:class:`FailureRecord` data rides back over the pipe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.chaos.export import export_counterexample
from repro.chaos.gen import generate_plan
from repro.chaos.algos import get_profile
from repro.chaos.runner import run_plan
from repro.chaos.shrink import shrink_plan
from repro.sim.rng import derive_seed


@dataclass(slots=True)
class FailureRecord:
    """One failure found (and shrunk) during a campaign."""

    algo: str
    campaign_index: int
    seed: int
    kind: str
    detail: str
    original_size: tuple[int, int, int]
    shrunk_size: tuple[int, int, int]
    shrink_executions: int
    shrink_moves: list[str]
    shrunk_plan_dict: dict[str, Any]
    export_paths: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "campaign_index": self.campaign_index,
            "kind": self.kind,
            "detail": self.detail,
            "original_size": list(self.original_size),
            "shrunk_size": list(self.shrunk_size),
            "shrink_executions": self.shrink_executions,
            "shrink_moves": self.shrink_moves,
            "shrunk_plan": self.shrunk_plan_dict,
            "export": self.export_paths,
        }


@dataclass(slots=True)
class AlgoCampaign:
    """Per-algorithm campaign outcome."""

    algo: str
    seeds: list[int]
    executions: int
    histories_checked: int
    cross_validated: int
    failures: list[FailureRecord]

    def to_dict(self) -> dict[str, Any]:
        return {
            "algo": self.algo,
            "seeds": self.seeds,
            "executions": self.executions,
            "histories_checked": self.histories_checked,
            "cross_validated": self.cross_validated,
            "failures": [f.to_dict() for f in self.failures],
        }


@dataclass(slots=True)
class CampaignReport:
    """Whole-campaign outcome (all algorithms)."""

    master_seed: int
    smoke: bool
    algos: list[AlgoCampaign]

    @property
    def total_failures(self) -> int:
        return sum(len(a.failures) for a in self.algos)

    @property
    def total_executions(self) -> int:
        return sum(a.executions for a in self.algos)

    def to_dict(self) -> dict[str, Any]:
        # the ledger's ``chaos_sweep_all`` fingerprint hashes this dict
        # without ``sort_keys``: the key order is part of the contract
        return {
            "schema_version": 1,
            "generated_by": "python -m repro.chaos",
            "master_seed": self.master_seed,
            "smoke": self.smoke,
            "algos": [a.to_dict() for a in self.algos],
            "total_executions": self.total_executions,
            "total_failures": self.total_failures,
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for entry in self.algos:
            status = (
                "ok"
                if not entry.failures
                else f"{len(entry.failures)} FAILURE(S)"
            )
            lines.append(
                f"{entry.algo:24s} seeds={len(entry.seeds):<4d} "
                f"executions={entry.executions:<5d} "
                f"cross-validated={entry.cross_validated:<4d} {status}"
            )
            for rec in entry.failures:
                o_ops, o_k, _ = rec.original_size
                s_ops, s_k, _ = rec.shrunk_size
                lines.append(
                    f"  [{rec.kind}] index {rec.campaign_index} "
                    f"seed {rec.seed}: shrunk {o_ops} ops/{o_k} faults -> "
                    f"{s_ops} ops/{s_k} faults "
                    f"({rec.shrink_executions} trials)"
                )
                repro = rec.export_paths.get("repro")
                if repro:
                    lines.append(f"    repro: see {repro}")
                else:
                    lines.append(
                        f"    repro: python -m repro.chaos --algo {rec.algo} "
                        f"--master-seed {self.master_seed} "
                        f"--seeds {rec.campaign_index}:{rec.campaign_index + 1}"
                    )
        return lines


def campaign_seed(master_seed: int, algo: str, index: int) -> int:
    """The i-th execution seed of an algorithm's sweep."""
    return derive_seed(master_seed, "chaos", algo, index)


@dataclass(frozen=True, slots=True)
class _EntryTask:
    """Picklable description of one campaign entry (one sweep unit)."""

    algo: str
    index: int
    master_seed: int
    budget: int
    out: str | None


@dataclass(frozen=True, slots=True)
class _EntryResult:
    """Picklable outcome of one campaign entry."""

    seed: int
    executions: int
    checked: bool
    validated: bool
    failure: FailureRecord | None


def _run_entry(task: _EntryTask) -> _EntryResult:
    """Run one campaign entry end to end (worker-side).

    The entry's whole lifecycle — generate, execute, check, shrink,
    export — happens here, so a parallel sweep ships only this plain
    record back to the parent.
    """
    profile = get_profile(task.algo)
    seed = campaign_seed(task.master_seed, task.algo, task.index)
    plan = generate_plan(profile, seed)
    result = run_plan(plan)
    executions = 1
    checked = result.history is not None
    validated = result.cross_validated
    if result.failure is None:
        return _EntryResult(seed, executions, checked, validated, None)
    shrunk = shrink_plan(plan, result, max_executions=task.budget)
    executions += shrunk.executions
    final_failure = shrunk.result.failure
    assert final_failure is not None  # shrink preserves failure
    record = FailureRecord(
        algo=task.algo,
        campaign_index=task.index,
        seed=seed,
        kind=final_failure.kind,
        detail=final_failure.detail,
        original_size=plan.size(),
        shrunk_size=shrunk.plan.size(),
        shrink_executions=shrunk.executions,
        shrink_moves=shrunk.moves,
        shrunk_plan_dict=shrunk.plan.to_dict(),
    )
    if task.out is not None:
        record.export_paths = export_counterexample(
            shrunk.plan,
            final_failure,
            Path(task.out),
            campaign_index=task.index,
            master_seed=task.master_seed,
        )
    return _EntryResult(seed, executions, checked, validated, record)


def run_campaign(
    algos: Sequence[str],
    *,
    seed_range: tuple[int, int],
    master_seed: int = 0,
    budget: int = 150,
    out: Path | None = None,
    smoke: bool = False,
    workers: int = 1,
) -> CampaignReport:
    """Run a chaos campaign.

    Args:
        algos: profile names (healthy, Byzantine or mutant).
        seed_range: half-open campaign-index range ``[lo, hi)``.
        master_seed: root of every derived stream.
        budget: shrink-execution budget per failure.
        out: counterexample/report directory (None = no export).
        smoke: recorded in the report (CLI preset semantics).
        workers: process count for the sweep; 1 (the default) runs
            serially in-process.  Any value produces the byte-identical
            report — see the module docstring.

    Raises:
        repro.parallel.WorkerCrash: a parallel worker's entry raised;
            the crash names the failing ``algo``/``index``/``seed``.
    """
    lo, hi = seed_range
    tasks: list[_EntryTask] = []
    labels: list[str] = []
    for algo in algos:
        get_profile(algo)  # unknown algos fail fast, in the parent
        for index in range(lo, hi):
            tasks.append(
                _EntryTask(
                    algo=algo,
                    index=index,
                    master_seed=master_seed,
                    budget=budget,
                    out=None if out is None else str(out),
                )
            )
            labels.append(
                f"algo {algo} index {index} "
                f"seed {campaign_seed(master_seed, algo, index)}"
            )
    if workers <= 1:
        outcomes = [_run_entry(task) for task in tasks]
    else:
        from repro.parallel import run_tasks

        outcomes = run_tasks(_run_entry, tasks, workers=workers, labels=labels)

    entries: list[AlgoCampaign] = []
    per_algo = hi - lo
    for pos, algo in enumerate(algos):
        chunk = outcomes[pos * per_algo:(pos + 1) * per_algo]
        entries.append(
            AlgoCampaign(
                algo=algo,
                seeds=[r.seed for r in chunk],
                executions=sum(r.executions for r in chunk),
                histories_checked=sum(r.checked for r in chunk),
                cross_validated=sum(r.validated for r in chunk),
                failures=[r.failure for r in chunk if r.failure is not None],
            )
        )
    report = CampaignReport(master_seed=master_seed, smoke=smoke, algos=entries)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with (out / "report.json").open("w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
    return report


__all__ = [
    "AlgoCampaign",
    "CampaignReport",
    "FailureRecord",
    "campaign_seed",
    "run_campaign",
]

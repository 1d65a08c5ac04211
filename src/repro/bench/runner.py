"""Measurement core of ``python -m repro.bench``.

Each :class:`BenchCase` is a registry-experiment workload returning its
paper-facing metrics as a JSON-serializable object.  :func:`run_bench`
times each workload, counts executed kernel events, network messages and
view-plane row work through :data:`repro.sim.fastpath.STATS`, and
fingerprints the metrics object (canonical JSON, SHA-256).

The bench is a determinism gate first and a stopwatch second: every
repeat of a workload must yield the identical fingerprint
(:class:`FingerprintMismatch` otherwise), and ``--baseline`` compares
fingerprints and counters *exactly* against a same-mode report
(:mod:`repro.bench.compare`).  Wall-clock is reported, never gated —
absolute per-layer timing and its regression bounds belong to
``benchmarks/ledger``.  The whole-run comparison against the reference
queue/network/view plane lives in tier-1 (``tests/bench/test_oracle.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import time  # lint: ignore[RL001] host wall-clock for the stopwatch; simulation code never reads it
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.bench.schema import SCHEMA_VERSION
from repro.obs.registry import telemetry
from repro.sim.fastpath import STATS


class BenchError(RuntimeError):
    """A benchmark could not run (unknown case, bad configuration)."""


class FingerprintMismatch(BenchError):
    """Two repeats of one workload disagreed on metrics."""


@dataclass(frozen=True, slots=True)
class BenchCase:
    """One macro-benchmark: a workload at full and smoke (CI) size.

    ``full``/``smoke`` return the workload's paper-facing metrics as a
    JSON-serializable object; the runner fingerprints it for the
    determinism check and the baseline gate.
    """

    name: str
    description: str
    lockstep: bool
    full: Callable[[], Any]
    smoke: Callable[[], Any]


# ----------------------------------------------------------------------
# case workloads (imports deferred so ``--validate`` stays instant)
# ----------------------------------------------------------------------
def _table1(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.table1 import run_table1

    return [row.as_dict() for row in run_table1(seed=7, interference=False, **kw)]


def _curves(curves: Any) -> list[dict[str, Any]]:
    return [
        {
            "label": c.label,
            "xs": list(c.xs),
            "ys": [round(y, 6) for y in c.ys],
            "exponent": None if c.exponent is None else round(c.exponent, 6),
        }
        for c in curves
    ]


def _scale_k(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.scaling import scale_k

    return _curves(scale_k(**kw))


def _interference(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.scaling import interference_scan

    return _curves(interference_scan(seed=7, **kw))


def _views(**kw: Any) -> dict[str, Any]:
    from repro.harness.views_bench import views_stress

    return views_stress(**kw)


def _shard_throughput(**kw: Any) -> dict[str, Any]:
    from repro.shard.bench import shard_throughput

    return shard_throughput(**kw)


def _shard_scan_tail(**kw: Any) -> dict[str, Any]:
    from repro.shard.bench import shard_scan_tail

    return shard_scan_tail(**kw)


def _contender_latency(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.contenders import contender_latency

    return [row.as_dict() for row in contender_latency(**kw)]


def _byzantine(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.byzantine import byz_scaling

    return [
        {
            "behaviour": p.behaviour,
            "num_byzantine": p.num_byzantine,
            "n": p.n,
            "update_mean_D": round(p.update_mean_D, 6),
            "scan_mean_D": round(p.scan_mean_D, 6),
            "linearizable": p.linearizable,
        }
        for p in byz_scaling(**kw)
    ]


CASES: dict[str, BenchCase] = {
    "table1": BenchCase(
        "table1",
        "Table I lockstep columns (staircase worst case + amortized runs); "
        "the interference column is the dedicated 'interference' case",
        lockstep=True,
        full=_table1,
        smoke=lambda: _table1(k=4, amortized_ops=6),
    ),
    "scale_k": BenchCase(
        "scale_k",
        "SCAN latency vs k under the failure-chain staircase, k up to 21",
        lockstep=True,
        full=_scale_k,
        smoke=lambda: _scale_k(ks=(1, 3, 6)),
    ),
    "interference": BenchCase(
        "interference",
        "double-collect critique: seeded random delays (adversarial for "
        "the burst lane and broadcast batching)",
        lockstep=False,
        full=_interference,
        smoke=lambda: _interference(ns=(5,)),
    ),
    "byzantine": BenchCase(
        "byzantine",
        "honest latency vs #Byzantine nodes (tag-flooder behaviour)",
        lockstep=False,
        full=_byzantine,
        smoke=lambda: _byzantine(byz_counts=(0, 1), ops_per_honest=1),
    ),
    "contender_latency": BenchCase(
        "contender_latency",
        "head-to-head contender race (BFK / IMPR / Delporte / EQ-ASO): "
        "failure-free latency, scan-vs-c updater ramp, staircase worst "
        "case and fault envelope — all lockstep, seedless",
        lockstep=True,
        full=_contender_latency,
        smoke=lambda: _contender_latency(c_values=(1, 4), k=3, envelope_ns=(3, 5)),
    ),
    "shard_throughput": BenchCase(
        "shard_throughput",
        "sharded service aggregate throughput (ops per D of makespan): "
        "4 shards vs one shard vs one table1-sized object, open-loop "
        "Zipf-keyed traffic at a single-group-saturating rate",
        lockstep=True,
        full=_shard_throughput,
        smoke=lambda: _shard_throughput(ops=150, baseline_ops=60, keys=64),
    ),
    "shard_scan_tail": BenchCase(
        "shard_scan_tail",
        "sharded service tail latency (open-loop p50/p95/p99 per lane) "
        "under bursty MMPP arrivals, Zipf skew and cross-shard "
        "monotone-cut composite scans",
        lockstep=True,
        full=_shard_scan_tail,
        smoke=lambda: _shard_scan_tail(ops=120, keys=64),
    ),
    "views": BenchCase(
        "views",
        "EQ-bound view-vector stress: concurrent update/scan chains at "
        "every node (the eq_rows_* counters show the incremental-EQ "
        "row savings)",
        lockstep=True,
        full=_views,
        smoke=lambda: _views(n=6, f=2, rounds=6, scan_every=3),
    ),
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _fingerprint(metrics: Any) -> str:
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _measure(
    workload: Callable[[], Any], *, repeats: int, warmup: int
) -> tuple[dict[str, Any], str]:
    """Time ``workload``.

    Returns the measurement record and the metrics fingerprint; raises
    :class:`FingerprintMismatch` if two repeats disagree (a determinism
    regression — the substrate leaked state between runs).
    """
    for _ in range(warmup):
        workload()
    walls: list[float] = []
    fingerprints: list[str] = []
    deltas: dict[str, int] = {}
    tele = telemetry()
    for _ in range(repeats):
        gc.collect()
        before = STATS.counters()
        start = time.perf_counter()
        metrics = workload()
        walls.append(time.perf_counter() - start)
        after = STATS.counters()
        deltas = {name: after[name] - before[name] for name in after}
        fingerprints.append(_fingerprint(metrics))
        tele.counter("bench.repeats").inc()
        tele.histogram("bench.wall_s").observe(walls[-1])
    if len(set(fingerprints)) != 1:
        tele.counter("bench.fingerprint_mismatches").inc()
        raise FingerprintMismatch(
            f"non-deterministic workload: {sorted(set(fingerprints))}"
        )
    wall_min = min(walls)
    events, messages = deltas["events"], deltas["messages"]
    record = {
        "wall_s_min": round(wall_min, 4),
        "wall_s_all": [round(w, 4) for w in walls],
        "events": events,
        "messages": messages,
        "events_per_s": round(events / wall_min) if wall_min > 0 else 0,
        "messages_per_s": round(messages / wall_min) if wall_min > 0 else 0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # data-plane counters (per run): how much EQ row work the
        # incremental evaluation did vs skipped
        "eq_evals": deltas["eq_evals"],
        "eq_rows_scanned": deltas["eq_rows_scanned"],
        "eq_rows_saved": deltas["eq_rows_saved"],
        "eq_batched_scans": deltas["eq_batched_scans"],
        "values_interned": deltas["values_interned"],
        "messages_packed": deltas["messages_packed"],
    }
    return record, fingerprints[0]


def run_case(
    case: BenchCase, *, smoke: bool, repeats: int, warmup: int
) -> dict[str, Any]:
    """Benchmark one case and build its report entry."""
    workload = case.smoke if smoke else case.full
    measurement, fingerprint = _measure(workload, repeats=repeats, warmup=warmup)
    telemetry().counter("bench.cases").inc()
    return {
        "name": case.name,
        "description": case.description,
        "lockstep": case.lockstep,
        "measurement": measurement,
        "fingerprint_sha256": fingerprint,
    }


def _run_named(name: str, *, smoke: bool, repeats: int, warmup: int) -> dict[str, Any]:
    """:func:`run_case` by registry name — the picklable sweep unit
    (a :class:`BenchCase` holds lambdas)."""
    return run_case(CASES[name], smoke=smoke, repeats=repeats, warmup=warmup)


def run_bench(
    case_names: list[str] | None = None,
    *,
    smoke: bool = False,
    repeats: int = 3,
    warmup: int = 1,
    workers: int = 1,
) -> dict[str, Any]:
    """Run the selected cases (default: all) and build the report.

    ``workers > 1`` measures the cases on a process pool.  Each
    measurement is deterministic given (case, mode), so fingerprints and
    counters are identical to the serial path (wall-clock numbers are
    whatever the contended machine produces).  The report carries a
    ``workers`` key only in that mode, so serial reports are unchanged.
    """
    names = case_names or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise BenchError(f"unknown case(s) {unknown}; choose from {sorted(CASES)}")
    if repeats < 1 or warmup < 0:
        raise BenchError(f"bad repeats={repeats}/warmup={warmup}")
    if workers < 1:
        raise BenchError(f"bad workers={workers}; need >= 1")
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.bench",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "warmup": warmup,
    }
    run = partial(_run_named, smoke=smoke, repeats=repeats, warmup=warmup)
    if workers <= 1:
        report["cases"] = [run(name) for name in names]
    else:
        from repro.parallel import run_tasks

        report["workers"] = workers
        report["cases"] = run_tasks(
            run, names, workers=workers, labels=[f"case {name}" for name in names]
        )
    return report


def format_report(report: dict[str, Any]) -> str:
    """Human-readable summary table of a bench report."""
    header = (
        f"{'case':18s} {'wall (s)':>9s} {'events':>9s} {'messages':>9s} "
        f"{'events/s':>10s} {'msgs/s':>10s}  fingerprint"
    )
    lines = [f"repro.bench [{report['mode']}] repeats={report['repeats']}", header]
    lines.append("-" * len(header))
    for case in report["cases"]:
        m = case["measurement"]
        mark = " (lockstep)" if case["lockstep"] else ""
        lines.append(
            f"{case['name']:18s} {m['wall_s_min']:>9.3f} {m['events']:>9d} "
            f"{m['messages']:>9d} {m['events_per_s']:>10d} "
            f"{m['messages_per_s']:>10d}  "
            f"{case['fingerprint_sha256'][:12]}{mark}"
        )
    return "\n".join(lines)


__all__ = [
    "BenchCase",
    "BenchError",
    "CASES",
    "FingerprintMismatch",
    "format_report",
    "run_bench",
    "run_case",
]

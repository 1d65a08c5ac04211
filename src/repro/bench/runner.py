"""The cases of ``python -m repro.bench`` and how one is measured.

Each :class:`BenchCase` is a registry-experiment workload, at full and
smoke size, returning its paper-facing metrics as a JSON-serializable
object.  :func:`run_case` runs one and records the SHA-256 of the
metrics' canonical JSON plus the :data:`~repro.bench.schema.GATED_COUNTERS`
deltas of :data:`repro.sim.fastpath.STATS` around it — every value a
pure function of (case, size).  :func:`run_bench` runs each selected
case twice and raises :class:`FingerprintMismatch` if the two entries
differ (the substrate leaked state between runs).  How long a case takes
is not recorded: ``benchmarks/ledger`` owns timing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.bench.schema import GATED_COUNTERS, SCHEMA_VERSION
from repro.sim.fastpath import STATS


class FingerprintMismatch(RuntimeError):
    """Two runs of one case disagreed on its fingerprint or counters."""


@dataclass(frozen=True, slots=True)
class BenchCase:
    """One bench case: a workload, run bare at full size and with
    ``smoke_kw`` at smoke (CI) size."""

    workload: Callable[..., Any]
    smoke_kw: dict[str, Any]


# case workloads (imports deferred: the CLI checks its inputs first)
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


def _byzantine(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.byzantine import byz_scaling

    return [
        {
            **asdict(p),
            "update_mean_D": round(p.update_mean_D, 6),
            "scan_mean_D": round(p.scan_mean_D, 6),
        }
        for p in byz_scaling(**kw)
    ]


def _contender_latency(**kw: Any) -> list[dict[str, Any]]:
    from repro.harness.contenders import contender_latency

    return [row.as_dict() for row in contender_latency(**kw)]


def _shard_throughput(**kw: Any) -> dict[str, Any]:
    from repro.shard.bench import shard_throughput

    return shard_throughput(**kw)


def _shard_scan_tail(**kw: Any) -> dict[str, Any]:
    from repro.shard.bench import shard_scan_tail

    return shard_scan_tail(**kw)


CASES: dict[str, BenchCase] = {
    # Table I staircase + amortized columns (constant delay D)
    "table1": BenchCase(_table1, dict(k=4, amortized_ops=6)),
    # SCAN latency vs k under the failure-chain staircase
    "scale_k": BenchCase(_scale_k, dict(ks=(1, 3, 6))),
    # double-collect critique under seeded random delays
    "interference": BenchCase(_interference, dict(ns=(5,))),
    # honest latency vs #Byzantine nodes (tag flooder)
    "byzantine": BenchCase(_byzantine, dict(byz_counts=(0, 1), ops_per_honest=1)),
    # BFK / IMPR / Delporte / EQ-ASO: failure-free, c-ramp, staircase, envelope
    "contender_latency": BenchCase(
        _contender_latency, dict(c_values=(1, 4), k=3, envelope_ns=(3, 5))
    ),
    # sharded ops per D of makespan vs one shard and one object
    "shard_throughput": BenchCase(
        _shard_throughput, dict(ops=150, baseline_ops=60, keys=64)
    ),
    # sharded open-loop p50/p95/p99 per lane, with composite scans
    "shard_scan_tail": BenchCase(_shard_scan_tail, dict(ops=120, keys=64)),
}


def run_case(case: BenchCase, *, smoke: bool) -> dict[str, Any]:
    """Run one case once: its metric fingerprint and gated counters."""
    before = STATS.counters()
    metrics = case.workload(**(case.smoke_kw if smoke else {}))
    after = STATS.counters()
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    entry: dict[str, Any] = {
        "fingerprint_sha256": hashlib.sha256(canonical.encode()).hexdigest()
    }
    entry.update((key, after[key] - before[key]) for key in GATED_COUNTERS)
    return entry


def run_bench(
    case_names: list[str] | None = None, *, smoke: bool = False
) -> dict[str, Any]:
    """Run the selected cases (default: all), each twice; build the report.

    Raises:
        FingerprintMismatch: the two runs of a case disagree.
    """
    cases: dict[str, Any] = {}
    for name in case_names or CASES:
        first = run_case(CASES[name], smoke=smoke)
        second = run_case(CASES[name], smoke=smoke)
        if first != second:
            drifted = [key for key in first if first[key] != second[key]]
            raise FingerprintMismatch(f"{name}: two runs disagree on {drifted}")
        cases[name] = first
    mode = "smoke" if smoke else "full"
    return {"schema_version": SCHEMA_VERSION, "mode": mode, "cases": cases}


__all__ = ["BenchCase", "CASES", "FingerprintMismatch", "run_bench", "run_case"]

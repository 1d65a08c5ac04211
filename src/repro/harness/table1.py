"""Regeneration of Table I — the paper's central comparison.

For each of the eight algorithms we measure, in units of ``D``:

- **worst-case UPDATE / SCAN**: the larger of the latency of a victim
  operation under (i) the failure-chain staircase adversary
  (:func:`repro.harness.adversary.staircase_plan`) and (ii) the
  concurrency/interference adversary (all other nodes streaming updates);
- **amortized UPDATE / SCAN**: mean per-op latency of a long back-to-back
  sequence at the victim under the chain adversary (the chains fire once,
  then their crashed nodes can no longer delay anything — the paper's
  second observation in Sec. III-F — so the mean converges to O(D)).

The *shape* (who wins, how entries grow with ``k`` and ``n``) is the
reproducible content; absolute constants depend on the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.chaos.algos import CAMPAIGN_ALGOS
from repro.harness.adversary import (
    interference_run,
    staircase_mean_latency,
    staircase_victim_latency,
)
from repro.sim.rng import SeededRng

#: row label -> :data:`~repro.chaos.algos.CAMPAIGN_ALGOS` key
ALGORITHMS: dict[str, str] = {
    "Delporte et al. [19]": "delporte",
    "Store-collect [12]": "store_collect",
    "SCD-broadcast [29]": "scd",
    "LA-based [41,42]+[11]": "la_based",
    "BFK fast snapshot [2408.02562]": "bfk",
    "IMPR registers [1702.08176]": "impr",
    "EQ-ASO [this paper]": "eq_aso",
    "SSO-Fast-Scan [this paper]": "sso_fast_scan",
}


@dataclass(slots=True)
class Table1Row:
    algorithm: str
    update_worst: float
    update_amortized: float
    scan_worst: float
    scan_amortized: float

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "update_worst_D": round(self.update_worst, 2),
            "update_amortized_D": round(self.update_amortized, 2),
            "scan_worst_D": round(self.scan_worst, 2),
            "scan_amortized_D": round(self.scan_amortized, 2),
        }


def run_table1(
    *,
    k: int = 10,
    amortized_ops: int = 25,
    interference_n: int = 9,
    seed: int = 42,
    interference: bool = True,
) -> list[Table1Row]:
    """Measure all four Table I columns for all eight algorithms.

    ``seed`` drives the interference wave's delay model (via
    :mod:`repro.sim.rng`); the chain/staircase columns are adversarial
    schedules and take no randomness.

    ``interference=False`` restricts the worst-case columns to the
    failure-chain staircase (the lockstep, constant-delay adversary).
    ``python -m repro.bench`` uses this mode for its ``table1`` case; the
    random-delay interference column is fingerprinted by the dedicated
    ``interference`` bench case instead.
    """
    rows: list[Table1Row] = []
    for name, algo in ALGORITHMS.items():
        upd_worst = staircase_victim_latency(algo, "update", k)
        scan_worst = staircase_victim_latency(algo, "scan", k)
        if interference:
            # under the staggered update wave, an update's worst case is
            # the victim's or a writer's, a scan's the victim's
            factory = CAMPAIGN_ALGOS[algo].factory
            upd = interference_run(
                factory, interference_n, "update", SeededRng(seed).child("d")
            )
            scan, _ = interference_run(
                factory, interference_n, "scan", SeededRng(seed).child("d")
            )
            upd_worst = max(upd_worst, *upd)
            scan_worst = max(scan_worst, scan)
        rows.append(
            Table1Row(
                algorithm=name,
                update_worst=upd_worst,
                update_amortized=staircase_mean_latency(algo, "update", k, amortized_ops),
                scan_worst=scan_worst,
                scan_amortized=staircase_mean_latency(algo, "scan", k, amortized_ops),
            )
        )
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    header = (
        f"{'Algorithm':30s} {'UPDATE worst':>13s} {'UPDATE amort':>13s} "
        f"{'SCAN worst':>11s} {'SCAN amort':>11s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.algorithm:30s} {row.update_worst:>12.2f}D "
            f"{row.update_amortized:>12.2f}D {row.scan_worst:>10.2f}D "
            f"{row.scan_amortized:>10.2f}D"
        )
    return "\n".join(lines)


__all__ = ["ALGORITHMS", "Table1Row", "run_table1", "format_table1"]

"""Experiment harness — regenerates every table and figure of the paper.

Experiment index (see DESIGN.md §5 and EXPERIMENTS.md for results):

- ``table1``   — Table I: worst-case and amortized UPDATE/SCAN time for
  all six algorithms, measured in units of ``D``;
- ``fig1``     — Figure 1: the example history, its sequentialization and
  linearization;
- ``fig2``     — Figure 2: the one-shot EQ-ASO execution (V vectors, EQ
  predicate, bases);
- ``scale_k``  — Sec. III-F: scan latency vs number of failures ``k``
  under the failure-chain adversary (the √k curve);
- ``amortized`` — amortized O(D) with Ω(√k) operations;
- ``failure_free`` — constant time for all algorithms when k = 0;
- ``byzantine`` — Byzantine ASO latency vs number of Byzantine nodes;
- ``ablations`` — T1/T2/phase-0 ablation probes;
- ``la``       — early-stopping LA vs classifier LA.

Run ``python -m repro.harness [experiment ...]`` to print the results.
"""

from repro.harness.metrics import LatencyStats, summarize
from repro.harness.adversary import (
    interference_schedule,
    staircase_plan,
    staircase_victim_latency,
)
from repro.harness.registry import EXPERIMENTS, run_experiment

__all__ = [
    "LatencyStats",
    "summarize",
    "interference_schedule",
    "staircase_plan",
    "staircase_victim_latency",
    "EXPERIMENTS",
    "run_experiment",
]

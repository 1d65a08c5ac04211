"""Determinism and fingerprint gate for the paper-facing numbers (``repro.bench``).

Every number this repo reproduces from the paper is model time in units
of ``D`` — a pure function of seed and size.  ``python -m repro.bench``
runs seven registry experiments, twice each, and records per case the
SHA-256 of its paper-facing metrics (canonical JSON) and the seven
deterministic counters of the run (kernel events, messages, EQ row
work); two runs that disagree fail.  ``--baseline`` compares that report
exactly against a checked-in one of the same mode and names each
drifted ``case.key``.  How fast the numbers are produced is not a paper
quantity: ``benchmarks/ledger`` (``BENCHMARK.json``) is the one timer.

Two reports are checked in: ``BENCH_macro.json`` (full size; CI gates
against it) and ``BENCH_macro.smoke.json`` (``--smoke``), which the
tier-1 whole-run oracle (``tests/bench/test_oracle.py``) gates against
while it compares each case with the reference substrate.  The cases —
``table1``, ``scale_k``, ``interference``, ``byzantine``,
``contender_latency``, ``shard_throughput``, ``shard_scan_tail`` — are
:data:`~repro.bench.runner.CASES`.
"""

from repro.bench.runner import CASES, BenchCase, FingerprintMismatch, run_bench
from repro.bench.schema import GATED_COUNTERS, SCHEMA_VERSION, validate_report

__all__ = [
    "CASES",
    "BenchCase",
    "FingerprintMismatch",
    "GATED_COUNTERS",
    "SCHEMA_VERSION",
    "run_bench",
    "validate_report",
]

"""Macro-benchmark harness for the simulation substrate (``repro.bench``).

``python -m repro.bench`` runs the registry experiments end-to-end,
fingerprints the paper-facing metrics each produces (canonical JSON,
SHA-256) and records the deterministic counters of the run (kernel
events, messages, EQ row work).  It is a **determinism and fingerprint
gate**: repeats of one case must agree bit for bit, and ``--baseline``
compares fingerprints and counters exactly against a checked-in report
of the same mode.  Wall-clock is printed but never gated — the numbers
(absolute, per layer, with regression bounds) are ``benchmarks/ledger``'s
job; see ``BENCHMARK.json``.

Two reports are checked in: ``BENCH_macro.json`` (full size) and
``BENCH_macro.smoke.json`` (``--smoke``; CI's bench-smoke job gates
against it).  The comparison of whole runs against the reference
queue/network/view plane is a tier-1 test (``tests/bench/test_oracle.py``).

Cases
-----

``table1``
    The lockstep Table I columns (failure-chain staircase + amortized
    sequences, constant delay ``D``) — ``run_table1(interference=False)``.
``scale_k``
    SCAN latency vs ``k`` under the staircase, up to ``k = 21``.
``interference``
    The double-collect critique experiment (seeded *random* delays — the
    adversarial case for the burst lane and batching).
``byzantine``
    Honest latency vs the number of Byzantine nodes.
"""

from repro.bench.runner import (
    CASES,
    BenchCase,
    BenchError,
    FingerprintMismatch,
    run_bench,
)
from repro.bench.schema import SCHEMA_VERSION, validate_report

__all__ = [
    "CASES",
    "BenchCase",
    "BenchError",
    "FingerprintMismatch",
    "SCHEMA_VERSION",
    "run_bench",
    "validate_report",
]

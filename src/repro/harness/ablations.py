"""Ablation experiments: each EQ-ASO design choice is load-bearing.

DESIGN.md calls out three mechanisms whose purpose the paper explains but
never measures; the ablations demonstrate them:

- **T1 (tag recheck, line 17)** — without it, a lattice operation returns
  an equivalence set for a stale tag while newer tags exist; under
  concurrency this produces incomparable views → the Theorem 1 checker
  flags linearizability violations.
- **T2 (borrowing, lines 26–30)** — without it, an operation facing a
  stream of concurrent updates keeps renewing its lattice operation; its
  latency grows with the interference instead of being capped at three
  renewals (the amortized O(D) claim dies).
- **phase-0 (line 7)** — without it, the guarantee that *every tag has a
  good lattice operation* is lost, so the borrow at line 29 can wait for
  a ``goodLA`` that never comes: the run deadlocks (detected by the
  cluster's :class:`~repro.runtime.cluster.StuckError` liveness probe).

Each ablation runs a randomized workload over several seeds and reports
how many seeds exhibit the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.mutants import ABLATIONS
from repro.chaos.plan import ChaosPlan, OpChainSpec
from repro.harness.adversary import interference_wave, run_checked
from repro.harness.workloads import random_workload
from repro.net.delays import UniformDelay
from repro.runtime.cluster import Cluster, StuckError
from repro.sim.rng import SeededRng
from repro.spec import is_linearizable


@dataclass(slots=True)
class AblationReport:
    name: str
    seeds: int
    safety_violations: int
    liveness_deadlocks: int
    baseline_latency_D: float
    ablated_latency_D: float


def _run_randomized(factory, seed: int, *, n: int = 4, f: int = 1):
    """One randomized run; returns (linearizable, stuck, max_latency_D).

    The configuration (n=4, f=1, 6 ops/node, near-zero minimum delay) is
    the one a seed search found to exercise the tightest interleavings --
    e.g. seeds 51 and 86 deadlock the no-phase0 ablation."""
    rng = SeededRng(seed)
    cluster = Cluster(
        factory,
        n=n,
        f=f,
        delay_model=UniformDelay(1.0, rng.child("d"), lo=0.02),
    )
    handles = random_workload(
        cluster,
        rng.child("w"),
        ops_per_node=6,
        scan_prob=0.5,
        start_spread=1.0,
        gap_spread=0.3,
    )
    try:
        cluster.run_until_complete(handles)
    except StuckError:
        return (True, True, float("nan"))
    ok = is_linearizable(cluster.history)
    worst = max((h.latency / cluster.D for h in handles if h.done), default=0.0)
    return (ok, False, worst)


def interference_plan(algo: str, n: int = 7) -> ChaosPlan:
    """The T2 probe: a victim scan at node 0 from t = 2.5 (the plan's
    last op) under ``n − 1`` staggered writers of four updates each."""
    wave = interference_wave(n, updates_per_writer=4)
    scan = OpChainSpec(0, (("scan", None),), start=2.5)
    return ChaosPlan(algo, n, (n - 1) // 2, seed=0, workload=wave + (scan,))


def crafted_t1_race(factory=None):
    """An *attempted* reconstruction of the Lemma 2 cross-tag race — the
    counterexample the paper defers to its technical report ("this
    solution does not ensure comparability... [25] presents such an
    example").

    The schedule isolates value ``v`` (tag 1) on a minority of nodes by
    slowing its deliveries, pumps the tag past 1 with helper updates on
    clean channels, and fires concurrent scans whose lattice operations
    run at tags 1 and 2 — the configuration in which, per Lemma 2, only
    the line-17 recheck (T1) keeps the returned views comparable.

    **Finding**: in this implementation the race cannot be completed, and
    the run stays linearizable even with T1 disabled.  Two mechanisms
    close every variant we constructed:

    1. *Row-quorum counting* — a view containing ``v`` needs ``n − f``
       rows carrying ``v`` and a view excluding it needs ``n − f`` rows
       never carrying it; the quorums intersect (``2(n−f) > n``), and the
       common node's FIFO broadcast order makes the tag-restricted rows
       it contributes consistent.
    2. *FIFO poisoning* — any node holding the slow value has every
       outgoing channel clamped behind its own forward of it, freezing
       the node out of concurrent quorum interactions; a value cannot be
       both "exposed on few nodes" and "absent from an operating quorum's
       channels".

    We conjecture (no proof attempted) that under reliable FIFO channels
    with broadcast-forwarding this implementation is safe without T1;
    the check remains essential to the paper's proof and is kept enabled.
    This function is retained as a regression probe: it returns the
    Theorem 1 violations of the run (expected empty for both the intact
    and the ablated algorithm) together with the op handles.
    """
    from repro.core.eq_aso import EqAso
    from repro.core.messages import MValue
    from repro.net.delays import AdversarialDelay
    from repro.spec import check_atomicity_conditions

    factory = factory or EqAso
    A, B, W1, W2, C = 0, 1, 2, 3, 4

    def delays(src, dst, payload, now):
        if isinstance(payload, MValue) and payload.vt.writer == W1 and dst != A:
            return 1.0  # v crawls to everyone but A
        return 0.02

    cluster = Cluster(
        factory, n=5, f=2, delay_model=AdversarialDelay(1.0, delays)
    )
    # W1's own channels (and A's, once A forwards v) are FIFO-poisoned by
    # the slow v, so the tag pump must run on clean channels: W2 writes w
    # at tag 1, C writes x at tag 2.  A reads tag 1 just before C's
    # writeTag(2) reaches it; B reads tag 2 and decides with view {w, x}.
    handles = [
        cluster.invoke_at(0.0, W1, "update", "v"),
        cluster.invoke_at(0.1, W2, "update", "w"),
        cluster.invoke_at(0.2, A, "scan"),
        cluster.invoke_at(0.25, C, "update", "x"),
        cluster.invoke_at(0.5, B, "scan"),
    ]
    cluster.run_until_complete(handles)
    violations = check_atomicity_conditions(cluster.history)
    return violations, handles


def run_ablation(name: str, seeds: int = 100) -> AblationReport:
    """Run one ablation (an :data:`~repro.chaos.mutants.ABLATIONS` key)
    across ``seeds`` randomized executions, plus the T2 probe."""
    ablated = ABLATIONS[name].factory
    violations = 0
    deadlocks = 0
    for seed in range(seeds):
        ok, stuck, _ = _run_randomized(ablated, seed)
        if stuck:
            deadlocks += 1
        elif not ok:
            violations += 1
    baseline_lat = run_checked(interference_plan("eq_aso")).handles[-1].latency
    ablated_lat = run_checked(interference_plan(name)).handles[-1].latency
    return AblationReport(
        name=name,
        seeds=seeds,
        safety_violations=violations,
        liveness_deadlocks=deadlocks,
        baseline_latency_D=baseline_lat,
        ablated_latency_D=ablated_lat,
    )


def run_all_ablations(seeds: int = 100) -> list[AblationReport]:
    return [run_ablation(name, seeds) for name in ABLATIONS]


__all__ = [
    "AblationReport",
    "crafted_t1_race",
    "interference_plan",
    "run_ablation",
    "run_all_ablations",
]

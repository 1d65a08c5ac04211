"""Adversarial schedules: the worst cases of Sec. III-F, made executable.

Two adversaries drive the Table I measurements:

- :func:`staircase_plan` — the failure-chain construction behind the
  :math:`O(\\sqrt{k}\\,D)` bound (Definitions 10–11), as a
  :class:`~repro.chaos.plan.ChaosPlan`.  With a budget of ``k`` crashes
  it builds ``m ≈ √(2k)`` chains of lengths ``1, 2, …, m`` (chain ``j``
  burns ``j`` faulty nodes), all terminating at the victim node.  Chain
  ``j``'s value stays *exposed* until hop ``j`` completes, so a fresh
  exposed value lands on the victim every ``D`` for ``m·D`` time — each
  arrival re-breaks the victim's equivalence quorum.  An EQ-ASO
  operation at the victim therefore takes ``Θ(√k · D)``; the paper
  proves no adversary can do better than this staircase against EQ-ASO
  (Lemmas 6–8: chains of distinct exposure spans use disjoint faulty
  nodes).

- :func:`interference_wave` — the concurrency adversary for the
  pull-based baselines: every node except the victim issues back-to-back
  UPDATEs while the victim SCANs (:func:`interference_run` runs it under
  seeded random delays).  Each concurrent update invalidates one
  confirmation/double-collect round, so [19]- and [12]-style scans pay
  ``Θ(c · D)`` with ``c`` concurrent writers (``c = n − 1`` ⇒ the paper's
  ``O(n · D)``), while EQ-ASO completes in ``O(D)`` amortized under the
  same load (technique T2 caps renewals at three before borrowing).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Sequence

from repro.chaos.plan import ChainCrashSpec, ChaosPlan, DelaySpec, OpChainSpec
from repro.chaos.runner import ExecutionResult, run_plan
from repro.net.delays import UniformDelay
from repro.obs.metrics import MetricsRegistry
from repro.runtime.cluster import Cluster, OpHandle
from repro.sim.rng import SeededRng

#: the node whose operations the staircase delays
VICTIM = 0

#: when :func:`quiet_plan`'s ops arrive: 40·D apart, long after the
#: previous op has settled and its echoes have drained
QUIET = 40.0


class ExperimentCheckError(RuntimeError):
    """A fact an experiment checks did not hold: a caption fact of a
    figure, or the safety or liveness of a lockstep plan's run
    (:func:`run_checked`)."""


def max_chains_for_budget(k: int) -> int:
    """Largest m with 1 + 2 + … + m ≤ k."""
    m = int((math.isqrt(8 * k + 1) - 1) // 2)
    return m


def staircase_plan(algo: str, k: int) -> ChaosPlan:
    """The √k staircase for a crash budget of ``k`` against ``algo`` (a
    :data:`~repro.chaos.algos.CAMPAIGN_ALGOS` key), as replayable data.

    Chain ``j`` (``j = 1..m``) is ``j`` faulty nodes ending at
    :data:`VICTIM`; every member crashes while (re)broadcasting *that
    chain's* value — Definition 11's crash mode — delivering it only to
    the next member.  The cluster is ``n = 2k + 3``, ``f = k``: the
    chains, the victim and two spare correct nodes for the tag pumps.

    Orchestration (D = 1; the adversary may pick any delay ≤ D per
    message, so "fast" background traffic is legal):

    1. node ``n − 1`` completes an UPDATE (``pump-1``) at t = 0 over fast
       links, raising the system tag to 1;
    2. the chain heads invoke their doomed UPDATEs at t = 1: they read
       tag 1 and broadcast values tagged 2, crashing mid-broadcast.  The
       ``doomed`` delay kind gives every message carrying a chain head's
       value the full D — the chain hops and the post-exposure
       stabilization traffic alike — so chain ``j``'s value reaches the
       victim at ≈ (1 + j)·D and needs 2·D more to re-stabilize the
       victim's equivalence rows; everything else takes 0.05·D;
    3. node ``n − 2`` updates (``pump-2``) at t = 1.2, after the heads
       have read their tag, pushing the readable tag to 2 so the victim's
       lattice operation is bound to the tag window containing the
       exposed values (DESIGN §7 finding 7).

    The victim's operations start at t = 2.0 (:func:`run_staircase`),
    just after the first exposure lands: consecutive exposures arrive D
    apart while each needs 2·D to settle, so the equivalence quorum stays
    broken until the last chain settles — ``(m + 1.1)``·D for EQ-ASO
    (EXPERIMENTS SCALE-K).  Baselines under the same adversary measure
    whatever they measure (several are insensitive to chains;
    EXPERIMENTS.md discusses it).
    """
    if k < 1:
        raise ValueError("need a crash budget of at least 1")
    chains: list[tuple[int, ...]] = []
    next_node = VICTIM + 1
    for j in range(1, max_chains_for_budget(k) + 1):
        chains.append(tuple(range(next_node, next_node + j)) + (VICTIM,))
        next_node += j
    n = 2 * k + 3
    return ChaosPlan(
        algo=algo,
        n=n,
        f=k,
        seed=0,
        delay=DelaySpec("doomed", lo=0.05),
        crashes=tuple(ChainCrashSpec(chain) for chain in chains),
        workload=(
            OpChainSpec(n - 1, (("update", "pump-1"),), start=0.0),
            *(
                OpChainSpec(chain[0], (("update", f"doomed{chain[0]}"),), start=1.0)
                for chain in chains
            ),
            OpChainSpec(n - 2, (("update", "pump-2"),), start=1.2),
        ),
    )


def quiet_plan(algo: str, n: int, *ops: tuple[int, str, Any]) -> ChaosPlan:
    """A failure-free lockstep plan on ``n`` nodes (``f = ⌊(n−1)/2⌋``):
    op ``i`` — ``(node, kind, value)`` — arrives at ``t = i·QUIET``, on a
    quiet network, so each op's latency and message bill are its own."""
    return ChaosPlan(
        algo,
        n,
        (n - 1) // 2,
        seed=0,
        workload=tuple(
            OpChainSpec(node, ((kind, value),), start=i * QUIET)
            for i, (node, kind, value) in enumerate(ops)
        ),
    )


def run_checked(plan: ChaosPlan, *, tracer: Any = None) -> ExecutionResult:
    """Run ``plan`` with :func:`~repro.chaos.runner.run_plan`, the one
    executor behind every lockstep experiment.  A run whose history fails
    the order check (the error names the violated condition), or whose
    live ops do not all finish, raises :class:`ExperimentCheckError` (the
    plan replays with ``python -m repro.chaos --plan``)."""
    result = run_plan(plan, tracer=tracer)
    if result.failure is not None:
        named = "" if result.condition is None else f"; {result.condition}"
        raise ExperimentCheckError(
            f"{plan.algo} n={plan.n} plan: [{result.failure.kind}] "
            f"{result.failure.detail}{named}"
        )
    return result


def run_staircase(
    algo: str, k: int, ops: Sequence[tuple[str, Any]]
) -> list[OpHandle]:
    """Run ``ops`` (``("update", value)`` / ``("scan", None)``) back to
    back at the victim from t = 2.0 under :func:`staircase_plan` and
    return their handles (latencies in D), through :func:`run_checked`."""
    plan = staircase_plan(algo, k)
    victim = OpChainSpec(VICTIM, tuple(ops), start=2.0)
    result = run_checked(replace(plan, workload=plan.workload + (victim,)))
    return result.handles[-len(ops):]


def staircase_victim_latency(algo: str, kind: str, k: int) -> float:
    """Latency (in D) of one victim ``kind`` operation under the full √k
    worst-case scenario of Sec. III-F (:func:`staircase_plan`)."""
    op = ("update", "victim-value") if kind == "update" else ("scan", None)
    (handle,) = run_staircase(algo, k, [op])
    return handle.latency


def staircase_mean_latency(algo: str, kind: str, k: int, ops: int) -> float:
    """Mean latency (in D) of ``ops`` back-to-back victim ``kind``
    operations under :func:`staircase_plan` — the amortized measure."""
    if kind == "update":
        chain = [("update", f"vic{i}") for i in range(ops)]
    else:
        chain = [("scan", None)] * ops
    handles = run_staircase(algo, k, chain)
    registry = MetricsRegistry.from_handles(handles, 1.0)  # plans run at D = 1
    return registry.histogram(f"latency_D.{kind}").mean


def interference_wave(n: int, *, updates_per_writer: int) -> tuple[OpChainSpec, ...]:
    """The concurrency adversary's writers: every node except
    :data:`VICTIM` issues ``updates_per_writer`` back-to-back updates,
    the ``i``-th writer from ``t = i``.

    The staggering is what makes the pull-based baselines pay linearly: a
    fresh write lands every D for ``≈ n·D`` in total, and each landing
    invalidates one confirmation/double-collect round — so a [19]- or
    [12]-style scan only completes once the wave has passed, ``Θ(n·D)``
    later.
    """
    writers = [node for node in range(n) if node != VICTIM]
    return tuple(
        OpChainSpec(
            node,
            tuple(("update", f"w{node}.{i}") for i in range(updates_per_writer)),
            start=float(position),
        )
        for position, node in enumerate(writers)
    )


def interference_run(
    factory: Any, n: int, kind: str, delays: SeededRng, *, updates_per_writer: int = 3
) -> tuple[float, float]:
    """The victim's latency and the worst in the wave (in D) when one
    ``kind`` op at :data:`VICTIM` starts mid-wave (t = 2.5) under
    :func:`interference_wave` on ``n`` nodes, delays drawn uniformly from
    ``[0.25, 1]·D`` out of ``delays``.  A hand-built cluster, not a plan:
    under lockstep delays the confirmation rounds align and the
    interference vanishes, which would understate the pull-based cost.
    """
    cluster = Cluster(
        factory, n=n, f=(n - 1) // 2, delay_model=UniformDelay(1.0, delays, lo=0.25)
    )
    wave: list[OpHandle] = []
    for chain in interference_wave(n, updates_per_writer=updates_per_writer):
        ops = [(op, (value,)) for op, value in chain.ops]
        wave.extend(cluster.chain_ops(chain.node, ops, start=chain.start))
    args = ("victim-value",) if kind == "update" else ()
    victim = cluster.invoke_at(2.5, VICTIM, kind, *args)
    cluster.run_until_complete(wave + [victim])
    worst = max(h.latency / cluster.D for h in wave if h.done)
    return victim.latency / cluster.D, worst


__all__ = [
    "QUIET",
    "VICTIM",
    "ExperimentCheckError",
    "interference_run",
    "interference_wave",
    "max_chains_for_budget",
    "quiet_plan",
    "run_checked",
    "run_staircase",
    "staircase_mean_latency",
    "staircase_plan",
    "staircase_victim_latency",
]

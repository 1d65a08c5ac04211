"""Seeded random generation of chaos plans.

Every choice flows from one :class:`~repro.sim.rng.SeededRng` rooted at
the plan seed, through labelled child streams (``faults``, ``workload``,
``delays``, ``byz``) — so the same seed always yields byte-identical
plans, and adding a new draw to one stream never perturbs the others
(the repo's seed-hygiene rule, RL001).

A generated plan mixes, under a total fault budget of ``f``:

- **timed crashes** (:class:`TimedCrashSpec`) at random instants;
- **mid-broadcast truncations** (:class:`BcastCrashSpec`) with random
  surviving subsets, firing on a random later broadcast;
- **failure chains** (:class:`ChainCrashSpec`) — the Definition-11
  worst-case construction, with the chain head guaranteed a doomed
  UPDATE as its first operation;
- **Byzantine behaviours** (profiles that support them), drawn from the
  full attack repertoire including equivocation;
- a randomized concurrent UPDATE/SCAN workload over the remaining
  nodes, plus one of three delay adversaries (lockstep, uniform jitter,
  targeted slow-sources).
"""

from __future__ import annotations

from repro.chaos.algos import BYZ_BEHAVIOURS, AlgoProfile
from repro.chaos.plan import (
    BcastCrashSpec,
    ByzSpec,
    ChainCrashSpec,
    ChaosPlan,
    CrashLike,
    DelaySpec,
    OpChainSpec,
    TimedCrashSpec,
)
from repro.sim.rng import SeededRng

#: latest instant at which generated workload chains start / crashes fire
_TIME_HORIZON = 8.0
#: the chance that a generated op is a scan
_SCAN_PROB = 0.5


def generate_plan(
    profile: AlgoProfile,
    seed: int,
    *,
    max_ops_per_node: int = 3,
) -> ChaosPlan:
    """Draw one random adversarial execution for ``profile`` from ``seed``."""
    rng = SeededRng(seed)
    n, f = profile.n, profile.f

    # -- Byzantine nodes (budgeted against f) --------------------------
    byz: list[ByzSpec] = []
    if profile.supports_byzantine:
        byz_rng = rng.child("byz")
        num_byz = byz_rng.randint(0, f)
        names = sorted(BYZ_BEHAVIOURS)
        for node in sorted(byz_rng.sample(range(n), num_byz)):
            byz.append(ByzSpec(node, byz_rng.choice(names)))
    byz_nodes = {spec.node for spec in byz}
    budget = f - len(byz)

    # -- crash faults --------------------------------------------------
    fault_rng = rng.child("faults")
    crashes: list[CrashLike] = []
    claimed: set[int] = set(byz_nodes)
    honest = [node for node in range(n) if node not in byz_nodes]

    # maybe a failure chain first (it is the most structured fault and
    # consumes len-1 budget); chain nodes must all be currently unclaimed
    if budget >= 1 and len(honest) >= 3 and fault_rng.random() < 0.35:
        max_len = min(budget + 1, len(honest) - 1)
        if max_len >= 2:
            length = fault_rng.randint(2, max_len)
            chain = tuple(fault_rng.sample(honest, length))
            crashes.append(ChainCrashSpec(chain))
            claimed.update(chain[:-1])
            budget -= length - 1

    # timed / mid-broadcast crashes with the remaining budget
    free = [node for node in range(n) if node not in claimed]
    num_plain = fault_rng.randint(0, min(budget, len(free)))
    for node in sorted(fault_rng.sample(free, num_plain)):
        if fault_rng.random() < 0.5:
            crashes.append(
                TimedCrashSpec(node, fault_rng.uniform(0.0, _TIME_HORIZON))
            )
        else:
            others = [x for x in range(n) if x != node]
            keep = tuple(
                sorted(
                    fault_rng.sample(others, fault_rng.randint(0, len(others) - 1))
                )
            )
            crashes.append(
                BcastCrashSpec(node, deliver_to=keep, nth=fault_rng.randint(1, 6))
            )
        claimed.add(node)

    # -- delay adversary ----------------------------------------------
    delay_rng = rng.child("delays")
    roll = delay_rng.random()
    if roll < 0.3:
        delay = DelaySpec(kind="constant")
    elif roll < 0.8:
        delay = DelaySpec(kind="uniform", lo=delay_rng.uniform(0.02, 0.5))
    else:
        num_slow = delay_rng.randint(1, max(1, n // 2))
        slow = tuple(sorted(delay_rng.sample(range(n), num_slow)))
        delay = DelaySpec(
            kind="targeted", lo=delay_rng.uniform(0.02, 0.2), slow_sources=slow
        )

    # -- workload ------------------------------------------------------
    work_rng = rng.child("workload")
    chains: list[OpChainSpec] = []
    chain_heads = {
        spec.chain[0] for spec in crashes if isinstance(spec, ChainCrashSpec)
    }
    for node in honest:
        ops: list[tuple[str, str | None]] = []
        count = work_rng.randint(1, max_ops_per_node)
        for i in range(count):
            if work_rng.random() < _SCAN_PROB:
                ops.append(("scan", None))
            else:
                ops.append(("update", f"c{node}.{i}"))
        if node in chain_heads:
            # the chain head must broadcast its doomed value for the
            # chain to crawl — force an update up front
            ops[0] = ("update", f"doom{node}")
        chains.append(
            OpChainSpec(
                node=node,
                ops=tuple(ops),
                start=round(work_rng.uniform(0.0, _TIME_HORIZON / 2), 3),
                gap=round(work_rng.uniform(0.0, 1.5), 3),
            )
        )

    return ChaosPlan(
        algo=profile.name,
        n=n,
        f=f,
        seed=seed,
        delay=delay,
        crashes=tuple(crashes),
        workload=tuple(chains),
        byzantine=tuple(byz),
    )


__all__ = ["generate_plan"]

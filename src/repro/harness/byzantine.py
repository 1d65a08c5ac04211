"""Byzantine experiments (BYZ-K): the ``O(k·D)`` degradation claim.

Measures honest-node operation latency as the number of *active*
Byzantine nodes grows, for each attack behaviour in the repertoire
(:data:`repro.chaos.algos.BYZ_BEHAVIOURS`), and verifies that every
resulting honest history stays linearizable (safety is unconditional;
see DESIGN.md §3.3 for the liveness regime).  Every run is a
``byz_aso`` :class:`~repro.chaos.plan.ChaosPlan` whose Byzantine nodes
are the top node ids, one :class:`~repro.chaos.plan.ByzSpec` each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.chaos.algos import BYZ_BEHAVIOURS
from repro.chaos.plan import ByzSpec, ChaosPlan, OpChainSpec
from repro.harness.adversary import run_checked
from repro.obs.metrics import MetricsRegistry


@dataclass(slots=True)
class ByzPoint:
    behaviour: str
    num_byzantine: int
    n: int
    update_mean_D: float
    scan_mean_D: float
    linearizable: bool


Ops = tuple[tuple[str, Any], ...]


def _byz_plan(
    n: int,
    f: int,
    k: int,
    behaviour: str,
    nodes: Sequence[int],
    ops_of: Callable[[int], Ops],
    gap: float,
) -> ChaosPlan:
    """Honest ``nodes`` run ``ops_of(node)``, the ``i``-th from ``i·gap``;
    the top ``k`` node ids are Byzantine."""
    return ChaosPlan(
        "byz_aso",
        n,
        f,
        seed=0,
        workload=tuple(
            OpChainSpec(node, ops_of(node), start=i * gap) for i, node in enumerate(nodes)
        ),
        byzantine=tuple(ByzSpec(n - 1 - i, behaviour) for i in range(k)),
    )


def byz_scaling_plan(
    k: int, behaviour: str, *, n: int, f: int, ops_per_honest: int
) -> ChaosPlan:
    """BYZ-K's run at ``k`` Byzantine nodes: the first
    ``max(4, ops_per_honest)`` honest nodes alternate ``ops_per_honest``
    update/scan pairs, 0.2·D apart."""

    def ops(node: int) -> Ops:
        pairs = ((("update", f"v{node}.{i}"), ("scan", None)) for i in range(ops_per_honest))
        return tuple(op for pair in pairs for op in pair)

    return _byz_plan(n, f, k, behaviour, range(n - k)[: max(4, ops_per_honest)], ops, 0.2)


def byz_scaling(
    byz_counts: Sequence[int] = (0, 1, 2, 3),
    behaviour: str = "tag-flooder",
    ops_per_honest: int = 2,
) -> list[ByzPoint]:
    """Honest op latency vs the number of Byzantine nodes.

    ``n = 3·max(byz) + 4`` is held fixed across the sweep so only the
    number of *actual* faults varies (the paper's ``k``), not the system
    size.
    """
    f_cap = max(byz_counts)
    n = 3 * f_cap + 4
    points: list[ByzPoint] = []
    for k in byz_counts:
        plan = byz_scaling_plan(k, behaviour, n=n, f=f_cap, ops_per_honest=ops_per_honest)
        result = run_checked(plan)
        registry = MetricsRegistry.from_handles(result.handles, 1.0)  # D = 1
        points.append(
            ByzPoint(
                behaviour=behaviour,
                num_byzantine=k,
                n=n,
                update_mean_D=registry.histogram("latency_D.update").mean,
                scan_mean_D=registry.histogram("latency_D.scan").mean,
                linearizable=result.ok,
            )
        )
    return points


def byz_safety_plan(behaviour: str, *, num_byzantine: int, n: int) -> ChaosPlan:
    """One behaviour against three honest nodes, each running
    update/scan/update/scan, 0.3·D apart."""

    def ops(node: int) -> Ops:
        return (("update", f"a{node}"), ("scan", None), ("update", f"b{node}"), ("scan", None))

    nodes = range(min(3, n - num_byzantine))
    return _byz_plan(n, (n - 1) // 3, num_byzantine, behaviour, nodes, ops, 0.3)


def byz_safety_matrix(num_byzantine: int = 1, n: int = 7) -> dict[str, bool]:
    """Run every behaviour once; report per-behaviour linearizability of
    the honest history (all must be True)."""
    return {
        name: run_checked(byz_safety_plan(name, num_byzantine=num_byzantine, n=n)).ok
        for name in BYZ_BEHAVIOURS
    }


__all__ = [
    "ByzPoint",
    "byz_safety_matrix",
    "byz_safety_plan",
    "byz_scaling",
    "byz_scaling_plan",
]

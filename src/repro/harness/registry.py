"""Experiment registry: one row per table/figure/claim (DESIGN.md §5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.chaos.plan import ChaosPlan, OpChainSpec
from repro.harness.ablations import run_all_ablations
from repro.harness.adversary import run_checked
from repro.harness.byzantine import byz_scaling
from repro.harness.contenders import contender_latency, format_contenders
from repro.harness.figures import run_figure1, run_figure2
from repro.harness.messages import format_message_costs, message_costs
from repro.harness.scaling import (
    amortized_curve,
    failure_free,
    interference_scan,
    la_comparison,
    scale_k,
)
from repro.harness.table1 import format_table1, run_table1
from repro.obs import MemorySink, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import derive_seed


@dataclass(slots=True)
class ExperimentResult:
    """Uniform result wrapper for the CLI and EXPERIMENTS.md generation."""

    name: str
    description: str
    payload: Any
    lines: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        header = f"== {self.name}: {self.description} =="
        return "\n".join([header, *self.lines])


class Experiment(NamedTuple):
    """One registry row: ``run(**kwargs)`` measures the payload and
    ``lines(payload)`` formats it.  A ``seeded`` row's workload or delay
    randomness is seed-driven, so the CLI's shared ``--seed`` reaches it;
    the rest are deterministic adversarial schedules."""

    description: str
    run: Callable[..., Any]
    lines: Callable[[Any], list[str]]
    seeded: bool = False


def _curves_lines(curves) -> list[str]:
    lines = []
    for c in curves:
        pts = ", ".join(f"({x:g}, {y:.2f})" for x, y in zip(c.xs, c.ys))
        exp = "n/a" if c.exponent is None else f"{c.exponent:.2f}"
        lines.append(f"{c.label}: [{pts}]  growth exponent ≈ {exp}")
    return lines


def _fig1_lines(res) -> list[str]:
    return [
        "history: " + " ".join(res.history_ops),
        "linearization: " + " < ".join(res.linearization),
        "sequentialization: " + " < ".join(res.sequentialization),
        *("[check] " + c for c in res.checks),
    ]


def _fig2_lines(res) -> list[str]:
    return [
        f"op1 → {res.op1_snapshot}",
        f"op4 → {res.op4_snapshot}",
        f"op6 → {res.op6_snapshot} (waited: {res.op6_had_to_wait})",
        *("[check] " + c for c in res.checks),
    ]


def _failure_free_lines(out) -> list[str]:
    lines = []
    for kind, curves in out.items():
        lines.append(f"[{kind}]")
        lines.extend("  " + line for line in _curves_lines(curves))
    return lines


def _byzantine_lines(points) -> list[str]:
    return [
        f"k={p.num_byzantine} n={p.n} behaviour={p.behaviour}: "
        f"update={p.update_mean_D:.2f}D scan={p.scan_mean_D:.2f}D "
        f"linearizable={p.linearizable}"
        for p in points
    ]


def _ablations_lines(reports) -> list[str]:
    return [
        f"{r.name}: safety violations {r.safety_violations}/{r.seeds}, "
        f"deadlocks {r.liveness_deadlocks}, latency {r.baseline_latency_D:.1f}D → "
        f"{r.ablated_latency_D:.1f}D"
        for r in reports
    ]


def trace_plan(n: int = 5) -> ChaosPlan:
    """The traced run: updates at nodes ``0..n-3`` every 0.5·D from
    t = 0, a scan at node ``n-2`` at t = 1 and one at node ``n-1`` at
    t = 6 on the settled object."""
    ops = [OpChainSpec(i, (("update", f"v{i}"),), start=0.5 * i) for i in range(n - 2)]
    ops.append(OpChainSpec(n - 2, (("scan", None),), start=1.0))
    ops.append(OpChainSpec(n - 1, (("scan", None),), start=6.0))
    return ChaosPlan("eq_aso", n, (n - 1) // 2, seed=0, workload=tuple(ops))


def run_trace(n: int = 5) -> dict[str, Any]:
    """A fully traced failure-free EQ-ASO run: per-phase decomposition and
    the metrics registry — the worked example of EXPERIMENTS.md's
    Observability section (export the same trace to JSONL with
    ``python -m repro.obs demo``)."""
    tracer = Tracer(MemorySink())
    handles = run_checked(trace_plan(n), tracer=tracer).handles
    registry = MetricsRegistry.from_handles(handles, 1.0, spans=tracer.spans)  # D = 1
    return {"tracer": tracer, "registry": registry}


def _trace_lines(out) -> list[str]:
    tracer = out["tracer"]
    lines = [f"{tracer.events_emitted} events, {len(tracer.spans)} spans"]
    for span in tracer.spans:
        parts = ", ".join(
            f"{name}={dur:.2f}D" for name, dur in span.phase_durations(1.0).items()
        )
        lines.append(
            f"op {span.op_id} node {span.node} {span.kind}: "
            f"{span.latency:.2f}D [{parts}] msgs={span.messages}"
        )
    return lines + out["registry"].format_lines()


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(
        "Table I — measured worst/amortized time (in D)",
        run_table1,
        lambda rows: format_table1(rows).splitlines(),
        seeded=True,
    ),
    "fig1": Experiment("Figure 1 — history and its orders", run_figure1, _fig1_lines),
    "fig2": Experiment("Figure 2 — one-shot EQ execution", run_figure2, _fig2_lines),
    "scale_k": Experiment(
        "SCAN latency vs k under the failure-chain staircase (√k claim)",
        scale_k,
        _curves_lines,
    ),
    "amortized": Experiment(
        "mean op latency vs sequence length (amortized O(D) claim)",
        amortized_curve,
        lambda curve: _curves_lines([curve]),
    ),
    "failure_free": Experiment(
        "failure-free latency vs n (constant-time claim)", failure_free, _failure_free_lines
    ),
    "interference": Experiment(
        "scan latency vs n with n−1 concurrent updaters (double-collect critique)",
        interference_scan,
        _curves_lines,
        seeded=True,
    ),
    "byzantine": Experiment(
        "honest latency vs #Byzantine nodes (O(k·D) claim)", byz_scaling, _byzantine_lines
    ),
    "ablations": Experiment(
        "T1/T2/phase-0 ablation probes", run_all_ablations, _ablations_lines
    ),
    "la": Experiment(
        "lattice agreement latency vs k: early-stopping vs classifier",
        la_comparison,
        _curves_lines,
    ),
    "messages": Experiment(
        "per-operation message counts vs n (the bandwidth side of the trade)",
        message_costs,
        format_message_costs,
    ),
    "trace": Experiment(
        "traced EQ-ASO run — per-phase latency accounting (obs subsystem)",
        run_trace,
        _trace_lines,
    ),
    "contenders": Experiment(
        "head-to-head contender race: BFK / IMPR / Delporte / EQ-ASO",
        contender_latency,
        format_contenders,
    ),
}


def run_experiment(
    name: str, *, master_seed: int | None = None, **kwargs: Any
) -> ExperimentResult:
    """Run one registered experiment by name.

    ``master_seed`` is the shared CLI seed: each seeded experiment gets
    an independent child stream via :func:`repro.sim.rng.derive_seed`
    (seed hygiene — adding an experiment never perturbs another's
    randomness).  Rows not marked ``seeded`` ignore it.  An explicit
    ``seed=`` kwarg wins over ``master_seed``.
    """
    try:
        exp = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if master_seed is not None and exp.seeded and "seed" not in kwargs:
        kwargs["seed"] = derive_seed(master_seed, "harness", name)
    payload = exp.run(**kwargs)
    return ExperimentResult(name, exp.description, payload, exp.lines(payload))


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
    "run_trace",
    "trace_plan",
]

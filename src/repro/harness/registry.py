"""Experiment registry: one entry per table/figure/claim (DESIGN.md §5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos.plan import ChaosPlan, OpChainSpec


class ExperimentCheckError(RuntimeError):
    """A fact an experiment checks did not hold: a caption fact of a
    figure, or the safety or liveness of a lockstep plan's run
    (:func:`repro.harness.adversary.run_checked`)."""


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


def _exp_table1(**kw) -> ExperimentResult:
    from repro.harness.table1 import format_table1, run_table1

    rows = run_table1(**kw)
    return ExperimentResult(
        "table1",
        "Table I — measured worst/amortized time (in D)",
        rows,
        format_table1(rows).splitlines(),
    )


def _exp_fig1(**kw) -> ExperimentResult:
    from repro.harness.figures import run_figure1

    res = run_figure1()
    lines = [
        "history: " + " ".join(res.history_ops),
        "linearization: " + " < ".join(res.linearization),
        "sequentialization: " + " < ".join(res.sequentialization),
        *("[check] " + c for c in res.checks),
    ]
    return ExperimentResult("fig1", "Figure 1 — history and its orders", res, lines)


def _exp_fig2(**kw) -> ExperimentResult:
    from repro.harness.figures import run_figure2

    res = run_figure2()
    lines = [
        f"op1 → {res.op1_snapshot}",
        f"op4 → {res.op4_snapshot}",
        f"op6 → {res.op6_snapshot} (waited: {res.op6_had_to_wait})",
        *("[check] " + c for c in res.checks),
    ]
    return ExperimentResult("fig2", "Figure 2 — one-shot EQ execution", res, lines)


def _curves_lines(curves) -> list[str]:
    lines = []
    for c in curves:
        pts = ", ".join(f"({x:g}, {y:.2f})" for x, y in zip(c.xs, c.ys))
        exp = "n/a" if c.exponent is None else f"{c.exponent:.2f}"
        lines.append(f"{c.label}: [{pts}]  growth exponent ≈ {exp}")
    return lines


def _exp_scale_k(**kw) -> ExperimentResult:
    from repro.harness.scaling import scale_k

    curves = scale_k(**kw)
    return ExperimentResult(
        "scale_k",
        "SCAN latency vs k under the failure-chain staircase (√k claim)",
        curves,
        _curves_lines(curves),
    )


def _exp_amortized(**kw) -> ExperimentResult:
    from repro.harness.scaling import amortized_curve

    curve = amortized_curve(**kw)
    return ExperimentResult(
        "amortized",
        "mean op latency vs sequence length (amortized O(D) claim)",
        [curve],
        _curves_lines([curve]),
    )


def _exp_failure_free(**kw) -> ExperimentResult:
    from repro.harness.scaling import failure_free

    out = failure_free(**kw)
    lines = []
    for kind, curves in out.items():
        lines.append(f"[{kind}]")
        lines.extend("  " + line for line in _curves_lines(curves))
    return ExperimentResult(
        "failure_free",
        "failure-free latency vs n (constant-time claim)",
        out,
        lines,
    )


def _exp_interference(**kw) -> ExperimentResult:
    from repro.harness.scaling import interference_scan

    curves = interference_scan(**kw)
    return ExperimentResult(
        "interference",
        "scan latency vs n with n−1 concurrent updaters (double-collect critique)",
        curves,
        _curves_lines(curves),
    )


def _exp_byzantine(**kw) -> ExperimentResult:
    from repro.harness.byzantine import byz_scaling

    points = byz_scaling(**kw)
    lines = [
        f"k={p.num_byzantine} n={p.n} behaviour={p.behaviour}: "
        f"update={p.update_mean_D:.2f}D scan={p.scan_mean_D:.2f}D "
        f"linearizable={p.linearizable}"
        for p in points
    ]
    return ExperimentResult(
        "byzantine", "honest latency vs #Byzantine nodes (O(k·D) claim)", points, lines
    )


def _exp_ablations(**kw) -> ExperimentResult:
    from repro.harness.ablations import run_all_ablations

    reports = run_all_ablations(**kw)
    lines = [
        f"{r.name}: safety violations {r.safety_violations}/{r.seeds}, "
        f"deadlocks {r.liveness_deadlocks}, latency {r.baseline_latency_D:.1f}D → "
        f"{r.ablated_latency_D:.1f}D"
        for r in reports
    ]
    return ExperimentResult(
        "ablations", "T1/T2/phase-0 ablation probes", reports, lines
    )


def _exp_la(**kw) -> ExperimentResult:
    from repro.harness.scaling import la_comparison

    curves = la_comparison(**kw)
    return ExperimentResult(
        "la",
        "lattice agreement latency vs k: early-stopping vs classifier",
        curves,
        _curves_lines(curves),
    )


def trace_plan(n: int = 5) -> ChaosPlan:
    """The traced run: updates at nodes ``0..n-3`` every 0.5·D from
    t = 0, a scan at node ``n-2`` at t = 1 and one at node ``n-1`` at
    t = 6 on the settled object."""
    ops = [OpChainSpec(i, (("update", f"v{i}"),), start=0.5 * i) for i in range(n - 2)]
    ops.append(OpChainSpec(n - 2, (("scan", None),), start=1.0))
    ops.append(OpChainSpec(n - 1, (("scan", None),), start=6.0))
    return ChaosPlan("eq_aso", n, (n - 1) // 2, seed=0, workload=tuple(ops))


def _exp_trace(**kw) -> ExperimentResult:
    """A fully traced failure-free EQ-ASO run: per-phase decomposition and
    the metrics registry — the worked example of EXPERIMENTS.md's
    Observability section (export the same trace to JSONL with
    ``python -m repro.obs demo``)."""
    from repro.harness.adversary import run_checked
    from repro.harness.metrics import collect_registry
    from repro.obs import MemorySink, Tracer

    tracer = Tracer(MemorySink())
    handles = run_checked(trace_plan(kw.get("n", 5)), tracer=tracer).handles
    registry = collect_registry(handles, 1.0, spans=tracer.spans)  # D = 1
    lines = [f"{tracer.events_emitted} events, {len(tracer.spans)} spans"]
    for span in tracer.spans:
        parts = ", ".join(
            f"{name}={dur:.2f}D" for name, dur in span.phase_durations(1.0).items()
        )
        lines.append(
            f"op {span.op_id} node {span.node} {span.kind}: "
            f"{span.latency:.2f}D [{parts}] msgs={span.messages}"
        )
    lines.extend(registry.format_lines())
    return ExperimentResult(
        "trace",
        "traced EQ-ASO run — per-phase latency accounting (obs subsystem)",
        {"tracer": tracer, "registry": registry},
        lines,
    )


def _exp_messages(**kw) -> ExperimentResult:
    from repro.harness.messages import format_message_costs, message_costs

    rows = message_costs(**kw)
    return ExperimentResult(
        "messages",
        "per-operation message counts vs n (the bandwidth side of the trade)",
        rows,
        format_message_costs(rows),
    )


def _exp_contenders(**kw) -> ExperimentResult:
    from repro.harness.contenders import contender_latency, format_contenders

    rows = contender_latency(**kw)
    return ExperimentResult(
        "contenders",
        "head-to-head contender race: BFK / IMPR / Delporte / EQ-ASO",
        rows,
        format_contenders(rows),
    )


def _exp_chaos(**kw) -> ExperimentResult:
    """A small chaos campaign over every healthy algorithm (the full
    sweep lives in ``python -m repro.chaos``; this entry is the
    registry-level smoke hook)."""
    from repro.chaos import CAMPAIGN_ALGOS, run_campaign

    seed = kw.pop("seed", 0)
    seeds = kw.pop("seeds", 2)
    report = run_campaign(
        sorted(CAMPAIGN_ALGOS),
        seed_range=(0, seeds),
        master_seed=seed,
        smoke=True,
        **kw,
    )
    lines = report.summary_lines()
    lines.append(
        f"total: {report.total_executions} executions, "
        f"{report.total_failures} failure(s)"
    )
    return ExperimentResult(
        "chaos",
        "seed-swept adversarial executions with online atomicity checking",
        report,
        lines,
    )


#: experiments whose workload/delay randomness is seed-driven; the CLI's
#: shared ``--seed`` is threaded to exactly these (the rest are
#: deterministic adversarial schedules and take no randomness)
SEEDED_EXPERIMENTS: frozenset[str] = frozenset({"table1", "interference", "chaos"})

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": _exp_table1,
    "fig1": _exp_fig1,
    "fig2": _exp_fig2,
    "scale_k": _exp_scale_k,
    "amortized": _exp_amortized,
    "failure_free": _exp_failure_free,
    "interference": _exp_interference,
    "byzantine": _exp_byzantine,
    "ablations": _exp_ablations,
    "la": _exp_la,
    "messages": _exp_messages,
    "trace": _exp_trace,
    "chaos": _exp_chaos,
    "contenders": _exp_contenders,
}


def run_experiment(
    name: str, *, master_seed: int | None = None, **kwargs: Any
) -> ExperimentResult:
    """Run one registered experiment by name.

    ``master_seed`` is the shared CLI seed: each seeded experiment gets
    an independent child stream via :func:`repro.sim.rng.derive_seed`
    (seed hygiene — adding an experiment never perturbs another's
    randomness).  Experiments not in :data:`SEEDED_EXPERIMENTS` ignore
    it.  An explicit ``seed=`` kwarg wins over ``master_seed``.
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if (
        master_seed is not None
        and name in SEEDED_EXPERIMENTS
        and "seed" not in kwargs
    ):
        from repro.sim.rng import derive_seed

        kwargs["seed"] = derive_seed(master_seed, "harness", name)
    return fn(**kwargs)


__all__ = [
    "EXPERIMENTS",
    "ExperimentCheckError",
    "ExperimentResult",
    "SEEDED_EXPERIMENTS",
    "run_experiment",
    "trace_plan",
]

"""Counterexample export — everything needed to replay a failure.

One directory per counterexample (``<out>/<algo>-seed<seed>/``):

- ``plan.json``     — the (shrunk) plan plus the failure record; feeds
  :func:`repro.chaos.plan.ChaosPlan.from_dict` for programmatic replay;
- ``history.json``  — the failing :class:`~repro.spec.history.History`
  via :mod:`repro.spec.serialize`, so the checkers re-run on it without
  re-simulating;
- ``trace.jsonl``   — a full observability trace of the failing
  execution (the plan re-run under a :class:`~repro.obs.Tracer`),
  replayable with ``python -m repro.obs summary/ops/render trace.jsonl``;
- ``repro.txt``     — the CLI repro lines, after a ``#`` comment naming
  the violated condition of a safety failure.

The re-run under tracing is guaranteed not to perturb the schedule (the
PR-3 invariant: tracing keeps the seed-faithful instrumented path), so
``history.json`` and the span records in ``trace.jsonl`` describe the
same execution.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import Failure, run_plan
from repro.obs.export import export_jsonl
from repro.obs.tracer import MemorySink, Tracer
from repro.spec.serialize import dump_history


def export_counterexample(
    plan: ChaosPlan,
    failure: Failure,
    out: Path,
    *,
    campaign_index: int,
    master_seed: int,
) -> dict[str, Any]:
    """Write the full counterexample bundle of campaign entry
    ``campaign_index``; returns a manifest dict."""
    target = out / f"{plan.algo}-seed{plan.seed}"
    target.mkdir(parents=True, exist_ok=True)

    tracer = Tracer(
        MemorySink(),
        meta={
            "chaos_algo": plan.algo,
            "chaos_seed": plan.seed,
            "failure": failure.kind,
        },
    )
    result = run_plan(plan, tracer=tracer)

    plan_path = target / "plan.json"
    with plan_path.open("w") as fh:
        json.dump(
            {
                "plan": plan.to_dict(),
                "failure": failure.to_dict(),
                "campaign_index": campaign_index,
                "master_seed": master_seed,
            },
            fh,
            indent=1,
            sort_keys=True,
        )

    history_path = target / "history.json"
    assert result.history is not None
    dump_history(result.history, history_path)

    trace_path = target / "trace.jsonl"
    export_jsonl(tracer, trace_path)

    repro_path = target / "repro.txt"
    lines = [] if result.condition is None else [f"# {result.condition}"]
    lines.append(f"python -m repro.chaos --algo {plan.algo} --plan {plan_path}")
    lines.append(
        f"python -m repro.chaos --algo {plan.algo} "
        f"--master-seed {master_seed} "
        f"--seeds {campaign_index}:{campaign_index + 1}"
    )
    lines.append(f"python -m repro.obs summary {trace_path}")
    repro_path.write_text("\n".join(lines) + "\n")

    return {
        "dir": str(target),
        "plan": str(plan_path),
        "history": str(history_path),
        "trace": str(trace_path),
        "repro": str(repro_path),
    }


__all__ = ["export_counterexample"]

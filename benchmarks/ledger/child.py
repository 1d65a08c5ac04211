"""What runs inside one fresh child process.

``run.py`` starts this file once per measurement so that peak RSS, the
message intern table, the view-plane caches and the global ``STATS`` are
per-workload.  Three modes: ``setup`` (set up, warm up, report how long
that took, exit), ``measure`` (set up, repeat timed passes for the
budget, verify, optionally repeat under ``cProfile``) and ``probes``
(the isolated per-layer loops).  The last stdout line is one JSON
object; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
OUT_DIR = os.path.join(LEDGER_DIR, "out")

#: every run repeats its pass at least twice, so "identical across
#: repeats of one seed" is checked on every run, not only on long ones
MIN_PASSES = 2

#: ``messages_packed`` counts hits in a process-wide intern table that
#: outlives a pass, so only a run's first pass is comparable (with the
#: first pass of another run of that seed); the rest repeat pass to pass
CARRIES_STATE = {"messages_packed"}


class LedgerMismatch(RuntimeError):
    """Two repeats of one seed disagreed on an exact quantity — a
    determinism bug, never noise."""


def _run_passes(workload, spans, budget: float, profile=None):
    from repro.sim.fastpath import STATS

    passes, counts, spent = [], [], 0.0
    while True:
        gc.collect()
        before = STATS.counters()
        if profile is not None:
            profile.enable()
        try:
            result = workload.run_pass(spans)
        finally:
            if profile is not None:
                profile.disable()
        after = STATS.counters()
        counts.append({k: after[k] - before[k] for k in after})
        if passes:
            result.evidence = None  # the first pass's evidence vouches for all
        passes.append(result)
        spent += result.wall_s
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and spent + typical / 2 >= budget:
            return passes, counts


def _require_identical(passes, counts, *, what: str) -> None:
    first, first_counts = passes[0], counts[0]
    for index, (result, count) in enumerate(zip(passes[1:], counts[1:]), start=1):
        same = (
            result.fingerprint == first.fingerprint
            and result.attempted == first.attempted
            and result.completed == first.completed
            and result.exact == first.exact
        )
        if not same:
            raise LedgerMismatch(f"{what}: pass {index} produced different model-time results")
        for key, value in count.items():
            if key not in CARRIES_STATE and value != first_counts[key]:
                raise LedgerMismatch(
                    f"{what}: STATS.{key} was {first_counts[key]} in pass 0 "
                    f"and {value} in pass {index}")


def measure(args: argparse.Namespace) -> dict[str, Any]:
    from attribution import LAYERS, Spans, layer_self_times
    from workloads import build, percentile

    spans = Spans(args.workload, enabled=bool(args.trace))
    workload = build(args.workload, args.seed, args.smoke)
    with spans.span("setup", layer="ledger"):
        workload.setup(spans)
    gc.collect()
    setup_s = time.time() - args.spawned_at
    if args.mode == "setup":
        workload.close()
        return {"setup_s": setup_s}

    budget = args.seconds / 2 if args.trace else args.seconds
    passes, counts = _run_passes(workload, spans, budget)
    _require_identical(passes, counts, what=args.workload)

    first, count = passes[0], counts[0]
    started = time.perf_counter()
    with spans.span("verify", layer="ledger"):
        rejected = workload.verify(first.evidence, spans)
    verify_s = time.perf_counter() - started
    first.evidence = None
    # an op fails when it did not complete (no crash is planned outside
    # chaos, where an op is a whole plan) or sits in a history the checker
    # rejects; failed ops earn no throughput
    failed = min(first.attempted, first.attempted - first.completed + rejected)
    verified = first.attempted - failed

    # Every pass is the same computation (just checked), so passes differ
    # only by interference, and interference only ever adds time: the
    # fastest pass is the least disturbed measurement of that computation.
    rates = [verified / p.wall_s for p in passes]
    best = min(passes, key=lambda p: p.wall_s)
    model = sorted(x for xs in first.model_lat.values() for x in xs)
    wall_ms = sorted(best.wall_lat_ms)

    def mean(kind: str) -> float:
        values = first.model_lat.get(kind) or []
        return sum(values) / len(values) if values else 0.0

    phases = best.phases
    progress_s = phases.get("stream_run_s", best.wall_s)  # the check is not protocol progress
    saved, scanned = count["eq_rows_saved"], count["eq_rows_scanned"]
    ops = first.attempted
    metrics: dict[str, float] = {
        "setup_s": setup_s,
        "ops_per_s": verified / best.wall_s,
        "op_p50_ms": percentile(wall_ms, 50) if wall_ms else 0.0,
        "op_p95_ms": percentile(wall_ms, 95) if wall_ms else 0.0,
        "model_p50_D": percentile(model, 50) if model else 0.0,
        "model_p99_D": percentile(model, 99) if model else 0.0,
        "model_sustained_rate_per_D": first.exact.get("model_sustained_rate_per_D", 0.0),
        "failed_frac": failed / first.attempted,
        "sim.events_per_op": count["events"] / ops,
        "net.msgs_per_op": count["messages"] / ops,
        "core.eq_evals_per_op": count["eq_evals"] / ops,
        "core.eq_rows_scanned_per_op": scanned / ops,
        "core.eq_rows_saved_frac": saved / (saved + scanned) if saved + scanned else 0.0,
        "core.eq_batched_scans_per_op": count["eq_batched_scans"] / ops,
        "core.values_interned_per_op": count["values_interned"] / ops,
        "core.msgs_packed_per_op": count["messages_packed"] / ops,
        "shard.routed_imbalance": first.exact.get("shard.routed_imbalance", 0.0),
        "shard.composites_complete_frac": first.exact.get("shard.composites_complete_frac", 0.0),
        "shard.gscan_p99_D": first.exact.get("shard.gscan_p99_D", 0.0),
        "chaos.cross_validated_frac": first.exact.get("chaos.cross_validated_frac", 0.0),
        "runtime.host_us_per_model_D": progress_s * 1e6 / sum(model) if model else 0.0,
        "runtime.update_mean_D": mean("update"),
        "runtime.scan_mean_D": mean("scan"),
        "runtime.stream_run_s": phases.get("stream_run_s", 0.0),
        "spec.order_check_s": phases.get("order_check_s", 0.0),
        "runtime.stream_decay_ratio": phases.get("stream_decay_ratio", 0.0),
        "spec.verify_s": verify_s,
        "runtime.aio_op_p99_ms": percentile(wall_ms, 99) if wall_ms else 0.0,
    }
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": workload.sizes,
        "passes": len(passes),
        "attempted": first.attempted * len(passes),
        "failed": failed * len(passes),
        "fingerprint": first.fingerprint,
        "samples": {"op_ms": len(wall_ms), "model_D": len(model)},
        "pass_ops_per_s": rates,
    }

    if args.trace:
        profile = cProfile.Profile()
        traced, traced_counts = _run_passes(workload, spans, budget, profile)
        _require_identical([first] + traced, [count] + traced_counts,
                           what=f"{args.workload} (traced)")
        layer_s = layer_self_times(profile)
        total = sum(layer_s.values())
        for layer in LAYERS:
            frac = layer_s[layer] / total
            metrics[f"{layer}.self_frac"] = frac
            # the layer's share of an *untraced* pass: cProfile inflates
            # absolute times, so only its proportions are used
            metrics[f"{layer}.self_s"] = frac * best.wall_s
        events, msgs = count["events"], count["messages"]
        metrics["sim.self_us_per_event"] = (
            metrics["sim.self_s"] * 1e6 / events if events else 0.0)
        metrics["net.self_us_per_msg"] = metrics["net.self_s"] * 1e6 / msgs if msgs else 0.0
        traced_rate = verified / min(p.wall_s for p in traced)
        metrics["ledger.profile_overhead_frac"] = 1.0 - traced_rate / metrics["ops_per_s"]
        result["traced_passes"] = len(traced)

    workload.close()
    # the untraced child's high-water mark; a traced child also held the profiler
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["metrics"] = metrics

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        with open(path, "w") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "layers": {layer: {"self_s": metrics[f"{layer}.self_s"],
                                   "self_frac": metrics[f"{layer}.self_frac"]}
                           for layer in LAYERS},
                "span_self_s": spans.self_times(),
                "spans": spans.records,
            }, fh, indent=1)
        result["trace_file"] = os.path.relpath(path, REPO_ROOT)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "measure", "probes"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    if args.mode == "probes":
        import probes

        result = {"metrics": probes.run_all(args.seed, smoke=args.smoke)}
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

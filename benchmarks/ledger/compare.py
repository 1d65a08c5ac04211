"""``run.py compare BASE.json CHANGE.json`` — judge two result sets.

One row per (workload, end-to-end metric): both medians and quartiles,
the ratio change/base with its base, and a verdict:

- ``ok``         the change's median is no worse than the base's by more
                 than the metric's bound;
- ``regressed``  it is worse by more than the bound;
- ``unresolved`` the run-to-run spread (q3−q1 over the median, either
                 side) is wider than the bound, so the medians cannot be
                 told apart — unless every run of one side beats every
                 run of the other, which settles it.

Exact quantities (model time, per-op counts, fingerprints) are compared
with ``==`` per seed and listed when they differ.  Exit 1 on any
regression or a higher ``failed_frac``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))

#: bounds of the end-to-end metrics only some workloads define.  In
#: BENCHMARK.json they sit under ``per_layer`` (its ``end_to_end`` list
#: must be defined, and non-zero, on every workload), which has no place
#: for a bound; 0 means exact.
LEDGER_BOUNDS = {
    "op_p50_ms": 0.10,
    "op_p95_ms": 0.10,
    "model_p50_D": 0.0,
    "model_p99_D": 0.0,
    "model_sustained_rate_per_D": 0.0,
    "failed_frac": 0.0,
}

#: model-time quantities and counts that one seed must reproduce exactly
EXACT = (
    "model_p50_D", "model_p99_D", "model_sustained_rate_per_D", "failed_frac",
    "sim.events_per_op", "net.msgs_per_op", "core.eq_evals_per_op",
    "core.eq_rows_scanned_per_op", "core.eq_rows_saved_frac",
    "core.eq_batched_scans_per_op", "core.values_interned_per_op",
    "core.msgs_packed_per_op", "shard.routed_imbalance",
    "shard.composites_complete_frac", "shard.gscan_p99_D",
    "chaos.cross_validated_frac", "runtime.update_mean_D", "runtime.scan_mean_D",
)

def load_benchmark() -> dict[str, Any]:
    """The registry: every metric's unit, direction and bound."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(base: list[float], change: list[float], *, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = larger after the sign
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if b_med == 0:
        worse_by = 0.0 if c_med == 0 else float("inf") if sign * c_med > 0 else -float("inf")
    else:
        worse_by = sign * (c_med - b_med) / abs(b_med)
    if bound == 0.0:
        return "regressed" if worse_by > 0 else "ok"
    spread = max(
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    if spread > bound:
        change_wins = max(sign * c for c in change) < min(sign * b for b in base)
        base_wins = max(sign * b for b in base) < min(sign * c for c in change)
        if change_wins:
            return "ok"
        if not base_wins:
            return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def _by_workload(result_set: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    out: dict[str, list[dict[str, Any]]] = {}
    for run in result_set["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def compare(base: dict[str, Any], change: dict[str, Any],
            bench: dict[str, Any]) -> tuple[list[str], int, int, list[str]]:
    """Rows to print, regressions, unresolved rows, exact differences."""
    gated = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    directions = {m["name"]: m["better"] for m in bench["per_layer"]}
    for name, bound in LEDGER_BOUNDS.items():
        gated[name] = (bound, directions[name])

    rows = [f"{'workload':24s} {'metric':27s} {'base med [q1..q3]':>34s} "
            f"{'change med [q1..q3]':>34s} {'change/base':>22s}  verdict"]
    regressions = unresolved = 0
    differences: list[str] = []
    base_runs, change_runs = _by_workload(base), _by_workload(change)
    same_seed = base["seed"] == change["seed"]
    for workload in (w["name"] for w in bench["workloads"]):
        b_runs = base_runs.get(workload, [])
        c_runs = change_runs.get(workload, [])
        if not b_runs or not c_runs:
            rows.append(f"{workload:24s} missing from one side")
            regressions += 1
            continue
        # end-to-end numbers come from untraced runs only
        b_plain = [r["metrics"] for r in b_runs if not r["trace"]]
        c_plain = [r["metrics"] for r in c_runs if not r["trace"]]
        for name, (bound, better) in gated.items():
            if bound == 0.0 and not same_seed and name != "failed_frac":
                continue  # exact quantities are per seed
            b_vals = [m[name] for m in b_plain]
            c_vals = [m[name] for m in c_plain]
            if not any(b_vals) and not any(c_vals) and name != "failed_frac":
                continue  # not defined on this workload
            verdict = judge(b_vals, c_vals, bound=bound, better=better)
            regressions += verdict == "regressed"
            unresolved += verdict == "unresolved"
            b_q, c_q = quartiles(b_vals), quartiles(c_vals)
            ratio = (f"{c_q[1] / b_q[1]:.4f}x of {b_q[1]:.6g}" if b_q[1] else "base is 0")
            rows.append(
                f"{workload:24s} {name:27s} "
                f"{f'{b_q[1]:.6g} [{b_q[0]:.6g}..{b_q[2]:.6g}]':>34s} "
                f"{f'{c_q[1]:.6g} [{c_q[0]:.6g}..{c_q[2]:.6g}]':>34s} "
                f"{ratio:>22s}  {verdict}")
        if not same_seed:
            continue
        b_first, c_first = b_runs[0], c_runs[0]
        if b_first["fingerprint"] != c_first["fingerprint"]:
            differences.append(f"{workload}: model-time fingerprint differs")
        for name in EXACT:
            b_set = {r["metrics"][name] for r in b_runs}
            c_set = {r["metrics"][name] for r in c_runs}
            if b_set != c_set:
                differences.append(f"{workload}: {name} {sorted(b_set)} -> {sorted(c_set)}")
    return rows, regressions, unresolved, differences


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json CHANGE.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    bench = load_benchmark()
    rows, regressions, unresolved, differences = compare(base, change, bench)
    print(f"base   {argv[0]}  commit {base['commit']}  seed {base['seed']}")
    print(f"change {argv[1]}  commit {change['commit']}  seed {change['seed']}")
    print("\n".join(rows))
    if base["seed"] != change["seed"]:
        print("exact quantities: not compared (different seeds)")
    elif differences:
        print(f"exact quantities: {len(differences)} differ")
        print("\n".join("  " + d for d in differences))
    else:
        print("exact quantities: all identical")
    print(f"compare: {regressions} regressed, {unresolved} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The layered performance ledger — driver.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py all [--seed N] [--seconds S] [--repeats R]
                                         [--smoke] [--out FILE] [--record]
    python3 benchmarks/ledger/run.py compare BASE.json CHANGE.json

The first form measures one workload and ends with the one-line JSON
result ``BENCHMARK.json`` promises; ``all`` runs every workload (fresh
child process each, one at a time), the traced runs and the isolated
probes, and prints every metric by name with its unit; ``compare``
judges two ``all --out`` files.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

import compare
from compare import load_benchmark, quartiles

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
CHILD = os.path.join(LEDGER_DIR, "child.py")
HISTORY = os.path.join(LEDGER_DIR, "history.jsonl")

#: the seed ledger entries are recorded at, and the held-out seed that
#: acceptance runs use as well and no change is tuned on
DEFAULT_SEED = 11
HELDOUT_SEED = 2408

#: set-ups timed per untraced run (the measuring child's own included);
#: ``setup_s`` is their median
SETUPS = 5


def spawn(mode: str, *, seed: int, smoke: bool, workload: str | None = None,
          seconds: float = 0.0, trace: int = 0) -> dict[str, Any]:
    """Run ``child.py`` to completion in a fresh interpreter and return
    the JSON object on its last stdout line."""
    cmd = [sys.executable, CHILD, mode, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spawned-at", repr(time.time())]
    if workload is not None:
        cmd += ["--workload", workload]
    if smoke:
        cmd.append("--smoke")
    # one fixed str-hash seed: dict and set layout, which moves host time
    # by several percent from process to process, is then the same in
    # every child; model-time results never depend on it
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=env)
    if done.returncode != 0:
        raise SystemExit(f"ledger: child {mode} {workload or ''} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, *, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict[str, Any]:
    """One run of one workload.  Untraced: ``SETUPS`` timed set-ups (two
    at smoke size), one of them the measuring child's.  Traced: only
    the measuring child's."""
    extra = 0 if trace else 1 if smoke else SETUPS - 1
    setups = [spawn("setup", workload=workload, seed=seed, smoke=smoke)["setup_s"]
              for _ in range(extra)]
    result = spawn("measure", workload=workload, seed=seed, smoke=smoke,
                   seconds=seconds, trace=trace)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["quartiles"] = {"setup_s": quartiles(setups),
                           "ops_per_s": quartiles(result["pass_ops_per_s"])}
    return result


def print_metrics(title: str, metrics: dict[str, float], bench: dict[str, Any],
                  notes: dict[str, str] | None = None) -> None:
    """Every metric by name, with its unit from ``BENCHMARK.json``."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(title)
    for name, value in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:38s} {value:>16.6g} {units[name]:8s} {note}".rstrip())


def contract_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                          trace=args.trace, smoke=args.smoke)
    metrics = result["metrics"]
    if args.trace:
        metrics.update(spawn("probes", seed=args.seed, smoke=args.smoke)["metrics"])
    set_ups, rates = result["quartiles"]["setup_s"], result["quartiles"]["ops_per_s"]
    spread = {
        "setup_s": f"median set-up; q1..q3 {set_ups[0]:.6g} .. {set_ups[2]:.6g}",
        "ops_per_s": f"fastest of {result['passes']} passes; median {rates[1]:.6g}, "
                     f"q1..q3 {rates[0]:.6g} .. {rates[2]:.6g}",
    }
    print_metrics(
        f"{args.workload} seed={args.seed} passes={result['passes']} "
        f"samples={result['samples']} (host time unless the unit is D)",
        metrics, bench, spread)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if result["failed"] == 0 else 1


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def all_main(argv: list[str]) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(prog="run.py all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (compare wants several)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the test")
    parser.add_argument("--out", help="write the result set here (input to compare)")
    parser.add_argument("--record", action="store_true",
                        help="append the medians to history.jsonl, keyed by commit")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 0.2)

    runs: list[dict[str, Any]] = []
    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in [0] * args.repeats + [1]:
            result = run_workload(workload, seed=args.seed, seconds=args.seconds,
                                  trace=trace, smoke=args.smoke)
            runs.append(result)
            failed += result["failed"]
            print_metrics(
                f"{workload} seed={args.seed} trace={trace} passes={result['passes']} "
                f"samples={result['samples']}", result["metrics"], bench)
    probes = spawn("probes", seed=args.seed, smoke=args.smoke)["metrics"]
    print_metrics("isolated probes (host time, workload-independent)", probes, bench)

    result_set = {"schema": 1, "commit": git_commit(), "seed": args.seed,
                  "seconds": args.seconds, "smoke": args.smoke, "runs": runs,
                  "probes": probes}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result_set, fh, indent=1)
    if args.record:
        line = {"commit": result_set["commit"], "recorded_at": time.strftime("%Y-%m-%d"),
                "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                "workloads": {}, "probes": probes}
        for workload in (w["name"] for w in bench["workloads"]):
            mine = [r for r in runs if r["workload"] == workload]
            untraced = [r["metrics"] for r in mine if not r["trace"]]
            line["workloads"][workload] = {
                "sizes": mine[0]["sizes"],
                "runs": len(untraced),
                "median": {name: statistics.median(m[name] for m in untraced)
                           for name in untraced[0]},
                "traced": next(r["metrics"] for r in mine if r["trace"]),
            }
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"ledger: {len(runs)} runs, {failed} failed ops")
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print("ledger: src/repro not found — run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    if argv and argv[0] == "all":
        return all_main(argv[1:])
    return contract_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""CLI: ``python -m repro.bench [cases...] [options]``.

Examples::

    python -m repro.bench                       # all cases, full size
    python -m repro.bench table1 scale_k        # just the lockstep cases
    python -m repro.bench --smoke               # CI-sized, ~seconds
    python -m repro.bench --validate BENCH_macro.json
    python -m repro.bench --smoke --baseline BENCH_macro.smoke.json  # gate

The report is written to ``--out`` (default ``BENCH_macro.json``) and a
summary table is printed.  Exit status: 1 if two repeats of a case
disagree on a paper-facing metric, if ``--validate`` finds schema
problems, or if ``--baseline`` finds a fingerprint or counter drift
(see :mod:`repro.bench.compare`); 2 if a worker crashed or the
``--baseline`` report is of the other mode (nothing comparable).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.runner import CASES, BenchError, format_report, run_bench
from repro.bench.schema import validate_report
from repro.parallel import WorkerCrash


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="macro-benchmarks of the simulation substrate "
        "(determinism check + exact fingerprint/counter baseline gate)",
    )
    parser.add_argument(
        "cases",
        nargs="*",
        metavar="case",
        help=f"cases to run (default: all of {', '.join(sorted(CASES))})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workloads, repeats=1 warmup=0 (unless overridden)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="timed runs per case; the minimum wall-clock "
        "is reported.  Default: 3, or 1 with --smoke; an explicit "
        "--repeats always wins over the --smoke preset",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=None,
        metavar="N",
        help="untimed runs before measuring (default: 1, or 0 with --smoke)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes measuring the cases (default 1 = serial; "
        "fingerprints and counters are identical for any N, wall-clock "
        "is machine-dependent)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_macro.json",
        metavar="FILE",
        help="report path (default: %(default)s)",
    )
    parser.add_argument(
        "--validate",
        metavar="FILE",
        help="validate an existing report against the schema and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="diff the fresh report against this same-mode one and fail "
        "on any fingerprint or deterministic-counter drift",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.repeats is not None and args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    if args.warmup is not None and args.warmup < 0:
        parser.error(f"--warmup must be >= 0, got {args.warmup}")
    if args.validate is not None and args.workers != 1:
        parser.error("--workers does not apply to --validate (no run happens)")

    if args.validate is not None:
        try:
            report = json.loads(Path(args.validate).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.validate}: {exc}", file=sys.stderr)
            return 1
        problems = validate_report(report)
        for problem in problems:
            print(problem, file=sys.stderr)
        if not problems:
            print(f"{args.validate}: valid (schema v{report['schema_version']})")
        return 1 if problems else 0

    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    warmup = args.warmup if args.warmup is not None else (0 if args.smoke else 1)
    try:
        report = run_bench(
            args.cases or None,
            smoke=args.smoke,
            repeats=repeats,
            warmup=warmup,
            workers=args.workers,
        )
    except BenchError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        # a case's workload resolving an unknown registry name (profile,
        # behaviour, experiment) raises KeyError with a choices message;
        # args[0] because str(KeyError) quotes the message
        detail = exc.args[0] if exc.args else exc
        print(f"bench failed: {detail}", file=sys.stderr)
        return 1
    except WorkerCrash as crash:
        print(f"bench worker crashed on {crash.label}", file=sys.stderr)
        print(crash.traceback_text, file=sys.stderr, end="")
        return 2
    problems = validate_report(report)
    if problems:  # internal consistency check — should be unreachable
        for problem in problems:
            print(f"generated report invalid: {problem}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(format_report(report))
    print(f"wrote {args.out}")

    if args.baseline is not None:
        from repro.bench.compare import compare_reports, format_comparison

        try:
            baseline = json.loads(Path(args.baseline).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.baseline}: {exc}", file=sys.stderr)
            return 1
        problems = validate_report(baseline)
        if problems:
            for problem in problems:
                print(f"baseline invalid: {problem}", file=sys.stderr)
            return 1
        try:
            problems = compare_reports(report, baseline)
        except ValueError as exc:
            print(f"bench gate: nothing comparable — {exc}", file=sys.stderr)
            return 2
        print(format_comparison(report, problems))
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

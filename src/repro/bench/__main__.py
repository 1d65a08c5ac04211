"""CLI: ``python -m repro.bench [case ...] [--smoke] [--out FILE] [--baseline FILE]``.

``python -m repro.bench --smoke --out s.json`` reproduces
``BENCH_macro.smoke.json`` byte for byte; ``python -m repro.bench
--baseline BENCH_macro.json`` is the full-size gate.  Every case runs
twice; a report is written only where ``--out`` names it.  Exit status:
0 ok; 1 if the two runs of a case disagree or ``--baseline`` finds a
drifted ``case.key``; 2 on unusable input — an unknown case, an
``--out`` outside an existing directory or naming the baseline itself,
or a baseline that is missing, unreadable, not a v3 report or of the
other mode — all checked before any case runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.compare import compare_reports, format_comparison, load_baseline
from repro.bench.runner import CASES, FingerprintMismatch, run_bench


def _check_inputs(args: argparse.Namespace) -> dict | None:
    """The loaded baseline (or ``None``) once every input is usable.

    Raises:
        ValueError: one line naming the unusable input.
    """
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        raise ValueError(f"unknown case(s) {unknown}; choose from {sorted(CASES)}")
    if args.out is not None:
        out = Path(args.out)
        if not out.parent.is_dir() or out.is_dir():
            raise ValueError(f"--out {args.out}: not a file in an existing directory")
        if args.baseline is not None and out.resolve() == Path(args.baseline).resolve():
            raise ValueError(f"--out {args.out} would overwrite the baseline it is gated on")
    if args.baseline is None:
        return None
    return load_baseline(args.baseline, mode="smoke" if args.smoke else "full")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="determinism and fingerprint gate: every case twice, "
        "then an exact per-case comparison against a baseline",
    )
    parser.add_argument(
        "cases",
        nargs="*",
        metavar="case",
        help=f"cases to run (default: all of {', '.join(CASES)})",
    )
    parser.add_argument("--smoke", action="store_true", help="the CI-sized workloads")
    parser.add_argument(
        "--out", metavar="FILE", help="write the report here (default: no file)"
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="fail on any fingerprint or counter that differs from this "
        "same-mode report",
    )
    args = parser.parse_args(argv)

    try:
        baseline = _check_inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_bench(args.cases, smoke=args.smoke)
    except (FingerprintMismatch, KeyError) as exc:
        # a workload resolving an unknown registry name raises KeyError with
        # a choices message; args[0] because str(KeyError) quotes it
        print(f"bench failed: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    for name, entry in report["cases"].items():
        print(f"{name:18s} {entry['fingerprint_sha256'][:12]}  events={entry['events']}")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if baseline is None:
        return 0
    problems = compare_reports(report, baseline)
    print(format_comparison(report, problems))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

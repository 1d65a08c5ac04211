"""CLI for chaos campaigns: ``python -m repro.chaos``.

Examples::

    # Smoke sweep: every healthy algorithm, a few seeds each.
    python -m repro.chaos --smoke --out /tmp/chaos

    # Deep sweep of one algorithm.
    python -m repro.chaos --algo delporte --seeds 200 --out /tmp/chaos

    # Replay campaign indices [40, 50) of a prior sweep.
    python -m repro.chaos --algo scd --master-seed 7 --seeds 40:50

    # Re-run one exported counterexample plan.
    python -m repro.chaos --plan /tmp/chaos/delporte-seed123/plan.json

Exit status: 0 = all executions clean, 1 = at least one failure found
(or the replayed plan still fails), 2 = usage error, a ``--plan`` file
that cannot be read or that :meth:`~repro.chaos.plan.ChaosPlan.from_dict`
rejects, an ``--out`` that cannot be a directory (checked before the
sweep runs) or a crashed worker (``--workers``; the failing
algo/index/seed is printed).

``--workers N`` fans the sweep out over N processes.  Reports and
counterexample bundles are byte-identical to a serial run for any N —
per-index seed derivation makes every campaign entry order-independent
(see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.chaos.algos import CAMPAIGN_ALGOS, all_profiles
from repro.chaos.campaign import run_campaign
from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import run_plan
from repro.parallel import WorkerCrash

SMOKE_SEEDS = 4


def _parse_seed_range(text: str) -> tuple[int, int]:
    """``N`` -> ``(0, N)``; ``lo:hi`` -> ``(lo, hi)``."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo, hi = 0, int(text)
    if lo < 0 or hi <= lo:
        raise ValueError(f"empty or negative seed range: {text!r}")
    return lo, hi


def _parse_algos(text: str) -> list[str]:
    known = all_profiles()
    if text == "all":
        return sorted(CAMPAIGN_ALGOS)
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError("no algorithm names given")
    for name in names:
        if name not in known:
            raise ValueError(
                f"unknown algorithm {name!r}; known: {', '.join(sorted(known))}"
            )
    return names


def _check_out_dir(out: Path) -> None:
    """Raise ``ValueError`` unless ``out`` is, or can be made, a directory."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")


def _replay_plan(path: Path) -> int:
    """Re-run one exported plan; report and mirror its verdict."""
    with path.open() as fh:
        payload = json.load(fh)
    plan_dict = payload.get("plan", payload) if isinstance(payload, dict) else payload
    plan = ChaosPlan.from_dict(plan_dict)
    result = run_plan(plan)
    ops, faults, delay_complexity = plan.size()
    print(
        f"replay {plan.algo} seed={plan.seed}: {ops} ops, {faults} faults, "
        f"delay={plan.delay.kind} (complexity {delay_complexity})"
    )
    if result.failure is None:
        print("verdict: PASS (no violation reproduced)")
        return 0
    print(f"verdict: FAIL [{result.failure.kind}] {result.failure.detail}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "Seed-swept chaos campaigns: random adversarial executions, "
            "online atomicity checking, counterexample shrinking."
        ),
    )
    parser.add_argument(
        "--algo",
        default="all",
        help=(
            "algorithm profile name, comma-separated list, or 'all' "
            f"(healthy set: {', '.join(sorted(CAMPAIGN_ALGOS))})"
        ),
    )
    parser.add_argument(
        "--seeds",
        default="25",
        help="campaign indices per algorithm: a count N, or a range lo:hi",
    )
    parser.add_argument(
        "--master-seed",
        type=int,
        default=0,
        help="root seed; campaign seed i = derive_seed(master, 'chaos', algo, i)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=150,
        help="shrink-execution budget per failure (default 150)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI preset: all healthy algorithms, {SMOKE_SEEDS} seeds each",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for report.json and counterexample bundles",
    )
    parser.add_argument(
        "--plan",
        type=Path,
        default=None,
        help="replay one exported plan.json instead of sweeping",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for the sweep (default 1 = serial; any "
            "value yields the byte-identical report and bundles)"
        ),
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.plan is not None and args.workers != 1:
        parser.error("--workers does not apply to --plan (a single replay)")
    if args.out is not None:
        try:
            _check_out_dir(args.out)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.plan is not None:
        try:
            return _replay_plan(args.plan)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot replay {args.plan}: {exc}")

    try:
        algos = _parse_algos(args.algo)
        seed_range = _parse_seed_range(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.smoke:
        algos = sorted(CAMPAIGN_ALGOS)
        seed_range = (0, SMOKE_SEEDS)

    try:
        report = run_campaign(
            algos,
            seed_range=seed_range,
            master_seed=args.master_seed,
            budget=args.budget,
            out=args.out,
            smoke=args.smoke,
            workers=args.workers,
        )
    except WorkerCrash as crash:
        print(f"worker crashed on {crash.label}", file=sys.stderr)
        print(crash.traceback_text, file=sys.stderr, end="")
        print(
            "re-run just that entry serially with: python -m repro.chaos "
            f"--master-seed {args.master_seed} --algo <algo> "
            "--seeds <index>:<index+1> (values above)",
            file=sys.stderr,
        )
        return 2
    for line in report.summary_lines():
        print(line)
    print(
        f"total: {report.total_executions} executions, "
        f"{report.total_failures} failure(s)"
    )
    if args.out is not None:
        print(f"report: {args.out / 'report.json'}")
    return 1 if report.total_failures else 0


if __name__ == "__main__":
    sys.exit(main())

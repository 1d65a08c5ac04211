"""CLI: ``python -m repro.harness [experiment ...] [--seed N] [--profile]``.

With no experiment arguments, runs every registered experiment and
prints the results — the full table/figure regeneration pass recorded in
EXPERIMENTS.md.

``--seed`` is the shared master seed (default 42, the value baked into
EXPERIMENTS.md).  It reaches the seeded experiments through
:func:`repro.sim.rng.derive_seed` child streams — never through the
``random`` module — so two runs with the same seed are bit-identical and
changing the seed only perturbs the experiments that actually consume
randomness.

``--profile`` wraps the selected experiments in :mod:`cProfile` and
prints the top 25 functions by cumulative time (``--profile-out FILE``
additionally saves the raw stats for ``snakeviz``/``pstats``): where the
time of one experiment goes.  The measured, bounded timing is
``benchmarks/ledger``'s; ``python -m repro.bench`` gates the numbers.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.registry import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="run the paper-reproduction experiments",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"experiments to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=42,
        help="master seed for seeded experiments, derived per-experiment "
        "via sim/rng (default: 42)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the selected experiments with cProfile and print "
        "the top 25 functions by cumulative time",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="with --profile: also dump raw profiler stats to FILE "
        "(readable with pstats or snakeviz)",
    )
    return parser


def _run(names: list[str], master_seed: int) -> int:
    for name in names:
        try:
            result = run_experiment(name, master_seed=master_seed)
        except KeyError as exc:
            # registry lookups (profiles, behaviours) raise KeyError with
            # a choices message; surface it as one line, not a traceback.
            # args[0] because str(KeyError) quotes the message.
            detail = exc.args[0] if exc.args else exc
            print(f"experiment {name!r} failed: {detail}", file=sys.stderr)
            return 2
        try:
            print(result)
            print()
        except BrokenPipeError:  # piping into `head` is fine
            return 0
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile_out and not args.profile:
        print("--profile-out requires --profile", file=sys.stderr)
        return 2
    names = args.experiments or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(
                f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
    if not args.profile:
        return _run(names, args.seed)

    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run(names, args.seed)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative")
    print(f"--- cProfile: {' '.join(names)} (top 25, cumulative) ---", file=sys.stderr)
    stats.print_stats(25)
    if args.profile_out:
        stats.dump_stats(args.profile_out)
        print(f"profile stats written to {args.profile_out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

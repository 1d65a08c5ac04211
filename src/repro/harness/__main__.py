"""CLI: ``python -m repro.harness [experiment ...] [--seed N]``.

With no experiment arguments, runs every registered experiment and
prints the results — the full table/figure regeneration pass recorded in
EXPERIMENTS.md.

``--seed`` is the shared master seed (default 42, the value baked into
EXPERIMENTS.md).  It reaches the seeded experiments through
:func:`repro.sim.rng.derive_seed` child streams — never through the
``random`` module — so two runs with the same seed are bit-identical and
changing the seed only perturbs the experiments that actually consume
randomness.

Exit status: 0 ok, 1 a checked fact of an experiment did not hold (a
figure's caption fact, or a lockstep plan whose history fails the order
check), 2 an unknown experiment or a failed registry lookup — each
failure one ``error:`` line on stderr.

Where the time of one experiment goes is
``python -m cProfile -s cumtime -m repro.harness <experiment>``; the
measured, bounded timing is ``benchmarks/ledger``'s, and
``python -m repro.bench`` gates the numbers.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.adversary import ExperimentCheckError
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.experiments or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(
                f"error: unknown experiment {name!r}; "
                f"available: {sorted(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
    for name in names:
        try:
            result = run_experiment(name, master_seed=args.seed)
        except KeyError as exc:
            # registry lookups (profiles, behaviours) raise KeyError with
            # a choices message; surface it as one line, not a traceback.
            # args[0] because str(KeyError) quotes the message.
            detail = exc.args[0] if exc.args else exc
            print(f"error: experiment {name!r} failed: {detail}", file=sys.stderr)
            return 2
        except ExperimentCheckError as exc:
            print(f"error: experiment {name!r} failed: {exc}", file=sys.stderr)
            return 1
        try:
            print(result)
            print()
        except BrokenPipeError:  # piping into `head` is fine
            return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

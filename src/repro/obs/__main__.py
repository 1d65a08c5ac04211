"""CLI: ``python -m repro.obs`` — inspect and produce execution traces.

Subcommands::

    demo     run a seeded 5-node EQ-ASO workload with tracing and export
             the JSONL trace (the worked example in EXPERIMENTS.md)
    summary  aggregate counts of an exported trace
    check    replay a trace's operations through the spec checkers
    ops      per-operation accounting (latency in D, phases, messages)
    phases   mean per-phase decomposition for one operation kind
    coverage phase/fault/interleaving coverage vector of a trace
    render   the text space-time diagram (trace_viz, but file-based)

Exit status: 0 ok, 1 a finding (``check`` found a counterexample,
``phases`` matched no operation), 2 unusable input (a trace that is
missing, unreadable, not JSON, or not replayable).

Examples::

    python -m repro.obs demo -o /tmp/eq.jsonl
    python -m repro.obs ops /tmp/eq.jsonl
    python -m repro.obs phases /tmp/eq.jsonl --kind scan
    python -m repro.obs render /tmp/eq.jsonl --include value
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.query import Trace, render_spacetime


def _demo(args: argparse.Namespace) -> int:
    from repro.core import EqAso
    from repro.net.delays import UniformDelay
    from repro.obs.export import export_jsonl
    from repro.obs.tracer import MemorySink, Tracer
    from repro.runtime.cluster import Cluster
    from repro.sim.rng import SeededRng, derive_seed

    n, f = args.n, (args.n - 1) // 2
    tracer = Tracer(
        MemorySink(),
        meta={"algorithm": "EqAso", "n": n, "f": f, "D": 1.0, "seed": args.seed},
    )
    # --seed flows through a sim/rng child stream (never the `random`
    # module); with --jitter 0 (the default) delays are the paper's
    # lockstep worst case and the trace is byte-stable across runs.
    delay_model = None
    if args.jitter > 0.0:
        rng = SeededRng(derive_seed(args.seed, "obs", "demo"))
        delay_model = UniformDelay(
            1.0, rng.child("delays"), lo=max(0.0, 1.0 - args.jitter)
        )
    cluster = Cluster(EqAso, n=n, f=f, tracer=tracer, delay_model=delay_model)
    # the Figure-2 choreography, multi-shot: staggered updates then scans
    schedule = [(0.5 * i, i, "update", (f"v{i}",)) for i in range(n - 2)]
    schedule.append((1.0, n - 2, "scan", ()))
    schedule.append((6.0, n - 1, "scan", ()))
    cluster.run_ops(schedule)
    cluster.run(until=cluster.sim.now + 3 * cluster.D)  # drain echo traffic
    lines = export_jsonl(tracer, args.output)
    print(f"wrote {args.output}: {lines} lines ({tracer.events_emitted} events, "
          f"{len(tracer.spans)} spans)")
    trace = Trace.load(args.output)
    for kind in ("update", "scan"):
        totals = trace.phase_totals(kind)
        parts = ", ".join(f"{k}={v:.2f}D" for k, v in totals["phases_D"].items())
        print(f"{kind}: {totals['ops']} ops, mean {totals['end_to_end_D']:.2f}D "
              f"[{parts}]")
    return 0


#: structural contract of ``summary --format json`` (validated through
#: the bench schema's shared ``check_fields`` before printing)
SUMMARY_FIELDS: dict[str, type | tuple[type, ...]] = {
    "events": int,
    "spans": int,
    "D": (int, float),
    "by_kind": dict,
    "sends_by_message": dict,
    "sends_by_node": dict,
}

#: structural contract of ``phases --format json``
PHASES_FIELDS: dict[str, type | tuple[type, ...]] = {
    "ops": int,
    "end_to_end_D": (int, float),
    "phases_D": dict,
}

#: structural contract of ``coverage --format json``
COVERAGE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "phases": dict,
    "faults": dict,
    "interleavings": dict,
    "distinct": dict,
}


def _emit_json(obj: dict, fields: dict, where: str) -> int:
    """Validate a CLI JSON payload against its contract, then print it."""
    import json

    from repro.bench.schema import check_fields

    problems = check_fields(obj, fields, where)
    if problems:  # pragma: no cover - defensive: contract drift is a bug
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(obj, indent=1, sort_keys=True))
    return 0


def _summary(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    if args.format == "json":
        return _emit_json(trace.summary_dict(), SUMMARY_FIELDS, "summary")
    print("\n".join(trace.summary_lines()))
    return 0


def _ops(args: argparse.Namespace) -> int:
    lines = Trace.load(args.trace).op_lines(
        op_id=args.op, phases=not args.no_phases
    )
    print("\n".join(lines) if lines else "(no spans in trace)")
    return 0


def _phases(args: argparse.Namespace) -> int:
    totals = Trace.load(args.trace).phase_totals(args.kind)
    if totals["ops"] == 0:
        which = "" if args.kind is None else f" of kind {args.kind!r}"
        print(f"no completed operations{which} in trace", file=sys.stderr)
        return 1
    if args.format == "json":
        return _emit_json(totals, PHASES_FIELDS, "phases")
    print(f"ops: {totals['ops']}")
    print(f"end-to-end: {totals['end_to_end_D']:.2f}D")
    for name, value in totals["phases_D"].items():
        print(f"  {name:20s} {value:.2f}D")
    covered = sum(totals["phases_D"].values())
    print(f"  {'(sum of phases)':20s} {covered:.2f}D")
    return 0


def _check(args: argparse.Namespace) -> int:
    from repro.obs.export import read_trace
    from repro.obs.replay import ReplayError, replay_check

    meta, _events, spans = read_trace(args.trace)
    try:
        result = replay_check(meta, spans, level=args.level)
    except ReplayError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(result.to_dict(), indent=1, sort_keys=True))
    else:
        print("\n".join(result.summary_lines()))
    return 0 if result.ok else 1


def _coverage(args: argparse.Namespace) -> int:
    from repro.obs.coverage import Coverage

    cov = Coverage.load(args.trace)
    if args.baseline is not None:
        novel = cov.novel_keys(Coverage.load(args.baseline))
        if args.format == "json":
            import json

            print(json.dumps(novel, indent=1, sort_keys=True))
        else:
            total = sum(len(keys) for keys in novel.values())
            print(f"novel keys vs {args.baseline}: {total}")
            for space, keys in novel.items():
                for key in keys:
                    print(f"  {space}: {key}")
        return 0
    if args.format == "json":
        return _emit_json(cov.to_dict(), COVERAGE_FIELDS, "coverage")
    print("\n".join(cov.summary_lines()))
    return 0


def _render(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    include = args.include if args.include else None
    print(
        render_spacetime(
            trace.events,
            until=args.until,
            include=include,
            max_lines=args.max_lines,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="inspect and produce execution traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a traced EQ-ASO workload, export JSONL")
    demo.add_argument("-o", "--output", default="eq_aso_trace.jsonl")
    demo.add_argument("--n", type=int, default=5)
    demo.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed, derived via sim/rng; same seed => byte-"
        "identical trace (default: 0)",
    )
    demo.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="randomize delays in [1-jitter, 1]·D using the seed "
        "(default: 0 = lockstep worst case)",
    )
    demo.set_defaults(func=_demo)

    summary = sub.add_parser("summary", help="aggregate counts of a trace")
    summary.add_argument("trace")
    summary.add_argument("--format", choices=("text", "json"), default="text")
    summary.set_defaults(func=_summary)

    check = sub.add_parser(
        "check",
        help="replay-check a trace against the spec checkers "
        "(exit 0 = consistent, 1 = counterexample, 2 = not replayable)",
    )
    check.add_argument("trace")
    check.add_argument(
        "--level",
        choices=("linearizable", "sequential"),
        default=None,
        help="consistency level to require (default: inferred from the "
        "trace's algorithm metadata)",
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=_check)

    ops = sub.add_parser("ops", help="per-operation latency/phase/message table")
    ops.add_argument("trace")
    ops.add_argument("--op", type=int, default=None, help="only this op id")
    ops.add_argument("--no-phases", action="store_true")
    ops.set_defaults(func=_ops)

    phases = sub.add_parser("phases", help="mean per-phase decomposition")
    phases.add_argument("trace")
    phases.add_argument("--kind", default=None, help="operation kind (scan/update)")
    phases.add_argument("--format", choices=("text", "json"), default="text")
    phases.set_defaults(func=_phases)

    coverage = sub.add_parser(
        "coverage",
        help="phase/fault/interleaving coverage vector of a trace",
    )
    coverage.add_argument("trace")
    coverage.add_argument(
        "--baseline",
        default=None,
        help="another trace; report only keys novel relative to it",
    )
    coverage.add_argument("--format", choices=("text", "json"), default="text")
    coverage.set_defaults(func=_coverage)

    render = sub.add_parser("render", help="text space-time diagram")
    render.add_argument("trace")
    render.add_argument("--until", type=float, default=None)
    render.add_argument("--include", action="append", default=[])
    render.add_argument("--max-lines", type=int, default=200)
    render.set_defaults(func=_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # piping into `head` is fine
        return 0
    except OSError as exc:  # missing/unreadable/unwritable trace path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # not a trace file (JSONDecodeError included)
        source = getattr(args, "trace", getattr(args, "output", "trace"))
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

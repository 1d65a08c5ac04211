"""CLI: ``python -m repro.lint [paths] [options]``.

Exit codes: 0 = clean, 1 = findings (or stale suppressions under
``--strict-suppressions``), 2 = usage/IO error (unknown rule id, a path
that is missing or names no Python file) — one ``error:`` line on
stderr.  ``--select`` takes comma- or space-separated rule ids.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Sequence

from repro.lint.engine import LintResult, run_lint
from repro.lint.rules import ALL_RULES

#: default on-disk location of the whole-project result cache
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def _rule_ids(values: Sequence[str]) -> frozenset[str]:
    ids: set[str] = set()
    for value in values:
        ids.update(part.strip() for part in value.split(",") if part.strip())
    unknown = ids - set(ALL_RULES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(ALL_RULES))}"
        )
    return frozenset(ids)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based protocol-safety linter: determinism (RL001), "
            "sans-io purity (RL002), message immutability (RL003), "
            "quorum arithmetic (RL004), phase coverage (RL005), symbolic "
            "quorum safety (RL009)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="only run these rule ids (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--context",
        action="append",
        default=None,
        metavar="PATH",
        help=(
            "extra files/directories parsed into the project index "
            "(whole-program rules see them) but not linted themselves"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"disable the result cache ({DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--strict-suppressions",
        action="store_true",
        help="exit 1 when stale '# lint: ignore[...]' comments remain",
    )
    return parser


def format_text(result: LintResult) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines: list[str] = []
    last_hint = None
    for finding in result.findings:
        lines.append(finding.render())
        if finding.fix_hint and finding.fix_hint != last_hint:
            lines.append(f"    hint: {finding.fix_hint}")
            last_hint = finding.fix_hint
    counts = Counter(f.rule_id for f in result.findings)
    if counts:
        per_rule = ", ".join(f"{rid}={n}" for rid, n in sorted(counts.items()))
        lines.append(
            f"{sum(counts.values())} finding(s) in "
            f"{result.files_checked} file(s) [{per_rule}]"
        )
    else:
        lines.append(f"ok: {result.files_checked} file(s) clean")
    if result.stale_suppressions:
        for finding in result.stale_suppressions:
            lines.append(finding.render())
        lines.append(
            f"{len(result.stale_suppressions)} stale suppression(s) — "
            "remove them, or fail on them with --strict-suppressions"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # piping into `head` is fine
        return 0


def _main(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        select = None if args.select is None else _rule_ids(args.select)
        result = run_lint(
            args.paths,
            select=select,
            context=args.context or (),
            cache_dir=None if args.no_cache else DEFAULT_CACHE_DIR,
        )
    except (argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_text(result))
    if not result.ok:
        return 1
    if args.strict_suppressions and result.stale_suppressions:
        return 1
    return 0


__all__ = ["DEFAULT_CACHE_DIR", "build_parser", "format_text", "main"]

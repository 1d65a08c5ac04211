"""CLI: ``python -m repro.lint [paths] [options]``.

Exit codes: 0 = clean, 1 = findings (or stale suppressions under
``--strict-suppressions``, or an invalid document under ``--validate``),
2 = usage/IO error (unknown rule id, missing path).
``--select``/``--ignore`` take comma- or space-separated rule ids and
override ``[tool.repro-lint]`` in pyproject.toml.

The same entry point validates a previously produced JSON report
against its schema (``--validate FILE``, used in CI).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import run_lint
from repro.lint.report import format_json, format_text
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
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="only run these rule ids (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="skip these rule ids (comma-separated, repeatable)",
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
        "--validate",
        default=None,
        metavar="FILE",
        help=(
            "validate a previously produced '--format json' report "
            "against its schema and exit"
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
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit fix hints from text output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def list_rules() -> str:
    lines = []
    for rid, rule in sorted(ALL_RULES.items()):
        lines.append(f"{rid} [{rule.severity}] {rule.summary}")
        lines.append(f"    fix: {rule.fix_hint}")
    return "\n".join(lines)


def _validate_file(target: str) -> int:
    from repro.lint.schema import validate_lint_report

    try:
        document = json.loads(
            pathlib.Path(target).read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {target}: {exc}", file=sys.stderr)
        return 2
    problems = validate_lint_report(document)
    if problems:
        for problem in problems:
            print(f"{target}: {problem}")
        print(f"{target}: invalid lint report ({len(problems)} problem(s))")
        return 1
    print(f"{target}: valid lint report")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # piping into `head` is fine
        return 0


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    if args.validate is not None:
        return _validate_file(args.validate)
    try:
        select = None if args.select is None else _rule_ids(args.select)
        ignore = None if args.ignore is None else _rule_ids(args.ignore)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = LintConfig.from_pyproject(pathlib.Path.cwd()).with_selection(
        select=select, ignore=ignore
    )
    context = args.context if args.context is not None else []
    cache_dir = None if args.no_cache else DEFAULT_CACHE_DIR
    try:
        result = run_lint(
            args.paths, config, context=context, cache_dir=cache_dir
        )
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_text(result, verbose_hints=not args.no_hints))
    if not result.ok:
        return 1
    if args.strict_suppressions and result.stale_suppressions:
        return 1
    return 0


__all__ = ["DEFAULT_CACHE_DIR", "build_parser", "list_rules", "main"]

"""The lint engine: collect files, parse once, run rules, filter, sort.

The engine makes two passes.  Pass one parses *every* target file (plus
any ``context`` files, which inform the :class:`ProjectIndex` without
being linted themselves) — cross-module facts (the ``ProtocolNode``
subclass closure, the wait sites a class inherits) must see the whole
tree before any rule runs.  Pass two runs each enabled rule over each
module and filters the findings through the per-file suppressions.

Two extras ride on the raw-findings stream:

- **stale suppressions** — an id-carrying ``# lint: ignore[RLxxx]``
  comment whose rule produced *no* finding on its target line is
  reported (as a ``STALE`` warning in ``LintResult.stale_suppressions``,
  separate from real findings so it does not flip ``ok`` unless the
  caller opts in);
- **result cache** — when ``cache_dir`` is given, a whole-project
  fingerprint (rules version + config + every file's content hash) is
  looked up first; a hit replays the stored result without parsing
  anything, which is what makes warm runs fast.  A whole-program rule
  (RL009) makes any finer-grained invalidation unsound, so it is all or
  nothing.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.lint.cache import (
    load_cached_result,
    project_fingerprint,
    store_result,
)
from repro.lint.config import LintConfig
from repro.lint.findings import (
    PARSE_ERROR_ID,
    STALE_SUPPRESSION_ID,
    Finding,
    Severity,
)
from repro.lint.project import ModuleInfo, ProjectIndex
from repro.lint.rules import ALL_RULES
from repro.lint.suppressions import FileSuppressions, extract_suppressions


@dataclass(slots=True)
class LintResult:
    """Everything a reporter needs about one run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()
    #: ``STALE`` warnings for suppression comments that suppress nothing
    stale_suppressions: list[Finding] = field(default_factory=list)
    #: True when the whole result was replayed from the cache
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(
    paths: Sequence[str | pathlib.Path], config: LintConfig
) -> list[pathlib.Path]:
    """Expand path arguments into the python files to lint.

    Directories are walked recursively with the config's excludes
    applied; a file given *explicitly* is always linted, even if an
    exclude pattern matches it (so tests can lint bad fixtures).
    """
    out: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()

    def add(p: pathlib.Path) -> None:
        if p not in seen:
            seen.add(p)
            out.append(p)

    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not config.is_excluded(str(sub)):
                    add(sub)
        elif path.suffix == ".py":
            add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return out


def parse_modules(
    files: Iterable[pathlib.Path],
) -> tuple[list[ModuleInfo], list[Finding]]:
    """Parse every file; unparseable ones become PARSE findings."""
    modules: list[ModuleInfo] = []
    errors: list[Finding] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule_id=PARSE_ERROR_ID,
                    severity=Severity.ERROR,
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    message=f"syntax error: {exc.msg}",
                    fix_hint="fix the syntax error; the file was not analyzed",
                )
            )
            continue
        modules.append(ModuleInfo(path=str(path), tree=tree, source=text))
    return modules, errors


def _stale_suppressions(
    module: ModuleInfo,
    suppressions: FileSuppressions,
    raw_by_line: dict[int, set[str]],
    rules_run: Sequence[str],
) -> list[Finding]:
    """``STALE`` warnings for id-carrying suppression comments in
    ``module`` whose rule (among those that actually ran) produced no
    finding on the target line, or whose id names no registered rule —
    that one can never match, whatever the selection."""
    out: list[Finding] = []
    ran = set(rules_run)
    for entry in suppressions.entries:
        hits = raw_by_line.get(entry.target_line, set())
        for rule_id in sorted(entry.ids):
            if rule_id not in ALL_RULES:
                why = f"names unknown rule id {rule_id}"
            elif rule_id not in ran:
                continue  # not decidable this run (rule deselected)
            elif rule_id in hits:
                continue
            else:
                why = f"matches no {rule_id} finding on line {entry.target_line}"
            out.append(
                Finding(
                    rule_id=STALE_SUPPRESSION_ID,
                    severity=Severity.WARNING,
                    path=module.path,
                    line=entry.line,
                    col=1,
                    message=f"stale suppression: '# lint: ignore[{rule_id}]' {why}",
                    fix_hint=(
                        "remove the stale id (or the whole comment) — "
                        "dead suppressions hide future regressions"
                    ),
                )
            )
    return out


def run_lint(
    paths: Sequence[str | pathlib.Path],
    config: LintConfig | None = None,
    *,
    context: Sequence[str | pathlib.Path] = (),
    cache_dir: str | pathlib.Path | None = None,
) -> LintResult:
    """Lint ``paths`` and return the filtered, sorted findings.

    ``context`` paths are parsed into the project index (so whole-program
    rules see their classes and send sites) but produce no findings of
    their own, except parse errors — a context file that does not parse
    silently weakens every cross-module rule, which is worth a loud
    report.
    """
    cfg = config if config is not None else LintConfig()
    files = collect_files(paths, cfg)
    lint_paths = {str(p) for p in files}
    context_files = [
        p for p in collect_files(context, cfg) if str(p) not in lint_paths
    ]
    rules = [r for rid, r in sorted(ALL_RULES.items()) if cfg.rule_enabled(rid)]
    rule_ids = tuple(r.rule_id for r in rules)

    fingerprint: str | None = None
    cache_path: pathlib.Path | None = None
    if cache_dir is not None:
        cache_path = pathlib.Path(cache_dir)
        fingerprint = project_fingerprint(cfg, files, context_files)
        if fingerprint is not None:
            cached = load_cached_result(cache_path, fingerprint)
            if cached is not None:
                return LintResult(
                    findings=list(cached["findings"]),
                    files_checked=int(cached["files_checked"]),
                    rules_run=tuple(cached["rules_run"]),
                    stale_suppressions=list(cached["stale_suppressions"]),
                    cache_hit=True,
                )

    modules, findings = parse_modules(files)
    ctx_modules, ctx_errors = parse_modules(context_files)
    findings.extend(ctx_errors)
    index = ProjectIndex(modules + ctx_modules)
    stale: list[Finding] = []
    for module in modules:
        suppressions = extract_suppressions(module.source)
        if suppressions.skip_file:
            continue
        raw_by_line: dict[int, set[str]] = {}
        for rule in rules:
            for finding in rule.check(module, index):
                raw_by_line.setdefault(finding.line, set()).add(
                    finding.rule_id
                )
                if not suppressions.is_suppressed(finding):
                    findings.append(finding)
        stale.extend(
            _stale_suppressions(module, suppressions, raw_by_line, rule_ids)
        )
    findings.sort(key=Finding.sort_key)
    stale.sort(key=Finding.sort_key)
    if cache_path is not None and fingerprint is not None:
        store_result(
            cache_path,
            fingerprint,
            findings=findings,
            stale_suppressions=stale,
            files_checked=len(files),
            rules_run=rule_ids,
        )
    return LintResult(
        findings=findings,
        files_checked=len(files),
        rules_run=rule_ids,
        stale_suppressions=stale,
    )


__all__ = ["LintResult", "collect_files", "parse_modules", "run_lint"]

"""Inline suppression comments.

Two forms, modelled on ``noqa``/``type: ignore`` but namespaced so they
cannot collide with other tools, and both naming the rule(s) they
suppress — so every suppression can be checked for staleness:

- ``# lint: ignore[RL001]`` — suppress the named rule(s) on this
  physical line (comma-separated ids allowed);
- ``# lint: ignore-next-line[RL001]`` — same, but for the following
  physical line (for findings on a ``def``/``class`` line where a
  trailing comment would not fit the justification).

A comment without ``[ids]`` suppresses nothing.  Suppressions are
extracted with :mod:`tokenize` rather than a regex over raw lines so
that a string literal containing the magic text never counts as a
suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.findings import Finding

_IGNORE_RE = re.compile(
    r"#\s*lint:\s*ignore(?P<next>-next-line)?\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
)


@dataclass(frozen=True, slots=True)
class SuppressionEntry:
    """One ``# lint: ignore[...]`` comment."""

    #: physical line of the comment itself (where staleness is reported)
    line: int
    #: line the suppression applies to (``+1`` for the next-line form)
    target_line: int
    ids: frozenset[str]


@dataclass(slots=True)
class FileSuppressions:
    """Suppression state for one source file."""

    #: line number -> set of suppressed rule ids
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: every comment, for stale-suppression detection
    entries: list[SuppressionEntry] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule_id in self.by_line.get(finding.line, ())


def extract_suppressions(source: str) -> FileSuppressions:
    """Scan ``source`` for suppression comments.

    Tokenization errors are ignored — a file that does not tokenize will
    already be reported as a parse error by the engine, and a best-effort
    prefix scan is still better than none.
    """
    out = FileSuppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _IGNORE_RE.search(tok.string)
            if match is None:
                continue
            ids = {r.strip() for r in match.group("rules").split(",") if r.strip()}
            if not ids:
                continue
            line = tok.start[0]
            target = line + 1 if match.group("next") is not None else line
            out.by_line.setdefault(target, set()).update(ids)
            out.entries.append(SuppressionEntry(line, target, frozenset(ids)))
    except tokenize.TokenError:
        pass
    return out


__all__ = ["FileSuppressions", "SuppressionEntry", "extract_suppressions"]

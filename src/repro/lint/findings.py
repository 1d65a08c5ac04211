"""Finding and severity types shared by every lint rule.

A finding is an immutable value: rules yield them, the engine filters
them through suppressions and the rule selection, and the CLI renders
them.  Keeping the type frozen means the renderer can never mutate
what a rule observed — the same discipline RL003 enforces for protocol
messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a finding is.

    Rule and parse findings are errors and fail the run; a stale
    suppression is a warning, fatal only under ``--strict-suppressions``.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    fix_hint: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RL001 message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )


#: Pseudo rule id used for files the linter cannot parse.  It is not a
#: real rule (it cannot be selected or suppressed away with an inline
#: comment) because a file that does not parse cannot be analyzed at all.
PARSE_ERROR_ID = "PARSE"

#: Pseudo rule id for ``# lint: ignore[...]`` comments that no longer
#: suppress anything.  Reported separately from real findings (warnings
#: by default; ``--strict-suppressions`` makes them fail the build).
STALE_SUPPRESSION_ID = "STALE"


__all__ = ["Finding", "PARSE_ERROR_ID", "STALE_SUPPRESSION_ID", "Severity"]

"""The rule interface.

A rule is a stateless object that inspects one module at a time with the
whole-project :class:`~repro.lint.project.ProjectIndex` available for
cross-module questions.  Rules *yield* findings; filtering (selection,
suppression) is the engine's job, so rule code stays a pure function of
the AST.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.project import ModuleInfo, ProjectIndex


class Rule(ABC):
    """Base class for all lint rules."""

    #: stable identifier, e.g. ``"RL001"``
    rule_id: str = ""
    severity: Severity = Severity.ERROR
    #: default remediation advice attached to findings
    fix_hint: str = ""

    @abstractmethod
    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        fix_hint: str | None = None,
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )


def imported_module_names(tree: ast.AST) -> Iterator[tuple[str, ast.stmt]]:
    """Top-level names of every imported module in ``tree``.

    ``import a.b`` and ``from a.b import c`` both yield ``"a"`` — bans
    are on module *families* (``urllib`` covers ``urllib.request``).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                yield node.module.split(".")[0], node


__all__ = ["Rule", "imported_module_names"]

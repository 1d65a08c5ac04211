"""Rule registry.

Each rule family lives in its own module; registering here is all it
takes to make a rule runnable and selectable with ``--select``.  The
catalog is the table in README.md's "Static analysis" section.
"""

from __future__ import annotations

from repro.lint.rules.base import Rule
from repro.lint.rules.rl001_determinism import DeterminismRule
from repro.lint.rules.rl002_sansio import SansIoRule
from repro.lint.rules.rl003_immutability import MessageImmutabilityRule
from repro.lint.rules.rl004_quorum import QuorumArithmeticRule
from repro.lint.rules.rl005_phases import PhaseCoverageRule
from repro.lint.rules.rl009_quorum_safety import QuorumSafetyRule

#: bump whenever any rule's behaviour changes — part of the result-cache
#: fingerprint, so stale cached findings can never survive a rule edit
RULES_VERSION = "2026.10-six-rules"

#: rule id -> rule instance (rules are stateless; one instance serves
#: every run).  Ids are stable: a retired rule's id is never reused
#: (DESIGN.md lists them and the run-time check that replaced each).
ALL_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        DeterminismRule(),
        SansIoRule(),
        MessageImmutabilityRule(),
        QuorumArithmeticRule(),
        PhaseCoverageRule(),
        QuorumSafetyRule(),
    )
}


__all__ = ["ALL_RULES", "RULES_VERSION", "Rule"]

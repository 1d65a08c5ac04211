"""RL009 — symbolic quorum safety.

For every lower-bound count comparison inside a ``WaitUntil`` predicate
(``len(replies) >= T`` and friends), parse ``T`` as a linear form over
``n``/``f``/``quorum_size`` and *prove* that two waits of that size must
intersect under the class's declared fault model — in an honest node,
when the model is Byzantine.  The fault model is read off the
``if n <= k*f: raise`` constructor guard along the MRO; a guard-less
class is held to the crash model (``n > 2f``), the weakest assumption in
this reproduction.

When the proof fails, the finding carries the smallest concrete
``(n, f)`` counterexample: e.g. the quorum-weakened chaos mutants wait
on a single ack, and at ``n = 3, f = 1`` two size-1 "quorums" are
disjoint — exactly the linearizability violations the chaos campaign
then exhibits dynamically.  RL004 stays beside it for what is not a
``WaitUntil`` threshold: handler-side count tests and float division.

A wait inherited from a base protocol class is analyzed under *that*
class's model; methods of ``ProtocolNode`` itself — ``quorum_round``, the
one count-wait every algorithm shares — and of mixins (non-protocol
helper classes) are analyzed under the model of each protocol class that
inherits them, with identical findings deduplicated.  Thresholds the linear parser
cannot express (``//``, data-dependent bounds) are skipped, not guessed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.flow.graph import WaitSite, wait_sites
from repro.lint.flow.symbolic import (
    check_intersection,
    fault_model_for,
    threshold_comparisons,
    threshold_form,
)
from repro.lint.project import ModuleInfo, ProjectIndex
from repro.lint.rules.base import Rule


class QuorumSafetyRule(Rule):
    rule_id = "RL009"
    summary = "wait thresholds provably intersect under the fault model"
    fix_hint = (
        "wait on at least self.quorum_size (= n - f) responses, or "
        "strengthen the constructor's fault-model guard"
    )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        findings = self._project_findings(index)
        for finding in findings:
            if finding.path == module.path:
                yield finding

    def _project_findings(self, index: ProjectIndex) -> list[Finding]:
        cached = index.analysis_cache.get("rl009_findings")
        if isinstance(cached, list):
            return cached
        waits_by_cls: dict[str | None, list[WaitSite]] = {}
        for site in wait_sites(index.modules):
            waits_by_cls.setdefault(site.cls, []).append(site)
        findings: list[Finding] = []
        seen: set[tuple[str, int, int, str]] = set()
        for info in index.classes.values():
            if not index.is_protocol_class(info.name):
                continue
            model = fault_model_for(index, info.name)
            for owner in index.mro(info.name):
                if owner.name != info.name and index.is_protocol_class(
                    owner.name
                ):
                    # analyzed under its own declared model
                    continue
                for site in waits_by_cls.get(owner.name, ()):
                    for compare, expr in threshold_comparisons(site.predicate):
                        form = threshold_form(compare, expr, site.enclosing_fn)
                        if form is None:
                            continue
                        violation = check_intersection(form, model)
                        if violation is None:
                            continue
                        shown = ast.unparse(expr)
                        message = (
                            f"wait threshold '{shown}' does not guarantee "
                            "quorum intersection under the "
                            f"{model.describe()} fault model: at "
                            f"n={violation.n}, f={violation.f} two waits "
                            f"of size {violation.threshold} may observe "
                            "disjoint (or fully-Byzantine-overlapping) "
                            "node sets"
                        )
                        key = (
                            site.path,
                            compare.lineno,
                            compare.col_offset + 1,
                            message,
                        )
                        if key in seen:
                            continue
                        seen.add(key)
                        findings.append(
                            Finding(
                                rule_id=self.rule_id,
                                severity=self.severity,
                                path=site.path,
                                line=compare.lineno,
                                col=compare.col_offset + 1,
                                message=message,
                                fix_hint=self.fix_hint,
                            )
                        )
        findings.sort(key=Finding.sort_key)
        index.analysis_cache["rl009_findings"] = findings
        return findings


__all__ = ["QuorumSafetyRule"]

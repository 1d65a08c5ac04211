"""RL005 — phase coverage.

PR 1's observability layer decomposes every operation span into protocol
phases measured in units of ``D`` (``readTag`` = 2D, ``lattice`` = 2D,
...), and EXPERIMENTS.md's latency tables are sums over those phases.
The decomposition is only exhaustive if every client operation actually
annotates its phases.  This rule requires every *public* generator
method of a :class:`ProtocolNode` subclass to reach a
``self.phase_enter(...)`` call — directly or through the ``self.<helper>()``
generators it delegates to (resolved along the project-local MRO, so
``scan()`` delegating to an annotated ``_read_tag()`` passes).

Zero-communication operations (a local-read SCAN that never waits) are
the legitimate exception: they contribute 0 to every phase by
construction.  Suppress with ``# lint: ignore[RL005]`` and a comment
saying so.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectIndex, is_generator
from repro.lint.rules.base import Rule


class PhaseCoverageRule(Rule):
    rule_id = "RL005"
    fix_hint = (
        "bracket the op's protocol phases with self.phase_enter(name)/"
        "self.phase_exit(name), or delegate to an annotated helper; "
        "zero-communication ops may suppress with a justification"
    )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.protocol_classes_in(module):
            for name, fn in cls.methods.items():
                if name.startswith("_") or not is_generator(fn):
                    continue
                if not index.method_has_phases(cls.name, name):
                    yield self.finding(
                        module,
                        fn,
                        f"public operation {cls.name}.{name} has no "
                        f"phase annotations; its span cannot be "
                        f"decomposed into units of D",
                    )


__all__ = ["PhaseCoverageRule"]

"""RL006 — view-plane encapsulation.

The view vector's representation (interned bitset rows handed out as
``(interner, mask)`` view handles, :mod:`repro.core.views`) is private:
the differential tests swap the frozenset oracle in through the public
``ViewVector`` API, and the representation has changed before.  That is
only sound while every other module goes through that API — code that
reaches into ``V._rows``, a handle's ``_mask`` or the interner's tables
is coupled to one representation and silently breaks (or worse,
diverges) under another.

The check: outside the view-plane module(s), no attribute access on a
*non-self* receiver may name a data-plane private attribute
(``_rows``, ``_interner``, the interner tables, the incremental-EQ
state, a view handle's ``_mask``/``_frozen``).  ``self.<attr>`` stays
allowed everywhere — an unrelated class defining its own ``_dirty`` is
not a view-plane violation; reaching into *another* object's ``_dirty``
is.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectIndex
from repro.lint.rules.base import Rule


class ViewPlaneEncapsulationRule(Rule):
    rule_id = "RL006"
    summary = (
        "representation-private view-vector/interner attribute accessed "
        "outside the view-plane module"
    )
    fix_hint = (
        "use the ViewVector API (row/restricted_row/eq_predicate/"
        "matching_restricted_rows/cache_stats/prune_below) so the "
        "representation stays private"
    )

    def check(
        self, module: ModuleInfo, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Finding]:
        if config.is_view_plane_module(module.path):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in config.view_plane_private_attrs
                and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            ):
                yield self.finding(
                    module,
                    node,
                    f"access to data-plane private attribute {node.attr!r} "
                    f"outside the view-plane module couples this code to "
                    f"one ViewVector representation",
                )


__all__ = ["ViewPlaneEncapsulationRule"]

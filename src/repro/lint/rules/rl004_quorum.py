"""RL004 — quorum arithmetic.

Every wait condition in the paper is a quorum count over ``n`` and ``f``
(``n − f`` acks, ``f + 1`` echoes, ``n − 2f`` equivalence witnesses...).
A numeric literal in such a comparison pins the code to one cluster
size: correct in the demo, silently wrong for every other ``(n, f)``.
Float arithmetic on counts is the sibling bug — ``n / 2`` is a float and
``count >= n / 2`` admits off-by-half thresholds.  Two checks, scoped to
:class:`ProtocolNode` subclasses:

1. ``len(...) <op> <integer literal ≥ 2>`` (either side) — magic-number
   quorums; thresholds must be expressions over ``self.n``/``self.f``
   (e.g. ``self.quorum_size``) or a named constant derived from them.
2. True division (``/``) in any expression involving ``self.n``,
   ``self.f`` or ``len(...)`` — counts are integers; use ``//`` and
   explicit ``+ 1`` ceilings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectIndex
from repro.lint.rules.base import Rule

_THRESHOLD_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_len_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    )


def _is_magic_int(node: ast.expr) -> bool:
    """A bare integer literal ≥ 2 (0/1 are emptiness/existence checks,
    not quorums)."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
        and node.value >= 2
    )


def _mentions_count(node: ast.expr) -> bool:
    """Does the expression involve ``self.n``, ``self.f`` or ``len(...)``?"""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr in {"n", "f"}
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            return True
        if _is_len_call(sub):
            return True
    return False


class QuorumArithmeticRule(Rule):
    rule_id = "RL004"
    fix_hint = (
        "express thresholds via self.n/self.f (e.g. self.quorum_size == "
        "n - f) and use integer // arithmetic on counts"
    )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.protocol_classes_in(module):
            for fn in cls.methods.values():
                yield from self._check_function(module, cls.name, fn)

    def _check_function(
        self,
        module: ModuleInfo,
        class_name: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(module, class_name, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if _mentions_count(node):
                    yield self.finding(
                        module,
                        node,
                        f"float division on a count in {class_name}; "
                        f"quorum arithmetic must stay integral (use //)",
                    )

    def _check_compare(
        self, module: ModuleInfo, class_name: str, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, _THRESHOLD_OPS):
                continue
            for count_side, limit_side in ((left, right), (right, left)):
                if _is_len_call(count_side) and _is_magic_int(limit_side):
                    value = limit_side.value  # type: ignore[attr-defined]
                    yield self.finding(
                        module,
                        limit_side,
                        f"magic quorum threshold {value} in {class_name}; "
                        f"derive it from self.n/self.f so it scales with "
                        f"the cluster",
                    )


__all__ = ["QuorumArithmeticRule"]

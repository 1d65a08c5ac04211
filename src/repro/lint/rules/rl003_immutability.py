"""RL003 — message immutability.

Messages are broadcast to ``n`` destinations as one Python object; the
simulator does not copy payloads (and must not, to stay O(1) per send).
A handler that mutates a received message therefore mutates what every
*other* recipient will observe — a causality violation no schedule can
produce in a real network.  Two checks:

1. Every ``@dataclass`` in a wire-message module (``*messages*.py``)
   must be declared ``frozen=True``.
2. Inside ``on_message`` and every registered ``@handles`` method, no
   attribute/element assignment (or deletion) may target the received
   payload parameter.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import is_messages_module
from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectIndex, registered_kind
from repro.lint.rules.base import Rule


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "dataclass"
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    if isinstance(node, ast.Call):
        return _is_dataclass_decorator(node.func)
    return False


def _frozen_true(node: ast.expr) -> bool:
    """Does this @dataclass decorator pass ``frozen=True``?"""
    if not isinstance(node, ast.Call):
        return False  # bare @dataclass: frozen defaults to False
    for kw in node.keywords:
        if kw.arg == "frozen":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _payload_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """The message parameter of a handler ``(self, src, payload)`` — the
    last positional argument."""
    args = fn.args.args
    if len(args) >= 3:
        return args[-1].arg
    return None


def _root_name(node: ast.expr) -> str | None:
    """Leftmost name of an attribute/subscript chain (``m.a[0].b`` -> ``m``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class MessageImmutabilityRule(Rule):
    rule_id = "RL003"
    fix_hint = (
        "declare message dataclasses @dataclass(frozen=True, slots=True); "
        "build a new message instead of mutating a received one"
    )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        if is_messages_module(module.path):
            yield from self._check_frozen(module)
        for cls in index.protocol_classes_in(module):
            for name, fn in cls.methods.items():
                if name == "on_message" or registered_kind(fn) is not None:
                    yield from self._check_payload_mutation(module, cls.name, fn)

    def _check_frozen(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [
                d for d in node.decorator_list if _is_dataclass_decorator(d)
            ]
            if decorators and not any(_frozen_true(d) for d in decorators):
                yield self.finding(
                    module,
                    node,
                    f"dataclass {node.name!r} in a message module is not "
                    f"frozen; shared payloads must be immutable",
                )

    def _check_payload_mutation(
        self,
        module: ModuleInfo,
        class_name: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        param = _payload_param(fn)
        if param is None:
            return
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                if _root_name(target) == param:
                    yield self.finding(
                        module,
                        target,
                        f"{class_name}.{fn.name} mutates the received "
                        f"message {param!r}; other recipients share this "
                        f"object",
                    )


__all__ = ["MessageImmutabilityRule"]

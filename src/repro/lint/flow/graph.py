"""What the surviving rules read off the protocol classes' source.

- **wait sites** — every ``WaitUntil(predicate, ...)`` in the project,
  with the class and outermost function it sits in and its resolved
  predicate body (a lambda's expression, or the statements of a local
  ``def`` passed by name).  RL009 hands these to :mod:`symbolic`.
- **registered kind** — the message type a method is registered for with
  ``@handles(...)``; RL001 and RL003 treat such a method as a handler.

Which kinds are sent, which handler consumes them and which fields they
carry are not collected here: ``ProtocolNode._handlers`` and the frozen
slotted message dataclasses decide those exactly, at the first delivery
(DESIGN.md, "Static rules only where no run can decide").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.lint.project import ModuleInfo

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(slots=True)
class WaitSite:
    """One ``WaitUntil(predicate, ...)`` with its resolved predicate."""

    predicate: list[ast.AST]
    #: the outermost function around the wait (the method, for a class)
    enclosing_fn: FunctionNode
    cls: str | None
    path: str


def wait_sites(modules: Iterable[ModuleInfo]) -> list[WaitSite]:
    """Every wait site of ``modules``, in source order per module."""
    return [site for module in modules for site in _module_waits(module)]


def _module_waits(module: ModuleInfo) -> list[WaitSite]:
    out: list[WaitSite] = []

    def walk(node: ast.AST, cls: str | None, fn: FunctionNode | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = fn if fn is not None else node
        elif (
            isinstance(node, ast.Call)
            and fn is not None
            and node.args
            and _is_wait_until(node.func)
        ):
            predicate = _resolve_predicate(node.args[0], fn)
            if predicate is not None:
                out.append(WaitSite(predicate, fn, cls, module.path))
        for child in ast.iter_child_nodes(node):
            walk(child, cls, fn)

    walk(module.tree, None, None)
    return out


def _is_wait_until(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "WaitUntil"
    if isinstance(func, ast.Attribute):
        return func.attr == "WaitUntil"
    return False


def _resolve_predicate(arg: ast.expr, fn: FunctionNode) -> list[ast.AST] | None:
    """The predicate body: a lambda's expression, or the statements of a
    named local ``def`` passed by reference."""
    if isinstance(arg, ast.Lambda):
        return [arg.body]
    if isinstance(arg, ast.Name):
        for node in ast.walk(fn):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == arg.id
            ):
                return list(node.body)
    return None


def registered_kind(fn: FunctionNode) -> ast.expr | None:
    """The message type ``fn`` is registered for in its class's handler
    table — the argument of its ``@handles(...)`` decorator — or None."""
    for dec in fn.decorator_list:
        if isinstance(dec, ast.Call) and len(dec.args) == 1:
            func = dec.func
            if getattr(func, "id", getattr(func, "attr", None)) == "handles":
                return dec.args[0]
    return None


__all__ = ["WaitSite", "registered_kind", "wait_sites"]

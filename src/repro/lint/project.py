"""Whole-project index: the cross-module facts single-file AST passes miss.

Several rules need to know things about a class that its own module does
not say: ``SsoFastScan`` is a :class:`ProtocolNode` because ``EqAso`` is,
and ``EqAso`` is because ``runtime/protocol.py`` says so; a handler that
iterates ``self._seen`` is iterating a set because ``__init__`` (possibly
a *base class* ``__init__``) assigned ``set()`` to it.  The index is
built once per run from every parsed module and answers:

- which classes are (transitive, cross-module) ``ProtocolNode`` subclasses;
- method lookup along a class's project-local MRO approximation;
- which ``self.<attr>`` names hold sets (assigned/annotated in any
  ``__init__`` along the MRO);
- whether a method transitively performs phase annotation
  (``self.phase_enter(...)`` reachable through ``self.<helper>()`` calls);
- which message kind a method is registered for with ``@handles(...)``.

Resolution is by *name*, not by import graph: base-class names are
matched against all project class names.  That is deliberately
approximate — a linter should over-approximate "is a protocol node"
rather than silently skip a renamed import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: The root of the protocol-node hierarchy (``repro/runtime/protocol.py``).
PROTOCOL_BASE = "ProtocolNode"

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> original name for ``from m import X as Y`` imports.

    Only ``ImportFrom`` aliases matter for base-class resolution: a base
    written as ``m.EqAso`` already resolves through its attribute name,
    but ``from repro.core.eq_aso import EqAso as Base`` would otherwise
    hide the subclass relation behind the alias.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.asname is not None and alias.asname != alias.name:
                    aliases[alias.asname] = alias.name
    return aliases


def _base_name(node: ast.expr) -> str | None:
    """Unqualified name of a base-class expression (``m.EqAso`` -> ``EqAso``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] etc.
        return _base_name(node.value)
    return None


def is_self_call(node: ast.Call, method: str | None = None) -> bool:
    """``self.<method>(...)`` (any method when ``method`` is None)."""
    fn = node.func
    return (
        isinstance(fn, ast.Attribute)
        and isinstance(fn.value, ast.Name)
        and fn.value.id == "self"
        and (method is None or fn.attr == method)
    )


def is_generator(fn: FunctionNode) -> bool:
    """Does ``fn`` itself contain a yield (ignoring nested functions)?"""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested function's yields are its own
        stack.extend(ast.iter_child_nodes(node))
    return False


def registered_kind(fn: FunctionNode) -> ast.expr | None:
    """The message type ``fn`` is registered for in its class's handler
    table — the argument of its ``@handles(...)`` decorator — or None.
    RL001 and RL003 treat such a method as a handler."""
    for dec in fn.decorator_list:
        if isinstance(dec, ast.Call) and len(dec.args) == 1:
            func = dec.func
            if getattr(func, "id", getattr(func, "attr", None)) == "handles":
                return dec.args[0]
    return None


@dataclass(slots=True)
class ClassInfo:
    """One class definition somewhere in the project."""

    name: str
    node: ast.ClassDef
    base_names: tuple[str, ...]
    methods: dict[str, FunctionNode] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source file."""

    path: str
    tree: ast.Module
    source: str
    classes: list[ClassInfo] = field(default_factory=list)


_SET_TYPE_NAMES = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}


def _is_set_annotation(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in _SET_TYPE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_TYPE_NAMES
    if isinstance(node, ast.Subscript):  # set[...] / Set[...]
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: crude containment test
        return any(t in node.value for t in ("set[", "Set[", "frozenset"))
    return False


def is_set_expression(node: ast.expr) -> bool:
    """Is ``node`` statically known to produce a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expression(node.left) or is_set_expression(node.right)
    return False


class ProjectIndex:
    """Cross-module class/method facts for a set of parsed modules."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.classes: dict[str, ClassInfo] = {}
        for mod in modules:
            aliases = _import_aliases(mod.tree)
            for stmt in ast.walk(mod.tree):
                if not isinstance(stmt, ast.ClassDef):
                    continue
                bases = tuple(
                    aliases.get(b, b)
                    for b in map(_base_name, stmt.bases)
                    if b is not None
                )
                info = ClassInfo(stmt.name, stmt, bases)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods[item.name] = item
                mod.classes.append(info)
                # last definition wins on name collisions; acceptable for
                # an over-approximating linter
                self.classes[stmt.name] = info
        self._protocol_names = self._close_over_bases({PROTOCOL_BASE})
        self._phase_memo: dict[tuple[str, str], bool] = {}
        self._set_attr_memo: dict[str, frozenset[str]] = {}
        #: scratch space for whole-project analyses (RL009's findings and
        #: fault models) computed once per index, not once per module
        self.analysis_cache: dict[str, object] = {}

    # -- subclass closure -----------------------------------------------
    def _close_over_bases(self, roots: set[str]) -> frozenset[str]:
        known = set(roots)
        changed = True
        while changed:
            changed = False
            for info in self.classes.values():
                if info.name in known:
                    continue
                if any(b in known for b in info.base_names):
                    known.add(info.name)
                    changed = True
        return frozenset(known)

    def is_protocol_class(self, name: str) -> bool:
        return name in self._protocol_names and name != PROTOCOL_BASE

    def protocol_classes_in(self, module: ModuleInfo) -> list[ClassInfo]:
        return [c for c in module.classes if self.is_protocol_class(c.name)]

    # -- method resolution ----------------------------------------------
    def mro(self, class_name: str) -> list[ClassInfo]:
        """Project-local linearization: the class, then its bases
        depth-first (good enough for method lookup in a linter)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                return
            out.append(info)
            for base in info.base_names:
                visit(base)

        visit(class_name)
        return out

    def resolve_method(self, class_name: str, method: str) -> FunctionNode | None:
        for info in self.mro(class_name):
            if method in info.methods:
                return info.methods[method]
        return None

    # -- set-typed attributes -------------------------------------------
    def set_typed_attrs(self, class_name: str) -> frozenset[str]:
        """``self.<attr>`` names assigned or annotated as sets in any
        ``__init__`` along the MRO."""
        cached = self._set_attr_memo.get(class_name)
        if cached is not None:
            return cached
        attrs: set[str] = set()
        for info in self.mro(class_name):
            init = info.methods.get("__init__")
            if init is None:
                continue
            for node in ast.walk(init):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if _is_set_annotation(annotation) or (
                        value is not None and is_set_expression(value)
                    ):
                        attrs.add(target.attr)
        result = frozenset(attrs)
        self._set_attr_memo[class_name] = result
        return result

    # -- phase-annotation reachability ----------------------------------
    def method_has_phases(self, class_name: str, method: str) -> bool:
        """Does ``class_name.method`` (or any ``self.<helper>()`` it
        transitively calls, resolved along the MRO) call
        ``self.phase_enter``?"""
        key = (class_name, method)
        memo = self._phase_memo
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard: recursion contributes nothing
        fn = self.resolve_method(class_name, method)
        if fn is None:
            return False
        result = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if is_self_call(node, "phase_enter"):
                result = True
                break
            if is_self_call(node):
                callee = node.func.attr  # type: ignore[union-attr]
                if callee != method and self.method_has_phases(
                    class_name, callee
                ):
                    result = True
                    break
        memo[key] = result
        return result


__all__ = [
    "ClassInfo",
    "FunctionNode",
    "ModuleInfo",
    "PROTOCOL_BASE",
    "ProjectIndex",
    "is_generator",
    "is_self_call",
    "is_set_expression",
    "registered_kind",
]

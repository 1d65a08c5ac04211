"""RL010 — unsatisfiable waits (the static half of liveness).

A ``WaitUntil`` predicate only ever becomes true because *message
arrival* mutates the state it reads: the enclosing operation is parked
at the yield, so progress must come from a registered handler,
``on_message`` or a component delivery callback such as RBC's.  This
rule checks, per wait site:

1. which ``self`` attributes the predicate depends on — direct reads,
   reads through self-method/property calls (depth-limited), and local
   closure variables aliasing a ``self`` attribute (in either
   assignment direction, e.g. ``self._rounds[kind][key] = replies``);
2. whether *any* of those attributes is mutated somewhere in the
   handler closure (registered handlers, ``on_message`` and component
   callbacks, expanded through self-calls along the MRO) by code whose
   governing arm — the handler's registered kind, or a match/isinstance
   arm inside it — is a message type that reachable code actually
   sends (unconditional mutations and arms on unindexed classes count
   as live).

A wait none of whose dependencies can ever be touched by a deliverable
message will hang every caller — the classic symptom being a handler
that was renamed or an ack set the refactor stopped filling.

Sites are analyzed under every concrete protocol class whose *public*
generator operations reach them (MRO-resolved self-call closure, so an
inherited helper overridden in a subclass is attributed correctly), and
flagged only when unsatisfiable under **all** reaching classes.
``lambda: False`` waits are flagged outright; ``lambda: True`` and
predicates with no analyzable dependencies are left alone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.flow.graph import (
    ClassResolver,
    FlowGraph,
    WaitSite,
    build_flow_graph,
    local_aliases,
    method_mutations,
    registered_kind,
)
from repro.lint.project import ModuleInfo, ProjectIndex, is_generator
from repro.lint.rules.base import Rule

#: how many self-method hops a predicate dependency walk follows
_DEPTH_LIMIT = 3


def _resolver_for(index: ProjectIndex, module_path: str) -> ClassResolver:
    module = index.module_by_path.get(module_path)
    aliases = module.import_aliases if module is not None else {}

    def resolve(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            name = aliases.get(expr.id, expr.id)
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        else:
            return None
        return name if index.is_dataclass_name(name) else None

    return resolve


def _self_attr_refs(nodes: list[ast.AST]) -> set[str]:
    """Every ``self.<attr>`` referenced anywhere under ``nodes``."""
    out: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                out.add(node.attr)
    return out


class _ClassAnalysis:
    """Reachability and live-mutation facts for one protocol class."""

    def __init__(self, index: ProjectIndex, cls: str, graph: FlowGraph) -> None:
        self.cls = cls
        self.index = index
        self.reachable_fn_ids = self._closure(self._public_ops())
        handler_roots = ["on_message", *index.component_callbacks(cls)]
        for info in index.mro(cls):
            handler_roots += [
                name
                for name, fn in info.methods.items()
                if registered_kind(fn) is not None
            ]
        self.live_attrs = self._live_attrs(
            self._closure_fns(handler_roots), graph
        )

    def _method_names(self) -> set[str]:
        names: set[str] = set()
        for info in self.index.mro(self.cls):
            names.update(info.methods)
        return names

    def _public_ops(self) -> list[str]:
        out = []
        for name in self._method_names():
            if name.startswith("_"):
                continue
            fn = self.index.resolve_method(self.cls, name)
            if fn is not None and is_generator(fn):
                out.append(name)
        return out

    def _closure_fns(
        self, roots: list[str]
    ) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
        """MRO-resolved self-call closure: every method transitively
        referenced as ``self.<name>`` from the roots, with the module
        path of the class that defines it."""
        out: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]] = []
        seen: set[int] = set()
        queue = list(roots)
        queued = set(queue)
        while queue:
            name = queue.pop()
            resolved = self._resolve_with_module(name)
            if resolved is None:
                continue
            fn, module_path = resolved
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            out.append((fn, module_path))
            for ref in _self_attr_refs(list(fn.body)):
                if ref not in queued:
                    queued.add(ref)
                    queue.append(ref)
        return out

    def _closure(self, roots: list[str]) -> set[int]:
        return {id(fn) for fn, _ in self._closure_fns(roots)}

    def _resolve_with_module(
        self, method: str
    ) -> tuple[ast.FunctionDef | ast.AsyncFunctionDef, str] | None:
        for info in self.index.mro(self.cls):
            if method in info.methods:
                return info.methods[method], info.module_path
        return None

    def _live_attrs(
        self,
        handler_fns: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]],
        graph: FlowGraph,
    ) -> frozenset[str]:
        """Attributes some deliverable message can mutate: the governing
        arm is unconditional, a type reachable code sends, or a class
        the index cannot see (conservatively assumed live)."""
        sent = graph.sent_names
        live: set[str] = set()
        for fn, module_path in handler_fns:
            resolver = _resolver_for(self.index, module_path)
            # a registered handler's whole body is the arm of its kind
            kind = registered_kind(fn)
            whole = resolver(kind) if kind is not None else None
            for mutation in method_mutations(fn, resolver):
                arm = mutation.arm if mutation.arm is not None else whole
                if arm is None or arm in sent or arm not in graph.schemas:
                    live.add(mutation.attr)
        return frozenset(live)

    def predicate_deps(self, site: WaitSite) -> frozenset[str]:
        """``self`` attributes the predicate reads, walking through
        self-method and property bodies up to :data:`_DEPTH_LIMIT` hops,
        plus closure locals aliasing a ``self`` attribute."""
        deps: set[str] = set()
        visited: set[int] = set()

        def walk(nodes: list[ast.AST], depth: int) -> None:
            for ref in _self_attr_refs(nodes):
                fn = self.index.resolve_method(self.cls, ref)
                if fn is None:
                    deps.add(ref)
                elif depth < _DEPTH_LIMIT and id(fn) not in visited:
                    visited.add(id(fn))
                    walk(list(fn.body), depth + 1)

        walk(site.predicate, 0)
        aliases = local_aliases(site.enclosing_fn)
        for root in site.predicate:
            for node in ast.walk(root):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in aliases
                ):
                    deps.update(aliases[node.id])
        return frozenset(deps)


def _constant_predicate(predicate: list[ast.AST]) -> bool | None:
    """True/False for ``lambda: True`` / ``lambda: False`` (also via a
    named def whose body is a single constant return), else None."""
    if len(predicate) != 1:
        return None
    node = predicate[0]
    if isinstance(node, ast.Return):
        node = node.value if node.value is not None else node
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return None


class UnsatisfiableWaitRule(Rule):
    rule_id = "RL010"
    summary = "every wait predicate can be satisfied by message arrival"
    fix_hint = (
        "make some on_message arm (for a message that is actually sent) "
        "mutate the state the predicate reads, or remove the wait"
    )

    def check(
        self, module: ModuleInfo, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Finding]:
        for finding in self._project_findings(index):
            if finding.path == module.path:
                yield finding

    def _project_findings(self, index: ProjectIndex) -> list[Finding]:
        cached = index.analysis_cache.get("rl010_findings")
        if isinstance(cached, list):
            return cached
        graph = build_flow_graph(index)
        analyses = [
            _ClassAnalysis(index, info.name, graph)
            for info in index.classes.values()
            if index.is_protocol_class(info.name)
        ]
        findings: list[Finding] = []
        for site in graph.waits:
            reaching = [
                a
                for a in analyses
                if id(site.enclosing_fn) in a.reachable_fn_ids
            ]
            if not reaching:
                continue
            constant = _constant_predicate(site.predicate)
            if constant is True:
                continue
            label = (
                f" ({site.description!r})" if site.description else ""
            )
            if constant is False:
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        severity=self.severity,
                        path=site.path,
                        line=site.call.lineno,
                        col=site.call.col_offset + 1,
                        message=(
                            f"wait{label} on a constant-false predicate "
                            "can never complete"
                        ),
                        fix_hint=self.fix_hint,
                    )
                )
                continue
            stuck: list[str] = []
            deps_shown: frozenset[str] = frozenset()
            satisfiable = False
            for analysis in reaching:
                deps = analysis.predicate_deps(site)
                if not deps:
                    satisfiable = True  # nothing analyzable: stay quiet
                    break
                if deps & analysis.live_attrs:
                    satisfiable = True
                    break
                stuck.append(analysis.cls)
                deps_shown = deps_shown | deps
            if satisfiable or not stuck:
                continue
            shown = ", ".join(sorted(f"self.{d}" for d in deps_shown))
            classes = ", ".join(sorted(stuck))
            findings.append(
                Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=site.path,
                    line=site.call.lineno,
                    col=site.call.col_offset + 1,
                    message=(
                        f"unsatisfiable wait{label}: the predicate "
                        f"depends on {shown}, which no message handler "
                        f"of {classes} ever mutates on a deliverable arm"
                    ),
                    fix_hint=self.fix_hint,
                )
            )
        findings.sort(key=Finding.sort_key)
        index.analysis_cache["rl010_findings"] = findings
        return findings


__all__ = ["UnsatisfiableWaitRule"]

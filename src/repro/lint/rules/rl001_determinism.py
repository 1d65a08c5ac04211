"""RL001 — determinism.

Every replayable-experiment claim in this repo (byte-stable traces, the
Table I exponents, the seed-indexed ablation failures) assumes that the
only source of randomness is ``repro/sim/rng`` and that protocol code
never iterates an unordered collection.  Two checks:

1. **Banned imports** — ``random``, ``time``, ``datetime``, ``uuid``,
   ``secrets`` (and ``os.urandom()`` calls) anywhere except the rng
   module allowlist.  Code that needs randomness takes a
   :class:`repro.sim.rng.SeededRng`; code that needs time reads the
   simulator clock.  ``multiprocessing`` is banned too, with a scoped
   exemption for ``repro/parallel/`` only: process fan-out is allowed
   solely through :func:`repro.parallel.run_tasks`, whose per-task seed
   derivation and ordered merge keep sweeps byte-identical to serial
   runs — a pool rolled anywhere else reintroduces scheduling
   nondeterminism with none of those guarantees.
2. **Unordered iteration** — inside ``on_message``/``on_start``, any
   registered ``@handles`` method and any generator method of a
   :class:`ProtocolNode` subclass, a ``for`` loop
   (or comprehension) over a set-valued expression must be wrapped in
   ``sorted(...)``.  Set iteration order depends on insertion history
   and hash seeds, so an unsorted loop silently breaks replay and
   divergence-checking between the simulator and asyncio runtimes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import (
    NONDETERMINISTIC_MODULES,
    PROCESS_MODULES,
    is_parallel_module,
    is_rng_module,
)
from repro.lint.findings import Finding
from repro.lint.project import (
    ClassInfo,
    ModuleInfo,
    ProjectIndex,
    is_generator,
    is_set_expression,
    registered_kind,
)
from repro.lint.rules.base import Rule, imported_module_names

#: handler entry points checked for unordered iteration in addition to
#: generator (client-operation) methods
_HANDLER_METHODS = {"on_message", "on_start"}


def _local_set_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names assigned a set-valued expression anywhere in ``fn``."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and is_set_expression(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and isinstance(node.target, ast.Name)
            and is_set_expression(node.value)
        ):
            names.add(node.target.id)
    return names


class DeterminismRule(Rule):
    rule_id = "RL001"
    fix_hint = (
        "route randomness through repro.sim.rng.SeededRng (derive a child "
        "stream with .child(label)); wrap set iteration in sorted(...)"
    )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        if not is_rng_module(module.path):
            yield from self._check_imports(module)
        for cls in index.protocol_classes_in(module):
            yield from self._check_unordered_iteration(module, index, cls)

    # -- check 1: banned imports ----------------------------------------
    def _check_imports(self, module: ModuleInfo) -> Iterator[Finding]:
        in_parallel = is_parallel_module(module.path)
        for name, node in imported_module_names(module.tree):
            if name in NONDETERMINISTIC_MODULES:
                yield self.finding(
                    module,
                    node,
                    f"import of nondeterministic module {name!r} outside "
                    f"sim/rng breaks replayability",
                )
            elif name in PROCESS_MODULES and not in_parallel:
                yield self.finding(
                    module,
                    node,
                    f"import of process-spawning module {name!r} outside "
                    f"repro/parallel; fan work out through "
                    f"repro.parallel.run_tasks, which keeps sweeps "
                    f"byte-identical to serial runs",
                    fix_hint="call repro.parallel.run_tasks(worker, tasks, "
                    "workers=N) instead of rolling a pool",
                )
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "urandom"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                yield self.finding(
                    module,
                    node,
                    "os.urandom() is nondeterministic; derive bytes from a "
                    "SeededRng stream instead",
                )

    # -- check 2: unordered iteration -----------------------------------
    def _check_unordered_iteration(
        self, module: ModuleInfo, index: ProjectIndex, cls: ClassInfo
    ) -> Iterator[Finding]:
        attr_sets = index.set_typed_attrs(cls.name)
        for name, fn in cls.methods.items():
            if (
                name not in _HANDLER_METHODS
                and registered_kind(fn) is None
                and not is_generator(fn)
            ):
                continue
            local_sets = _local_set_names(fn)

            def is_set_valued(expr: ast.expr) -> bool:
                if is_set_expression(expr):
                    return True
                if isinstance(expr, ast.Name) and expr.id in local_sets:
                    return True
                return (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in attr_sets
                )

            for node in ast.walk(fn):
                iter_expr: ast.expr | None = None
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iter_expr = node.iter
                elif isinstance(node, ast.comprehension):
                    iter_expr = node.iter
                if iter_expr is None:
                    continue
                if isinstance(iter_expr, ast.Call) and isinstance(
                    iter_expr.func, ast.Name
                ):
                    if iter_expr.func.id == "sorted":
                        continue
                if is_set_valued(iter_expr):
                    where = f"{cls.name}.{name}"
                    yield self.finding(
                        module,
                        iter_expr,
                        f"iteration over a set in {where} has "
                        f"nondeterministic order; wrap it in sorted(...)",
                        fix_hint="wrap the iterable in sorted(...) with an "
                        "explicit key if elements are not comparable",
                    )


__all__ = ["DeterminismRule"]

"""RL009 — symbolic quorum safety.

For every lower-bound count comparison inside a ``WaitUntil`` predicate
(``len(replies) >= T`` and friends), parse ``T`` as a linear form over
``n``/``f``/``quorum_size`` and *prove* that two waits of that size must
intersect under the class's declared fault model — in an honest node,
when the model is Byzantine.  RL004 stays beside it for what is not a
``WaitUntil`` threshold: handler-side count tests and float division.

**Wait sites.**  Every ``WaitUntil(predicate, ...)`` in the project is
collected with the class and outermost function it sits in and its
resolved predicate body (a lambda's expression, or the statements of a
local ``def`` passed by name).  A wait inherited from a base protocol
class is analyzed under *that* class's model; methods of
``ProtocolNode`` itself — ``quorum_round``, the one count-wait every
algorithm shares — and of mixins (non-protocol helper classes) are
analyzed under the model of each protocol class that inherits them,
with identical findings deduplicated.

**Fault model.**  Read off the ``if n <= k*f: raise`` guard in
``__init__`` along the MRO — ``k = 2`` is the crash model (``n > 2f``),
``k >= 3`` the Byzantine model (``n > 3f``); a class with no guard is
held to the crash model, the weakest assumption in this reproduction.

**Arithmetic.**  A threshold ``T`` is an integer linear form
``a·n + b·f + c``.  Two waits of size ``T`` intersect in every execution
iff ``2T − n >= 1``; under the Byzantine model the intersection must
contain an *honest* node, i.e. ``2T − n >= f + 1``.  Substituting the
model's boundary ``n = k·f + m + s`` (``f, s >= 0`` free) turns the
excess ``E = 2T − n − margin`` into a linear form in ``f`` and ``s``;
the threshold is safe iff every coefficient (and the constant) of that
form is non-negative.  When it is not, the finding carries the smallest
violating ``(n, f)`` in the model's region: e.g. the quorum-weakened
chaos mutants wait on **1** ack, and at ``n = 3, f = 1`` two size-1
"quorums" are disjoint — exactly the linearizability violations the
chaos campaign then exhibits dynamically.  Thresholds the linear parser
cannot express (``//``, data-dependent bounds) are skipped, not guessed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.lint.findings import Finding
from repro.lint.project import FunctionNode, ModuleInfo, ProjectIndex
from repro.lint.rules.base import Rule


# -- wait sites ---------------------------------------------------------
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


# -- linear forms over n and f -------------------------------------------
@dataclass(frozen=True, slots=True)
class Lin:
    """The integer linear form ``n*N + f*F + c``."""

    n: int = 0
    f: int = 0
    c: int = 0

    def __add__(self, other: "Lin") -> "Lin":
        return Lin(self.n + other.n, self.f + other.f, self.c + other.c)

    def __sub__(self, other: "Lin") -> "Lin":
        return Lin(self.n - other.n, self.f - other.f, self.c - other.c)

    def __neg__(self) -> "Lin":
        return Lin(-self.n, -self.f, -self.c)

    def scaled(self, k: int) -> "Lin":
        return Lin(self.n * k, self.f * k, self.c * k)

    def at(self, n: int, f: int) -> int:
        return self.n * n + self.f * f + self.c


def parse_linear(expr: ast.expr) -> Lin | None:
    """Parse ``expr`` as a linear form over ``n``/``f``, or None.

    Accepts ``self.n``, ``self.f``, ``self.quorum_size`` (= ``n − f``),
    the bare names ``n``/``f`` (constructor locals in ``__init__``
    guards), integer literals, ``+``, ``-``, unary ``-`` and
    multiplication by a constant.  Anything else — ``//``, ``len()``,
    attribute chains — makes the expression non-linear and unparseable,
    and the caller skips it rather than guessing.
    """
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, int) and not isinstance(expr.value, bool):
            return Lin(c=expr.value)
        return None
    if isinstance(expr, ast.Name):
        if expr.id == "n":
            return Lin(n=1)
        if expr.id == "f":
            return Lin(f=1)
        return None
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            if expr.attr == "n":
                return Lin(n=1)
            if expr.attr == "f":
                return Lin(f=1)
            if expr.attr == "quorum_size":
                return Lin(n=1, f=-1)
        return None
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        inner = parse_linear(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.BinOp):
        left = parse_linear(expr.left)
        right = parse_linear(expr.right)
        if left is None or right is None:
            return None
        if isinstance(expr.op, ast.Add):
            return left + right
        if isinstance(expr.op, ast.Sub):
            return left - right
        if isinstance(expr.op, ast.Mult):
            if left.n == 0 and left.f == 0:
                return right.scaled(left.c)
            if right.n == 0 and right.f == 0:
                return left.scaled(right.c)
        return None
    return None


# -- fault models ----------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FaultModel:
    """The declared valid region ``n >= k·f + m``."""

    k: int
    m: int
    declared: bool

    @property
    def byzantine(self) -> bool:
        return self.k >= 3

    def describe(self) -> str:
        if self.k == 2 and self.m == 1:
            base = "crash (n > 2f)"
        elif self.k == 3 and self.m == 1:
            base = "Byzantine (n > 3f)"
        else:
            base = f"n >= {self.k}f + {self.m}"
        return base if self.declared else base + ", assumed by default"


#: No ``n <= k*f`` constructor guard found: assume the crash model, the
#: weakest assumption used anywhere in this reproduction.
DEFAULT_MODEL = FaultModel(k=2, m=1, declared=False)


def _guard_model(fn: FunctionNode) -> FaultModel | None:
    """A fault model declared by ``if <n-f relation>: raise`` in ``fn``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        if not any(isinstance(stmt, ast.Raise) for stmt in node.body):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and len(test.comparators) == 1
        ):
            continue
        left = parse_linear(test.left)
        right = parse_linear(test.comparators[0])
        if left is None or right is None:
            continue
        op = test.ops[0]
        # normalize to the *valid* region V >= 0 (the guard raises on
        # its complement)
        if isinstance(op, ast.LtE):  # raise if L <= R  ->  L - R - 1 >= 0
            valid = left - right - Lin(c=1)
        elif isinstance(op, ast.Lt):  # raise if L < R   ->  L - R >= 0
            valid = left - right
        elif isinstance(op, ast.GtE):  # raise if L >= R ->  R - L - 1 >= 0
            valid = right - left - Lin(c=1)
        elif isinstance(op, ast.Gt):  # raise if L > R   ->  R - L >= 0
            valid = right - left
        else:
            continue
        if valid.n != 1:
            continue
        k, m = -valid.f, -valid.c
        if k >= 1:
            return FaultModel(k=k, m=m, declared=True)
    return None


def fault_model_for(index: ProjectIndex, class_name: str) -> FaultModel:
    """The fault model of ``class_name``: the first constructor guard
    found along the MRO (the subclass's own guard wins — ``byz_aso``
    raises on ``n <= 3f`` before delegating to the crash-model base),
    else :data:`DEFAULT_MODEL`."""
    cache = index.analysis_cache.setdefault("fault_models", {})
    assert isinstance(cache, dict)
    if class_name in cache:
        model = cache[class_name]
        assert isinstance(model, FaultModel)
        return model
    result = DEFAULT_MODEL
    for info in index.mro(class_name):
        init = info.methods.get("__init__")
        if init is None:
            continue
        model = _guard_model(init)
        if model is not None:
            result = model
            break
    cache[class_name] = result
    return result


# -- intersection ------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QuorumViolation:
    """A concrete ``(n, f)`` in the fault model's region where two waits
    of the given threshold need not intersect (in an honest node, under
    the Byzantine model)."""

    n: int
    f: int
    threshold: int


def check_intersection(threshold: Lin, model: FaultModel) -> QuorumViolation | None:
    """None when two waits of size ``threshold`` always intersect under
    ``model`` (with an honest node in the overlap when Byzantine), else
    the smallest counterexample found."""
    margin_c, margin_f = (1, 1) if model.byzantine else (1, 0)
    # excess E = 2T - n - margin, as a form in (n, f)
    en = 2 * threshold.n - 1
    ef = 2 * threshold.f - margin_f
    ec = 2 * threshold.c - margin_c
    # substitute n = k*f + m + s (f, s >= 0 range over the valid region)
    coef_f = en * model.k + ef
    coef_s = en
    const = en * model.m + ec
    if coef_f >= 0 and coef_s >= 0 and const >= 0:
        return None

    def violation_at(f: int, s: int) -> QuorumViolation | None:
        n = model.k * f + model.m + s
        if n > 0 and en * n + ef * f + ec < 0:
            return QuorumViolation(n=n, f=f, threshold=threshold.at(n, f))
        return None

    # prefer small, faulty configurations for a readable message
    for f in (1, 2, 3, 4, 0):
        for s in range(0, 8):
            found = violation_at(f, s)
            if found is not None:
                return found
    for f in range(0, 64):
        for s in range(0, 64):
            found = violation_at(f, s)
            if found is not None:
                return found
    return None


def threshold_comparisons(
    nodes: list[ast.AST],
) -> list[tuple[ast.Compare, ast.expr]]:
    """Lower-bound count comparisons in a wait predicate: pairs of the
    ``Compare`` node and its threshold expression, for ``len(...) >= T``,
    ``len(...) > T`` (threshold ``T + 1`` handled by the caller via the
    returned op), ``T <= len(...)`` and ``T < len(...)``."""
    out: list[tuple[ast.Compare, ast.expr]] = []
    for root in nodes:
        for node in ast.walk(root):
            if not (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and len(node.comparators) == 1
            ):
                continue
            op = node.ops[0]
            right = node.comparators[0]
            if _is_len_call(node.left) and isinstance(op, (ast.Gt, ast.GtE)):
                out.append((node, right))
            elif _is_len_call(right) and isinstance(op, (ast.Lt, ast.LtE)):
                out.append((node, node.left))
    return out


def threshold_form(
    compare: ast.Compare, expr: ast.expr, fn: ast.AST | None = None
) -> Lin | None:
    """The effective threshold of one comparison: strict bounds
    (``len > T`` / ``T < len``) demand one more ack than ``T``.  A local
    assigned once in ``fn`` (``need = self.n - self.f`` hoisted above the
    wait, as in ``quorum_round``) is read through its assignment."""
    if isinstance(expr, ast.Name) and fn is not None:
        assigns = (a for a in ast.walk(fn) if isinstance(a, ast.Assign))
        bound = [a.value for a in assigns if getattr(a.targets[0], "id", "") == expr.id]
        if len(bound) == 1:
            expr = bound[0]
    form = parse_linear(expr)
    if form is None:
        return None
    if isinstance(compare.ops[0], (ast.Gt, ast.Lt)):
        form = form + Lin(c=1)
    return form


def _is_len_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    )


# -- the rule ------------------------------------------------------------------
class QuorumSafetyRule(Rule):
    rule_id = "RL009"
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


__all__ = [
    "FaultModel",
    "Lin",
    "QuorumSafetyRule",
    "WaitSite",
    "check_intersection",
    "fault_model_for",
    "parse_linear",
    "threshold_comparisons",
    "threshold_form",
    "wait_sites",
]

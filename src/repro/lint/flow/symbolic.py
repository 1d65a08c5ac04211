"""Symbolic quorum-safety arithmetic over ``n`` and ``f`` (RL009).

A wait-condition threshold ``T`` is modelled as an integer linear form
``a·n + b·f + c`` over ``self.n``, ``self.f`` and ``self.quorum_size``
(= ``n − f``).  The declared fault model is recovered from the
``if n <= k*f: raise`` guard in ``__init__`` along the MRO — ``k = 2``
is the crash model (``n > 2f``), ``k >= 3`` the Byzantine model
(``n > 3f``); a class with no guard defaults to the crash model, the
weakest assumption any algorithm in this reproduction makes.

Two waits of size ``T`` intersect in every execution iff ``2T − n >= 1``;
under the Byzantine model the intersection must contain an *honest*
node, i.e. ``2T − n >= f + 1``.  Substituting the model's boundary
``n = k·f + m + s`` (``f, s >= 0`` free) turns the excess
``E = 2T − n − margin`` into a linear form in ``f`` and ``s``; the
threshold is safe iff every coefficient (and the constant) of that form
is non-negative.  When it is not, the smallest violating ``(n, f)`` in
the model's region is reported as a counterexample — e.g. the
quorum-weakened chaos mutants wait on **1** ack, and at ``n = 3, f = 1``
two singleton "quorums" need not intersect.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.project import ProjectIndex


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


def _guard_model(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> FaultModel | None:
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
        if n <= 0 or en * n + ef * f + ec < 0:
            if n > 0:
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


__all__ = [
    "DEFAULT_MODEL",
    "FaultModel",
    "Lin",
    "QuorumViolation",
    "check_intersection",
    "fault_model_for",
    "parse_linear",
    "threshold_comparisons",
    "threshold_form",
]

"""Message-flow graph: who sends what, who consumes it, which fields move.

Built once per :class:`~repro.lint.project.ProjectIndex` (memoized in its
``analysis_cache``), the graph is the shared substrate of the
conversation-level rules:

- **send sites** — a frozen message dataclass constructed directly inside
  a call to a send-style method (``send``/``broadcast``/``quorum_round``/
  ``rbc_broadcast``/``scd_broadcast``) on *any* receiver, so Byzantine behaviors sending
  through their shell and ``BrachaRBC`` sending through ``self._node``
  count too;
- **consume sites** — methods registered in a protocol class's handler
  table (``@handles(MValue)``; the fields consumed are the attribute
  reads on the payload parameter), ``match``-case class patterns and
  ``isinstance`` tests against indexed message dataclasses.  A consume
  site is an *arm* when it is a registered handler or the matched
  subject is a function parameter of a protocol (or protocol-component)
  class method — the conservative subset RL007's dead-handler check
  runs on;
- **constructions / narrowed field reads** — every construction of a
  message class anywhere, and every ``var.field`` read under an
  ``isinstance``/``match`` narrowing, for RL008's schema conformance;
- **wait sites** — every ``WaitUntil(predicate, ...)`` with its resolved
  predicate body (lambda or named local def), for RL009/RL010.

Nodes of the exported graph are classes and message types; edges are the
send/consume sites with their per-edge field sets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable

from repro.lint.project import DataclassField, ModuleInfo, ProjectIndex

#: resolver from an expression naming a class to an indexed message
#: dataclass name (or None)
ClassResolver = Callable[[ast.expr], "str | None"]

#: send-style method name -> index of the payload argument
SEND_METHODS: dict[str, int] = {
    "send": 1,
    "broadcast": 0,
    "quorum_round": 1,
    "rbc_broadcast": 0,
    "scd_broadcast": 0,
}

#: container methods that observe without mutating — calling one of these
#: on an aliased attribute is not a mutation of that attribute
PURE_CONTAINER_METHODS: frozenset[str] = frozenset(
    {
        "copy",
        "count",
        "difference",
        "get",
        "index",
        "intersection",
        "issubset",
        "issuperset",
        "items",
        "keys",
        "most_common",
        "union",
        "values",
    }
)


@dataclass(frozen=True, slots=True)
class MessageSchema:
    """Constructor/field shape of one message dataclass."""

    name: str
    module_path: str
    lineno: int
    fields: tuple[str, ...]
    required: tuple[str, ...]
    #: fields plus methods/properties/class attrs — the read allowlist
    attrs: frozenset[str]


@dataclass(frozen=True, slots=True)
class SendSite:
    """A message construction passed directly to a send-style call."""

    message: str
    path: str
    lineno: int
    col: int
    cls: str | None
    method: str | None
    via: str


@dataclass(frozen=True, slots=True)
class ConsumeSite:
    """A registered handler, ``match``-class pattern or ``isinstance``
    test on a message."""

    message: str
    path: str
    lineno: int
    col: int
    cls: str | None
    method: str | None
    kind: str  # "handler" | "match" | "isinstance"
    is_arm: bool
    fields_read: tuple[str, ...] = ()
    n_positional: int = 0
    keyword_names: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Construction:
    """Any construction of a message class, send site or not."""

    message: str
    path: str
    lineno: int
    col: int
    n_positional: int
    keyword_names: tuple[str, ...]
    has_star: bool


@dataclass(frozen=True, slots=True)
class FieldRead:
    """``var.attr`` where ``var`` is narrowed to a message class."""

    message: str
    attr: str
    path: str
    lineno: int
    col: int


@dataclass(slots=True)
class WaitSite:
    """One ``yield WaitUntil(predicate, ...)`` with its resolved predicate."""

    call: ast.Call
    predicate: list[ast.AST]
    enclosing_fn: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None
    method: str | None
    path: str
    description: str


@dataclass(slots=True)
class FlowGraph:
    """The whole-program message-flow graph."""

    schemas: dict[str, MessageSchema] = field(default_factory=dict)
    sends: list[SendSite] = field(default_factory=list)
    consumes: list[ConsumeSite] = field(default_factory=list)
    constructions: list[Construction] = field(default_factory=list)
    reads: list[FieldRead] = field(default_factory=list)
    waits: list[WaitSite] = field(default_factory=list)
    handler_classes: frozenset[str] = frozenset()

    @property
    def sent_names(self) -> frozenset[str]:
        return frozenset(s.message for s in self.sends)

    @property
    def consumed_names(self) -> frozenset[str]:
        return frozenset(c.message for c in self.consumes)


def build_flow_graph(index: ProjectIndex) -> FlowGraph:
    """Build (or fetch the memoized) flow graph for ``index``."""
    cached = index.analysis_cache.get("flow_graph")
    if isinstance(cached, FlowGraph):
        return cached
    graph = FlowGraph()
    for module in index.modules:
        _scan_module(module, index, graph)
    handler: set[str] = set()
    for info in index.classes.values():
        if index.is_protocol_class(info.name):
            handler.add(info.name)
            handler.update(index.component_types(info.name).values())
    graph.handler_classes = frozenset(handler)
    for name in sorted(graph.sent_names | graph.consumed_names):
        schema = _schema_for(index, name)
        if schema is not None:
            graph.schemas[name] = schema
    index.analysis_cache["flow_graph"] = graph
    return graph


def _schema_for(index: ProjectIndex, name: str) -> MessageSchema | None:
    fields = index.dataclass_fields(name)
    info = index.classes.get(name)
    if fields is None or info is None:
        return None
    return MessageSchema(
        name=name,
        module_path=info.module_path,
        lineno=info.node.lineno,
        fields=tuple(f.name for f in fields),
        required=tuple(f.name for f in fields if not f.has_default),
        attrs=frozenset(f.name for f in fields) | index.class_attr_names(name),
    )


# -- module scan --------------------------------------------------------


def _scan_module(
    module: ModuleInfo, index: ProjectIndex, graph: FlowGraph
) -> None:
    aliases = module.import_aliases

    def message_class(expr: ast.expr) -> str | None:
        """Resolve an expression naming an indexed message dataclass."""
        if isinstance(expr, ast.Name):
            name = aliases.get(expr.id, expr.id)
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        else:
            return None
        return name if index.is_dataclass_name(name) else None

    def scan(
        node: ast.AST,
        cls: str | None,
        method: str | None,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        params: frozenset[str],
    ) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                scan(child, node.name, None, None, frozenset())
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = frozenset(a.arg for a in _all_args(node.args))
            top = fn if fn is not None else node
            meth = method if method is not None else node.name
            if fn is None:
                kind = registered_kind(node) if node.args.args else None
                name = message_class(kind) if kind is not None else None
                payload = {node.args.args[-1].arg: name} if name is not None else {}
                seen = len(graph.reads)
                _narrowed_reads(node, message_class, graph, module.path, payload)
                if kind is not None and name is not None:
                    fields = {r.attr for r in graph.reads[seen:] if r.message == name}
                    graph.consumes.append(
                        ConsumeSite(
                            message=name,
                            path=module.path,
                            lineno=kind.lineno,
                            col=kind.col_offset + 1,
                            cls=cls,
                            method=node.name,
                            kind="handler",
                            is_arm=True,
                            fields_read=tuple(sorted(fields)),
                        )
                    )
            for child in node.body:
                scan(child, cls, meth, top, params | own)
            return
        if isinstance(node, ast.Lambda):
            own = frozenset(a.arg for a in _all_args(node.args))
            scan(node.body, cls, method, fn, params | own)
            return
        if isinstance(node, ast.Match):
            _scan_match(node, cls, method, fn, params)
            return
        if isinstance(node, ast.Call):
            _scan_call(node, cls, method, fn, params)
        for child in ast.iter_child_nodes(node):
            scan(child, cls, method, fn, params)

    def _scan_call(
        node: ast.Call,
        cls: str | None,
        method: str | None,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        params: frozenset[str],
    ) -> None:
        func = node.func
        # constructions of message classes (send sites or not)
        name = message_class(func)
        if name is not None:
            graph.constructions.append(
                Construction(
                    message=name,
                    path=module.path,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    n_positional=sum(
                        1 for a in node.args if not isinstance(a, ast.Starred)
                    ),
                    keyword_names=tuple(
                        k.arg for k in node.keywords if k.arg is not None
                    ),
                    has_star=any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords),
                )
            )
        # send sites: construction passed directly to a send-style call,
        # or a local name whose message type is recoverable from a
        # parameter annotation / single local construction
        if isinstance(func, ast.Attribute) and func.attr in SEND_METHODS:
            idx = SEND_METHODS[func.attr]
            if len(node.args) > idx:
                payload = node.args[idx]
                sent: str | None = None
                if isinstance(payload, ast.Call):
                    sent = message_class(payload.func)
                elif isinstance(payload, ast.Name) and fn is not None:
                    sent = _name_message_type(payload.id, fn, message_class)
                if sent is not None:
                    graph.sends.append(
                        SendSite(
                            message=sent,
                            path=module.path,
                            lineno=payload.lineno,
                            col=payload.col_offset + 1,
                            cls=cls,
                            method=method,
                            via=func.attr,
                        )
                    )
        # isinstance consume sites
        if (
            isinstance(func, ast.Name)
            and func.id == "isinstance"
            and len(node.args) == 2
        ):
            subject = node.args[0]
            targets = (
                list(node.args[1].elts)
                if isinstance(node.args[1], ast.Tuple)
                else [node.args[1]]
            )
            for target in targets:
                name = message_class(target)
                if name is None:
                    continue
                is_arm = (
                    isinstance(subject, ast.Name) and subject.id in params
                )
                graph.consumes.append(
                    ConsumeSite(
                        message=name,
                        path=module.path,
                        lineno=node.lineno,
                        col=node.col_offset + 1,
                        cls=cls,
                        method=method,
                        kind="isinstance",
                        is_arm=is_arm,
                    )
                )
        # wait sites
        if _is_wait_until(func) and node.args and fn is not None:
            predicate = _resolve_predicate(node.args[0], fn)
            if predicate is not None:
                graph.waits.append(
                    WaitSite(
                        call=node,
                        predicate=predicate,
                        enclosing_fn=fn,
                        cls=cls,
                        method=method,
                        path=module.path,
                        description=_wait_description(node),
                    )
                )

    def _scan_match(
        node: ast.Match,
        cls: str | None,
        method: str | None,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        params: frozenset[str],
    ) -> None:
        scan(node.subject, cls, method, fn, params)
        subject_is_param = (
            isinstance(node.subject, ast.Name) and node.subject.id in params
        )
        for case in node.cases:
            top = case.pattern
            if isinstance(top, ast.MatchAs) and top.pattern is not None:
                top = top.pattern
            for pat in ast.walk(case.pattern):
                if not isinstance(pat, ast.MatchClass):
                    continue
                name = message_class(pat.cls)
                if name is None:
                    continue
                reads = _pattern_fields(pat, index.dataclass_fields(name))
                graph.consumes.append(
                    ConsumeSite(
                        message=name,
                        path=module.path,
                        lineno=pat.lineno,
                        col=pat.col_offset + 1,
                        cls=cls,
                        method=method,
                        kind="match",
                        is_arm=subject_is_param and pat is top,
                        fields_read=reads,
                        n_positional=len(pat.patterns),
                        keyword_names=tuple(pat.kwd_attrs),
                    )
                )
            if case.guard is not None:
                scan(case.guard, cls, method, fn, params)
            for stmt in case.body:
                scan(stmt, cls, method, fn, params)

    for stmt in module.tree.body:
        scan(stmt, None, None, None, frozenset())


def registered_kind(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ast.expr | None:
    """The message type ``fn`` is registered for in its class's handler
    table — the argument of its ``@handles(...)`` decorator — or None."""
    for dec in fn.decorator_list:
        if isinstance(dec, ast.Call) and len(dec.args) == 1:
            func = dec.func
            if getattr(func, "id", getattr(func, "attr", None)) == "handles":
                return dec.args[0]
    return None


def _name_message_type(
    name: str,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    message_class: ClassResolver,
) -> str | None:
    """The message class a local ``name`` holds at a send site, when the
    enclosing function makes it unambiguous: a parameter annotation
    (``def _disseminate(self, vt: ValueTs)``), a variable annotation, or
    an assignment from a message-class construction."""
    for arg in _all_args(fn.args):
        if arg.arg == name and arg.annotation is not None:
            got = message_class(arg.annotation)
            if got is not None:
                return got
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
            and isinstance(node.value, ast.Call)
        ):
            got = message_class(node.value.func)
            if got is not None:
                return got
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            got = message_class(node.annotation)
            if got is not None:
                return got
    return None


def _all_args(args: ast.arguments) -> list[ast.arg]:
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        out.append(args.vararg)
    if args.kwarg is not None:
        out.append(args.kwarg)
    return out


def _pattern_fields(
    pat: ast.MatchClass, fields: tuple[DataclassField, ...] | None
) -> tuple[str, ...]:
    names = [f.name for f in fields] if fields else []
    out: list[str] = []
    for i in range(len(pat.patterns)):
        if i < len(names):
            out.append(names[i])
    out.extend(pat.kwd_attrs)
    return tuple(out)


def _is_wait_until(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "WaitUntil"
    if isinstance(func, ast.Attribute):
        return func.attr == "WaitUntil"
    return False


def _wait_description(node: ast.Call) -> str:
    if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
        value = node.args[1].value
        if isinstance(value, str):
            return value
    return ""


def _resolve_predicate(
    arg: ast.expr, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[ast.AST] | None:
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


# -- isinstance/match narrowing and field reads -------------------------


def _narrowed_reads(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    message_class: ClassResolver,
    graph: FlowGraph,
    path: str,
    params: dict[str, str],
) -> None:
    """Collect ``var.attr`` reads where ``var`` is narrowed to a message
    class by ``isinstance`` (if-body, ``and``-chain, early-exit ``if not
    isinstance: return``, ``assert``), by a ``match`` class pattern, or
    from the start (``params``: a registered handler's payload)."""

    def narrow_of(test: ast.expr) -> tuple[str, str] | None:
        """``isinstance(x, C)`` with a Name subject and single class."""
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[0], ast.Name)
        ):
            name = message_class(test.args[1])
            if name is not None:
                return (test.args[0].id, name)
        return None

    def stores_in(node: ast.AST) -> set[str]:
        out: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                out.add(sub.id)
        return out

    def read_expr(expr: ast.AST, env: dict[str, str]) -> None:
        if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # narrowing does not flow into nested scopes
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            running = dict(env)
            for value in expr.values:
                read_expr(value, running)
                narrowed = narrow_of(value)
                if narrowed is not None:
                    running[narrowed[0]] = narrowed[1]
            return
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and isinstance(expr.ctx, ast.Load)
            and expr.value.id in env
        ):
            graph.reads.append(
                FieldRead(
                    message=env[expr.value.id],
                    attr=expr.attr,
                    path=path,
                    lineno=expr.lineno,
                    col=expr.col_offset + 1,
                )
            )
        for child in ast.iter_child_nodes(expr):
            read_expr(child, env)

    def is_terminal(stmts: list[ast.stmt]) -> bool:
        return bool(stmts) and isinstance(
            stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    def scan_block(stmts: list[ast.stmt], env: dict[str, str]) -> None:
        env = dict(env)
        for stmt in stmts:
            for killed in stores_in(stmt) & set(env):
                del env[killed]
            if isinstance(stmt, ast.If):
                read_expr(stmt.test, env)
                narrowed = narrow_of(stmt.test)
                if narrowed is None and isinstance(stmt.test, ast.BoolOp):
                    if isinstance(stmt.test.op, ast.And):
                        narrowed = narrow_of(stmt.test.values[0])
                body_env = dict(env)
                if narrowed is not None:
                    body_env[narrowed[0]] = narrowed[1]
                scan_block(stmt.body, body_env)
                scan_block(stmt.orelse, env)
                # `if not isinstance(x, C): return` narrows the rest
                if (
                    isinstance(stmt.test, ast.UnaryOp)
                    and isinstance(stmt.test.op, ast.Not)
                    and not stmt.orelse
                    and is_terminal(stmt.body)
                ):
                    neg = narrow_of(stmt.test.operand)
                    if neg is not None:
                        env[neg[0]] = neg[1]
            elif isinstance(stmt, ast.Assert):
                read_expr(stmt.test, env)
                narrowed = narrow_of(stmt.test)
                if narrowed is not None:
                    env[narrowed[0]] = narrowed[1]
            elif isinstance(stmt, ast.Match):
                read_expr(stmt.subject, env)
                subject = (
                    stmt.subject.id
                    if isinstance(stmt.subject, ast.Name)
                    else None
                )
                for case in stmt.cases:
                    pat = case.pattern
                    bind: str | None = subject
                    if isinstance(pat, ast.MatchAs) and pat.pattern is not None:
                        bind = pat.name if pat.name is not None else subject
                        pat = pat.pattern
                    case_env = dict(env)
                    if isinstance(pat, ast.MatchClass) and bind is not None:
                        name = message_class(pat.cls)
                        if name is not None:
                            case_env[bind] = name
                    if case.guard is not None:
                        read_expr(case.guard, case_env)
                    scan_block(case.body, case_env)
            elif isinstance(
                stmt, (ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)
            ):
                for value in ast.iter_child_nodes(stmt):
                    if isinstance(value, ast.expr):
                        read_expr(value, env)
                body = getattr(stmt, "body", [])
                orelse = getattr(stmt, "orelse", [])
                scan_block(body, env)
                scan_block(orelse, env)
            elif isinstance(stmt, ast.Try):
                scan_block(stmt.body, env)
                for handler in stmt.handlers:
                    scan_block(handler.body, env)
                scan_block(stmt.orelse, env)
                scan_block(stmt.finalbody, env)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan_block(stmt.body, {})
            else:
                read_expr(stmt, env)

    scan_block(fn.body, params)


# -- liveness helpers (RL010) -------------------------------------------


def self_attr_root(node: ast.expr) -> str | None:
    """The ``self.<attr>`` at the base of an access chain, peeling
    subscripts, attribute lookups and calls: ``self._rounds[kind][key]``
    and ``self._rounds[kind].get(key)`` both root at ``_rounds``."""
    current: ast.expr = node
    while True:
        if isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Attribute):
            if (
                isinstance(current.value, ast.Name)
                and current.value.id == "self"
            ):
                return current.attr
            current = current.value
        else:
            return None


def local_root(node: ast.expr) -> str | None:
    """The local variable at the base of an access chain, or None."""
    current: ast.expr = node
    while True:
        if isinstance(current, (ast.Subscript, ast.Attribute)):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            return current.id
        else:
            return None


def local_aliases(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, frozenset[str]]:
    """Local name -> ``self`` attributes it may alias, in either
    direction: ``replies = self._rounds[kind].get(key)`` (load, as in
    ``ProtocolNode.round_reply``) or ``self._rounds[kind][key] = replies``
    (store, as in ``quorum_round`` — the local *is* the shared object
    the attribute holds).

    The map is flow-insensitive, so a name rebound in different branches
    (``acks = self._votes…`` in one match arm, ``acks = self._echoes…``
    in another) carries *every* binding — mutation attribution
    over-approximates, which is the sound direction for liveness."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name):
            attr = self_attr_root(value)
            if attr is not None:
                out.setdefault(target.id, set()).add(attr)
        else:
            attr = self_attr_root(target)
            if attr is not None and isinstance(value, ast.Name):
                out.setdefault(value.id, set()).add(attr)
    return {name: frozenset(attrs) for name, attrs in out.items()}


@dataclass(frozen=True, slots=True)
class Mutation:
    """One statically visible mutation of a ``self`` attribute."""

    attr: str
    #: message class of the nearest enclosing match/isinstance arm, or
    #: None when the mutation runs unconditionally
    arm: str | None


def method_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    message_class: ClassResolver,
) -> list[Mutation]:
    """Every mutation of a ``self`` attribute in ``fn``, direct or via a
    local alias, tagged with the message arm that gates it (if any)."""
    aliases = local_aliases(fn)
    out: list[Mutation] = []

    def attrs_of(target: ast.expr, *, allow_rebind: bool) -> frozenset[str]:
        attr = self_attr_root(target)
        if attr is not None:
            return frozenset((attr,))
        root = local_root(target)
        if root in aliases:
            # plain `x = ...` rebinds the local without touching the
            # aliased attribute; subscript/attribute stores mutate it
            if allow_rebind or not isinstance(target, ast.Name):
                return aliases[root]
        return frozenset()

    def emit(attrs: frozenset[str], arm: str | None) -> None:
        for attr in attrs:
            out.append(Mutation(attr=attr, arm=arm))

    def scan(node: ast.AST, arm: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                for child in node.body:
                    scan(child, arm)
                return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                emit(attrs_of(target, allow_rebind=False), arm)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            emit(attrs_of(node.target, allow_rebind=False), arm)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                emit(attrs_of(target, allow_rebind=False), arm)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr not in PURE_CONTAINER_METHODS
                and not (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                )
            ):
                emit(attrs_of(func.value, allow_rebind=True), arm)
        if isinstance(node, ast.If):
            narrowed: str | None = None
            test = node.test
            if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
                test = test.values[0]
            if (
                isinstance(test, ast.Call)
                and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance"
                and len(test.args) == 2
            ):
                narrowed = message_class(test.args[1])
            scan(node.test, arm)
            for child in node.body:
                scan(child, narrowed if narrowed is not None else arm)
            for child in node.orelse:
                scan(child, arm)
            return
        if isinstance(node, ast.Match):
            scan(node.subject, arm)
            for case in node.cases:
                pat = case.pattern
                if isinstance(pat, ast.MatchAs) and pat.pattern is not None:
                    pat = pat.pattern
                case_arm = arm
                if isinstance(pat, ast.MatchClass):
                    name = message_class(pat.cls)
                    if name is not None:
                        case_arm = name
                if case.guard is not None:
                    scan(case.guard, case_arm)
                for child in case.body:
                    scan(child, case_arm)
            return
        for child in ast.iter_child_nodes(node):
            scan(child, arm)

    for stmt in fn.body:
        scan(stmt, None)
    return out


__all__ = [
    "ConsumeSite",
    "Construction",
    "FieldRead",
    "FlowGraph",
    "MessageSchema",
    "Mutation",
    "PURE_CONTAINER_METHODS",
    "SEND_METHODS",
    "SendSite",
    "WaitSite",
    "build_flow_graph",
    "local_aliases",
    "local_root",
    "method_mutations",
    "registered_kind",
    "self_attr_root",
]

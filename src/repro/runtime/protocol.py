"""Sans-io protocol node base class.

A :class:`ProtocolNode` models one node of Sec. II-A: a *server thread*
(the :meth:`ProtocolNode.on_message` handler, executed atomically per
message) and a *client thread* (operation generators that block on
:class:`WaitUntil` conditions).  The node never touches a clock or a
socket — it only appends to its outbox; a runtime drains the outbox into
an actual transport.  This is what lets the identical algorithm code run
under both the discrete-event simulator and asyncio.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Generator

OpGen = Generator["WaitUntil", None, Any]


@dataclass(frozen=True, slots=True)
class WaitUntil:
    """Yielded by a client-operation generator to block until a local
    predicate becomes true.

    The runtime re-evaluates the predicate after every message handler at
    this node and resumes the generator synchronously when it holds.  The
    ``description`` surfaces in liveness diagnostics (``StuckError``),
    which is how the ablation experiments report *where* a crippled
    algorithm deadlocks.
    """

    predicate: Callable[[], bool]
    description: str = ""


@dataclass(slots=True)
class _Send:
    dst: int
    payload: Any


@dataclass(slots=True)
class _Broadcast:
    payload: Any
    dests: tuple[int, ...]


def handles(kind: type) -> Callable[[Callable[..., None]], Callable[..., None]]:
    """``@handles(MValue)`` registers the method below it as the handler of
    that message type in its class's table (see :class:`ProtocolNode`)."""

    def mark(fn: Callable[..., None]) -> Callable[..., None]:
        fn._handles = kind  # type: ignore[attr-defined]
        return fn

    return mark


class ProtocolNode:
    """Base class for all algorithm nodes (core and baselines).

    Subclasses register one handler method per message type with
    :func:`handles` and expose client operations as generator methods
    (e.g. ``update``/``scan`` for snapshot objects, ``propose`` for
    lattice agreement).  Each class's ``_handlers`` table (``message type
    -> function``) is built once, from the marks along its MRO by method
    name: registering a type again, or overriding a registered method,
    changes that one entry in the subclass's own table.
    """

    _handlers: dict[type, Callable[..., None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names: dict[type, str] = {}
        for klass in reversed(cls.__mro__):
            for name, fn in vars(klass).items():
                kind = getattr(fn, "_handles", None)
                if kind is not None:
                    names[kind] = name
        cls._handlers = {kind: getattr(cls, name) for kind, name in names.items()}

    def __init__(self, node_id: int, n: int, f: int) -> None:
        if not 0 <= node_id < n:
            raise ValueError(f"node_id {node_id} out of range for n={n}")
        if f < 0 or n <= 0:
            raise ValueError(f"bad parameters n={n}, f={f}")
        self.node_id = node_id
        self.n = n
        self.f = f
        #: broadcast destination lists, with and without this node
        self._everyone = tuple(range(n))
        self._others = tuple(d for d in range(n) if d != node_id)
        # a deque so runtimes drain it FIFO in O(1) per item (the drain
        # loop is on the delivery hot path)
        self.outbox: deque[_Send | _Broadcast] = deque()
        #: observability hook ``(node_id, phase_name, entering) -> None``,
        #: installed by a runtime when tracing is enabled; ``None`` keeps
        #: the phase annotations below free (one attribute read per call).
        self._phase_hook: Callable[[int, str, bool], None] | None = None
        #: open quorum rounds, ``request type -> key -> {src: value}``
        #: (:meth:`quorum_round` registers, :meth:`round_reply` files)
        self._rounds: defaultdict[type, dict[Any, dict]] = defaultdict(dict)

    # -- fault-tolerance arithmetic -------------------------------------
    @property
    def quorum_size(self) -> int:
        """``n − f``: the size of every wait-for quorum in the paper."""
        return self.n - self.f

    # -- the quorum round -------------------------------------------------
    def quorum_round(
        self, key: Any, payload: Any, what: str
    ) -> Generator[WaitUntil, None, dict[int, Any]]:
        """One "send to all, wait for ``n − f`` replies" round — the idiom
        every algorithm of Table I is built from (Algorithm 1 lines
        35-39): register ``key``, broadcast ``payload``, park until
        ``n − f`` distinct nodes replied, unregister, return
        ``{src: value}``.

        The round's *kind* is ``type(payload)``.  A reply is filed only
        by a :meth:`round_reply` naming that request type, so an ack of
        another kind carrying the same key — a late one from a different
        counter, or a forged one — never lands in this round.
        """
        replies: dict[int, Any] = {}
        kind = type(payload)
        self._rounds[kind][key] = replies
        self.broadcast(payload)
        need = self.n - self.f
        yield WaitUntil(lambda: len(replies) >= need, what)
        del self._rounds[kind][key]
        return replies

    def round_reply(self, kind: type, key: Any, src: int, value: Any = None) -> None:
        """Handler side of :meth:`quorum_round`: file ``src``'s reply to
        the open round of request type ``kind`` under ``key``.  Replies
        to a round that is closed (late) or was never opened (stale,
        forged) are dropped."""
        replies = self._rounds[kind].get(key)
        if replies is not None:
            replies[src] = value

    # -- transport-facing API -------------------------------------------
    def send(self, dst: int, payload: Any) -> None:
        """Queue a point-to-point message (reliable once flushed)."""
        self.outbox.append(_Send(dst, payload))

    def broadcast(self, payload: Any, *, include_self: bool = True) -> None:
        """Queue a "send to all" (paper's broadcast idiom).

        ``include_self=True`` delivers a copy to the sender through the
        same handler path (with zero network delay) — this is how, e.g.,
        a node's own ``value`` message lands in ``V[i]`` via line 40, and
        how a node's own ack counts toward its ``n − f`` quorums.
        """
        dests = self._everyone if include_self else self._others
        self.outbox.append(_Broadcast(payload, dests))

    # -- observability ----------------------------------------------------
    def phase_enter(self, name: str) -> None:
        """Mark the start of a protocol phase of the *current* client
        operation (e.g. ``"readTag"``).  No-op unless a runtime installed
        a phase hook; protocol code calls this unconditionally."""
        hook = self._phase_hook
        if hook is not None:
            hook(self.node_id, name, True)

    def phase_exit(self, name: str) -> None:
        """Mark the end of a protocol phase (pairs with
        :meth:`phase_enter`; unmatched exits are tolerated)."""
        hook = self._phase_hook
        if hook is not None:
            hook(self.node_id, name, False)

    # -- protocol hooks ---------------------------------------------------
    def on_start(self) -> None:
        """Called once when the cluster starts (default: nothing)."""

    def on_message(self, src: int, payload: Any) -> None:
        """Handle one delivered message (executed atomically) — the entry
        point runtimes call.  The default looks ``type(payload)`` up in
        the class's handler table; override it to dispatch otherwise."""
        try:
            handler = self._handlers[type(payload)]
        except KeyError:
            raise TypeError(
                f"{type(self).__name__} got unknown message {payload!r}"
            ) from None
        handler(self, src, payload)

    # -- snapshot-object client API (optional; documented here for
    #    discoverability — snapshot algorithms override these) -----------
    def update(self, value: Any) -> OpGen:  # pragma: no cover - interface
        raise NotImplementedError(f"{type(self).__name__} has no update()")

    def scan(self) -> OpGen:  # pragma: no cover - interface
        raise NotImplementedError(f"{type(self).__name__} has no scan()")


__all__ = ["OpGen", "ProtocolNode", "WaitUntil", "handles"]

"""Crash-fault injection.

Two crash modes cover everything in the paper:

- :class:`CrashAtTime` — the node halts at an absolute simulation time
  (in-flight messages it already handed to the network are still delivered:
  the channels are reliable, Sec. II-A).
- :class:`BroadcastCrash` — the node crashes *while sending to all*
  (Definition 11): when it issues a broadcast whose payload matches a
  predicate, only a chosen subset of destinations receive the message and
  the node halts immediately afterwards.  Failure chains — the worst-case
  construction behind the :math:`O(\\sqrt{k} \\cdot D)` bound — are built
  from chains of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence


class CrashSpec:
    """Base class for per-node crash specifications."""


@dataclass(frozen=True)
class CrashAtTime(CrashSpec):
    """Halt the node at absolute time ``time``."""

    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True)
class BroadcastCrash(CrashSpec):
    """Crash mid-broadcast on the first matching payload.

    Attributes:
        deliver_to: destinations that still receive the message (the
            "prefix" of the send-to-all loop that completed before the
            crash).  Destinations not in this set never receive it.
            ``deliver_to`` need not be a subset of the actual broadcast's
            destination list: the survivors of the truncated send are the
            *intersection* ``deliver_to ∩ dests`` (a planned survivor the
            sender was not addressing anyway — e.g. the sender itself on
            an ``include_self=False`` broadcast — simply receives
            nothing; it is not an error).
        match: predicate on the broadcast payload; defaults to matching the
            first broadcast the node ever performs.
    """

    deliver_to: tuple[int, ...]
    match: Callable[[Any], bool] | None = None

    def matches(self, payload: Any) -> bool:
        return True if self.match is None else bool(self.match(payload))


class CrashPlan:
    """The crash adversary for one execution.

    Tracks which nodes are crashed and answers the network's
    mid-broadcast queries.  ``k`` (the paper's actual-failure count) is
    ``len(plan)``; experiments assert ``k <= f``.

    Attributes:
        crashed: the nodes crashed so far — one live set for the whole
            execution, grown by :meth:`mark_crashed` alone.  The
            per-message path (network delivery, outbox flush) binds it
            once and tests ``node in crashed``.
    """

    def __init__(self, specs: dict[int, CrashSpec] | None = None) -> None:
        self._specs: dict[int, CrashSpec] = dict(specs or {})
        self.crashed: set[int] = set()
        self._fired: set[int] = set()

    # -- construction helpers -----------------------------------------
    @classmethod
    def none(cls) -> "CrashPlan":
        """No failures (k = 0)."""
        return cls({})

    def add(self, node: int, spec: CrashSpec) -> "CrashPlan":
        """Attach ``spec`` to ``node`` and return ``self``.

        The builder style mutates in place — a plan literal shared across
        executions would leak its fired/crashed runtime state between
        runs.  Sweep and campaign code must hand each execution its own
        plan: either rebuild from specs or take a :meth:`copy`.
        """
        if node in self._specs:
            raise ValueError(f"node {node} already has a crash spec")
        self._specs[node] = spec
        return self

    def copy(self) -> "CrashPlan":
        """A fresh plan with the same specs and pristine runtime state.

        The ``crashed`` / ``_fired`` sets of the copy start empty, so a
        plan template can be reused across executions without one run's
        crashes leaking into the next.  Specs themselves are shared (they
        are frozen); note that a ``match`` predicate closing over mutable
        state is *not* reset by ``copy()`` — build such predicates fresh
        per run (as the chaos generator does).
        """
        return CrashPlan(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def k(self) -> int:
        """Planned number of failures (paper's ``k``)."""
        return len(self._specs)

    def planned_nodes(self) -> frozenset[int]:
        return frozenset(self._specs)

    def spec_for(self, node: int) -> CrashSpec | None:
        return self._specs.get(node)

    def timed_crashes(self) -> list[tuple[int, float]]:
        """(node, time) pairs for all :class:`CrashAtTime` specs."""
        return [
            (node, spec.time)
            for node, spec in self._specs.items()
            if isinstance(spec, CrashAtTime)
        ]

    # -- runtime state -------------------------------------------------
    def mark_crashed(self, node: int) -> None:
        self.crashed.add(node)

    def is_crashed(self, node: int) -> bool:
        return node in self.crashed

    @property
    def crashed_nodes(self) -> frozenset[int]:
        """A frozen copy of :attr:`crashed`."""
        return frozenset(self.crashed)

    def filter_broadcast(
        self, node: int, payload: Any, dests: Sequence[int]
    ) -> tuple[list[int], bool]:
        """Apply a pending :class:`BroadcastCrash` to an outgoing broadcast.

        Returns ``(surviving destinations, crash_now)``.  Each
        BroadcastCrash fires at most once (the node is dead afterwards
        anyway).  A node that is *already* crashed sends nothing: a
        broadcast that reaches the network after the node's
        :class:`CrashAtTime` fired (e.g. a queued send flushed late, or a
        fuzzer-built plan that crashes the node through another path)
        must neither be delivered nor fire the BroadcastCrash.  The
        survivors of a fired crash are ``deliver_to ∩ dests`` (see
        :class:`BroadcastCrash`).
        """
        if node in self.crashed:
            return [], False
        spec = self._specs.get(node)
        if (
            isinstance(spec, BroadcastCrash)
            and node not in self._fired
            and spec.matches(payload)
        ):
            self._fired.add(node)
            allowed = [d for d in dests if d in spec.deliver_to]
            return allowed, True
        return list(dests), False


def chain_crash_plan(
    chain: Sequence[int],
    *,
    match: Callable[[Any], bool] | None = None,
    matches: Sequence[Callable[[Any], bool] | None] | None = None,
) -> CrashPlan:
    """Build a failure chain (Definition 11) over ``chain`` nodes.

    ``chain = [p1, p2, ..., pm]``: ``p1 .. p(m-1)`` crash while forwarding
    the matching value so that only the next node in the chain receives it;
    ``pm`` (the last element) stays correct.  Returns a plan with
    ``k = m - 1`` crashes.

    ``match`` applies one shared predicate to every hop — fine when the
    predicate identifies the chain's value (the usual
    ``value_match_factory`` case), but wrong when hops must key on
    different payloads: with ``match=None`` (first-broadcast-ever) a hop
    that re-forwards an unrelated message first crashes on the *wrong*
    broadcast and decapitates the chain.  ``matches`` supplies one
    predicate per crashing hop (``len(matches) == len(chain) - 1``; an
    entry of ``None`` means "first broadcast ever" for that hop) and is
    mutually exclusive with ``match``.
    """
    if len(chain) < 2:
        raise ValueError("a failure chain needs at least 2 nodes")
    if len(set(chain)) != len(chain):
        raise ValueError("chain nodes must be distinct")
    if matches is not None:
        if match is not None:
            raise ValueError("pass either match or matches, not both")
        if len(matches) != len(chain) - 1:
            raise ValueError(
                f"matches must have one predicate per crashing hop "
                f"({len(chain) - 1}), got {len(matches)}"
            )
    plan = CrashPlan()
    for i in range(len(chain) - 1):
        hop_match = matches[i] if matches is not None else match
        plan.add(
            chain[i], BroadcastCrash(deliver_to=(chain[i + 1],), match=hop_match)
        )
    return plan


__all__ = [
    "CrashSpec",
    "CrashAtTime",
    "BroadcastCrash",
    "CrashPlan",
    "chain_crash_plan",
]

"""Chaos plans — serializable descriptions of one adversarial execution.

A :class:`ChaosPlan` is *data*, not live objects: crash specs are plain
frozen records (no predicate closures), delays are a named distribution,
the workload is a tuple of per-node op chains.  This buys three things
the campaign depends on:

1. **Replayability** — a plan round-trips through JSON, so a failing
   seed is a complete, shareable repro (``plan.json`` in the exported
   counterexample).
2. **Shrinkability** — delta-debugging works on values: dropping a crash
   record or an op is a pure function from plan to plan.
3. **No cross-run aliasing** — the live :class:`~repro.net.faults.CrashPlan`
   (whose ``_fired`` / ``_crashed`` sets are per-execution state) is
   rebuilt *fresh* by :func:`build_crash_plan` for every run, so a fired
   crash can never leak between executions of a sweep.

Predicates are reconstructed from data at build time:
:class:`BcastCrashSpec` counts the node's broadcasts (``nth``), and
:class:`ChainCrashSpec` keys every hop on the chain head's value through
:func:`writers_of`, the one table of which writer's value a message
carries.  The same table drives the ``doomed`` delay kind, so the √k
staircase of Sec. III-F is a plan like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Collection

from repro.baselines.la_based import MGossip
from repro.baselines.register_array import MWrite
from repro.baselines.scd_broadcast import MForward, ScdWrite
from repro.baselines.store_collect import MStore
from repro.chaos.algos import BYZ_BEHAVIOURS, all_profiles
from repro.core.messages import MValue
from repro.net.delays import (
    AdversarialDelay,
    ConstantDelay,
    DelayModel,
    UniformDelay,
)
from repro.net.faults import BroadcastCrash, CrashAtTime, CrashPlan, chain_crash_plan
from repro.sim.rng import SeededRng, derive_seed

#: message type -> the writers whose values a message of that type carries
#: (exact type: the payload classes are final, and a dict lookup is what
#: the per-message delay schedule can afford)
_WRITERS: dict[type, Callable[[Any], tuple[int, ...]]] = {
    MValue: lambda p: (p.vt.writer,),
    MWrite: lambda p: (p.writer,),
    MStore: lambda p: tuple(w for (w, _, _) in p.view),
    MForward: lambda p: (
        (p.payload.writer,) if type(p.payload) is ScdWrite else ()
    ),
    MGossip: lambda p: (p.atom[0],),
}


def writers_of(payload: Any) -> tuple[int, ...]:
    """The writers whose values ``payload`` carries (``()`` for a message
    that carries none) — what a failure chain's hops crash on and what
    the ``doomed`` delay kind slows."""
    get = _WRITERS.get(type(payload))
    return () if get is None else get(payload)


@dataclass(frozen=True, slots=True)
class TimedCrashSpec:
    """Halt ``node`` at absolute time ``time``."""

    node: int
    time: float

    def to_dict(self) -> dict[str, Any]:
        return {"type": "timed", "node": self.node, "time": self.time}


@dataclass(frozen=True, slots=True)
class BcastCrashSpec:
    """Crash ``node`` on its ``nth`` broadcast (1-based), delivering only
    to ``deliver_to`` (Definition 11 truncation).  Counting broadcasts —
    rather than closing over payload predicates — keeps the spec pure
    data; the countdown state lives in a closure built fresh per run."""

    node: int
    deliver_to: tuple[int, ...]
    nth: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "bcast",
            "node": self.node,
            "deliver_to": list(self.deliver_to),
            "nth": self.nth,
        }


@dataclass(frozen=True, slots=True)
class ChainCrashSpec:
    """A Definition-11 failure chain: every hop crashes while forwarding
    the chain head's value, delivering it only to the next hop; the last
    element stays correct.  Consumes ``len(chain) - 1`` crashes."""

    chain: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"type": "chain", "chain": list(self.chain)}


CrashLike = TimedCrashSpec | BcastCrashSpec | ChainCrashSpec

_CRASH_TYPES = frozenset({"timed", "bcast", "chain"})
_DELAY_KINDS = frozenset({"constant", "uniform", "targeted", "doomed"})
_OP_KINDS = frozenset({"update", "scan"})


@dataclass(frozen=True, slots=True)
class ByzSpec:
    """Run ``node`` as a Byzantine shell with the named behaviour (one of
    :data:`repro.chaos.algos.BYZ_BEHAVIOURS`)."""

    node: int
    behaviour: str

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "behaviour": self.behaviour}


@dataclass(frozen=True, slots=True)
class DelaySpec:
    """The delay adversary, as data.

    kinds:
        ``constant``  — every message takes exactly D (lockstep);
        ``uniform``   — i.i.d. uniform in ``[lo, 1]·D``, seeded from the
                        plan seed (stream label ``chaos/delays``);
        ``targeted``  — messages *from* ``slow_sources`` take the full D,
                        everything else takes ``lo`` (the adversary slows
                        exactly the traffic it wants exposed late);
        ``doomed``    — messages carrying a value written by the head of
                        any of the plan's :class:`ChainCrashSpec` take the
                        full D, everything else takes ``lo`` (the √k
                        staircase's adversary, DESIGN §7 finding 7).
    """

    kind: str = "constant"
    lo: float = 0.05
    slow_sources: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "lo": self.lo,
            "slow_sources": list(self.slow_sources),
        }


@dataclass(frozen=True, slots=True)
class OpChainSpec:
    """Back-to-back client ops at one node: ``ops`` entries are
    ``("update", value)`` or ``("scan", None)``."""

    node: int
    ops: tuple[tuple[str, Any], ...]
    start: float = 0.0
    gap: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "ops": [list(op) for op in self.ops],
            "start": self.start,
            "gap": self.gap,
        }


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """One fully described adversarial execution."""

    algo: str
    n: int
    f: int
    seed: int
    delay: DelaySpec = field(default_factory=DelaySpec)
    crashes: tuple[CrashLike, ...] = ()
    workload: tuple[OpChainSpec, ...] = ()
    byzantine: tuple[ByzSpec, ...] = ()

    # -- derived sizes -------------------------------------------------
    @property
    def crash_count(self) -> int:
        """Planned crash-fault count (the paper's ``k``, crash part)."""
        return sum(len(c.chain) - 1 if isinstance(c, ChainCrashSpec) else 1 for c in self.crashes)

    @property
    def op_count(self) -> int:
        return sum(len(chain.ops) for chain in self.workload)

    def size(self) -> tuple[int, int, int]:
        """Shrink-ordering key: (ops, faults, delay-complexity)."""
        return (
            self.op_count,
            self.crash_count + len(self.byzantine),
            0 if self.delay.kind == "constant" else 1,
        )

    # -- (de)serialization --------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "algo": self.algo,
            "n": self.n,
            "f": self.f,
            "seed": self.seed,
            "delay": self.delay.to_dict(),
            "crashes": [spec.to_dict() for spec in self.crashes],
            "workload": [chain.to_dict() for chain in self.workload],
            "byzantine": [spec.to_dict() for spec in self.byzantine],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ChaosPlan":
        """Load a plan from its :meth:`to_dict` form.  Input that cannot
        describe a runnable plan raises ``ValueError`` naming the field:
        a missing key or a value of the wrong JSON type; an unknown
        algorithm, crash type, delay kind, op kind or Byzantine
        behaviour; a negative or non-finite time, a delay bound ``lo``
        outside ``[0, D]``; ``nth < 1``; a node outside ``0..n-1``; a
        chain of fewer than two distinct hops; a node with two crash
        specs; ops at a Byzantine node; Byzantine nodes for a
        crash-model algorithm; ``n`` not above ``2f`` (``3f`` for a
        Byzantine-tolerant algorithm)."""
        try:
            return _load(_object(data, "a plan"))
        except KeyError as exc:
            raise ValueError(f"plan field {exc.args[0]!r} missing") from None


def _load(plan: dict[str, Any]) -> ChaosPlan:
    profiles = all_profiles()
    algo = _choice(plan["algo"], profiles, "algo")
    n, f = _count(plan["n"], "n", 1), _count(plan["f"], "f", 0)
    tolerant = profiles[algo].supports_byzantine
    bound = 3 if tolerant else 2  # what every algorithm checks at construction
    if n <= bound * f:
        raise ValueError(f"{algo} needs n > {bound}f, got n={n}, f={f}")
    if type(plan["seed"]) is not int:
        raise ValueError(f"seed must be an integer, not {plan['seed']!r}")

    def node(value: Any, what: str) -> int:
        if type(value) is not int or not 0 <= value < n:
            raise ValueError(f"{what} {value!r} outside 0..{n - 1}")
        return value

    def nodes(value: Any, what: str) -> tuple[int, ...]:
        return tuple(node(x, what) for x in _array(value, f"{what}s"))

    def objects(key: str) -> list[dict[str, Any]]:
        return [_object(x, f"a {key} entry") for x in _array(plan.get(key, []), key)]

    crashes: list[CrashLike] = []
    for spec in objects("crashes"):
        kind = _choice(spec["type"], _CRASH_TYPES, "crash spec type")
        if kind == "chain":
            chain = nodes(spec["chain"], "chain hop")
            if len(chain) < 2 or len(set(chain)) < len(chain):
                raise ValueError(f"chain {list(chain)} needs two or more distinct hops")
            crashes.append(ChainCrashSpec(chain))
        elif kind == "timed":
            crashes.append(TimedCrashSpec(node(spec["node"], "crash node"), _time(spec["time"], "time")))
        else:
            crashes.append(
                BcastCrashSpec(
                    node(spec["node"], "crash node"),
                    nodes(spec["deliver_to"], "deliver_to node"),
                    _count(spec["nth"], "nth", 1),
                )
            )
    crashing = [x for c in crashes for x in (c.chain[:-1] if isinstance(c, ChainCrashSpec) else (c.node,))]
    for x in crashing:
        if crashing.count(x) > 1:
            raise ValueError(f"node {x} has two crash specs")
    byzantine = tuple(
        ByzSpec(node(spec["node"], "Byzantine node"), _choice(spec["behaviour"], BYZ_BEHAVIOURS, "behaviour"))
        for spec in objects("byzantine")
    )
    if byzantine and not tolerant:
        raise ValueError(f"{algo} is a crash-model algorithm: it takes no Byzantine nodes")
    workload = tuple(
        OpChainSpec(
            node(chain["node"], "workload node"),
            tuple(_op(op) for op in _array(chain["ops"], "ops")),
            _time(chain.get("start", 0.0), "start"),
            _time(chain.get("gap", 0.0), "gap"),
        )
        for chain in objects("workload")
    )
    for spec in byzantine:
        if any(chain.node == spec.node for chain in workload):
            raise ValueError(f"workload node {spec.node} is Byzantine")
    delay = _object(plan.get("delay", {}), "plan delay")
    return ChaosPlan(
        algo,
        n,
        f,
        plan["seed"],
        DelaySpec(
            _choice(delay.get("kind", "constant"), _DELAY_KINDS, "delay kind"),
            _time(delay.get("lo", 0.05), "delay lo", 1.0),
            nodes(delay.get("slow_sources", []), "slow source"),
        ),
        tuple(crashes),
        workload,
        byzantine,
    )


def _object(value: Any, what: str) -> dict[str, Any]:
    if type(value) is not dict:
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    return value


def _array(value: Any, what: str) -> list[Any]:
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON array, not {value!r}")
    return value


def _choice(value: Any, choices: Collection[str], what: str) -> str:
    if type(value) is not str or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {sorted(choices)}")
    return value


def _count(value: Any, what: str, least: int) -> int:
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, not {value!r}")
    return value


def _time(value: Any, what: str, most: float = math.inf) -> float:
    """A finite number in ``[0, most]``, in units of ``D``."""
    if type(value) not in (int, float) or not (0 <= value <= most and math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number in [0, {most}], not {value!r}")
    return value


def _op(op: Any) -> tuple[str, Any]:
    """One ``[kind, value]`` op: a scan carries ``null``; an update a
    string, a boolean or a finite number (a value the views can hash)."""
    if type(op) is not list or len(op) != 2:
        raise ValueError(f"an op must be a [kind, value] pair, not {op!r}")
    kind, value = _choice(op[0], _OP_KINDS, "op kind"), op[1]
    if kind == "scan":
        ok = value is None
    else:
        ok = type(value) in (str, bool) or type(value) in (int, float) and math.isfinite(value)
    if not ok:
        raise ValueError(f"op {kind!r} cannot carry {value!r}")
    return kind, value


def build_crash_plan(plan: ChaosPlan) -> CrashPlan:
    """Materialize a *fresh* live :class:`CrashPlan` from plan data.

    Called once per execution: the returned plan (and every predicate
    closure inside it) carries no state from previous runs.  Chain hops
    crash on the first broadcast carrying the chain head's value
    (:func:`writers_of`).
    """
    live = CrashPlan()
    for spec in plan.crashes:
        if isinstance(spec, TimedCrashSpec):
            live.add(spec.node, CrashAtTime(spec.time))
        elif isinstance(spec, BcastCrashSpec):
            countdown = {"left": spec.nth}

            def nth_match(payload: Any, countdown=countdown) -> bool:
                countdown["left"] -= 1
                return countdown["left"] <= 0

            live.add(
                spec.node,
                BroadcastCrash(deliver_to=spec.deliver_to, match=nth_match),
            )
        elif isinstance(spec, ChainCrashSpec):

            def carries_head(payload: Any, head: int = spec.chain[0]) -> bool:
                return head in writers_of(payload)

            sub = chain_crash_plan(spec.chain, match=carries_head)
            for node in spec.chain[:-1]:
                live.add(node, sub.spec_for(node))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown crash spec {spec!r}")
    return live


def build_delay_model(plan: ChaosPlan) -> DelayModel:
    """Materialize the delay adversary (fresh rng stream per execution)."""
    spec = plan.delay
    if spec.kind == "constant":
        return ConstantDelay(1.0)
    if spec.kind == "uniform":
        rng = SeededRng(derive_seed(plan.seed, "chaos", "delays"))
        return UniformDelay(1.0, rng, lo=spec.lo)
    if spec.kind == "targeted":
        slow = frozenset(spec.slow_sources)
        fast = spec.lo

        def schedule(src: int, dst: int, payload: Any, now: float) -> float:
            return 1.0 if src in slow else fast

        return AdversarialDelay(1.0, schedule)
    if spec.kind == "doomed":
        heads = frozenset(
            c.chain[0] for c in plan.crashes if isinstance(c, ChainCrashSpec)
        )
        fast = spec.lo

        def doomed(src: int, dst: int, payload: Any, now: float) -> float:
            return fast if heads.isdisjoint(writers_of(payload)) else 1.0

        return AdversarialDelay(1.0, doomed)
    raise ValueError(f"unknown delay kind {spec.kind!r}")


__all__ = [
    "BcastCrashSpec",
    "ByzSpec",
    "ChainCrashSpec",
    "ChaosPlan",
    "CrashLike",
    "DelaySpec",
    "OpChainSpec",
    "TimedCrashSpec",
    "build_crash_plan",
    "build_delay_model",
    "writers_of",
]

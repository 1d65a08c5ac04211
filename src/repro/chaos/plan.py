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

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.baselines.la_based import MGossip
from repro.baselines.register_array import MWrite
from repro.baselines.scd_broadcast import MForward, ScdWrite
from repro.baselines.store_collect import MStore
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
        total = 0
        for spec in self.crashes:
            if isinstance(spec, ChainCrashSpec):
                total += len(spec.chain) - 1
            else:
                total += 1
        return total

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
        describe a runnable plan — a spec that is not an object, a node
        outside ``0..n-1`` — raises ``ValueError`` naming the fault."""
        if not isinstance(data, dict):
            raise ValueError(f"a plan must be a JSON object, not {type(data).__name__}")
        n = int(data["n"])

        def node(value: Any, what: str) -> int:
            if type(value) is not int or not 0 <= value < n:
                raise ValueError(f"{what} {value!r} outside 0..{n - 1}")
            return value

        def objects(key: str) -> list[dict[str, Any]]:
            specs = list(data.get(key, ()))
            for spec in specs:
                if not isinstance(spec, dict):
                    raise ValueError(f"a {key} entry must be a JSON object, got {spec!r}")
            return specs

        crashes: list[CrashLike] = []
        for spec in objects("crashes"):
            kind = spec["type"]
            if kind == "timed":
                crashes.append(
                    TimedCrashSpec(node(spec["node"], "crash node"), spec["time"])
                )
            elif kind == "bcast":
                crashes.append(
                    BcastCrashSpec(
                        node(spec["node"], "crash node"),
                        tuple(node(d, "deliver_to node") for d in spec["deliver_to"]),
                        spec["nth"],
                    )
                )
            elif kind == "chain":
                crashes.append(
                    ChainCrashSpec(tuple(node(h, "chain hop") for h in spec["chain"]))
                )
            else:
                raise ValueError(f"unknown crash spec type {kind!r}")
        delay = data.get("delay", {})
        if not isinstance(delay, dict):
            raise ValueError(f"plan delay must be a JSON object, got {delay!r}")
        if delay.get("kind", "constant") not in _DELAY_KINDS:
            raise ValueError(
                f"unknown delay kind {delay['kind']!r}; "
                f"choose from {sorted(_DELAY_KINDS)}"
            )
        workload = tuple(
            OpChainSpec(
                node=node(chain["node"], "workload node"),
                ops=tuple((k, v) for k, v in chain["ops"]),
                start=chain.get("start", 0.0),
                gap=chain.get("gap", 0.0),
            )
            for chain in objects("workload")
        )
        for chain in workload:
            for op_kind, _ in chain.ops:
                if op_kind not in _OP_KINDS:
                    raise ValueError(
                        f"unknown op kind {op_kind!r} at node {chain.node}; "
                        f"choose from {sorted(_OP_KINDS)}"
                    )
        return cls(
            algo=data["algo"],
            n=n,
            f=int(data["f"]),
            seed=int(data["seed"]),
            delay=DelaySpec(
                kind=delay.get("kind", "constant"),
                lo=delay.get("lo", 0.05),
                slow_sources=tuple(delay.get("slow_sources", ())),
            ),
            crashes=tuple(crashes),
            workload=workload,
            byzantine=tuple(
                ByzSpec(node(spec["node"], "Byzantine node"), spec["behaviour"])
                for spec in objects("byzantine")
            ),
        )


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


def flatten_delay(plan: ChaosPlan) -> ChaosPlan:
    """The shrink move for delays: the lockstep constant-D schedule."""
    return replace(plan, delay=DelaySpec(kind="constant"))


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
    "flatten_delay",
    "writers_of",
]

"""Wire messages of the equivalence-quorum protocols (Algorithm 1).

One frozen dataclass per message kind named in the paper's pseudocode:
``value``, ``writeTag``, ``writeAck``, ``echoTag``, ``readTag``,
``readAck``, ``goodLA`` — plus the one-shot protocol's value
acknowledgement.  ``reqid`` fields scope acknowledgements to the request
that solicited them: the paper's "wait until receiving ≥ n−f acks" means
acks *for this request*; counting a stale ack from an earlier round could
return an outdated tag and break the ``op_i → op_j ⟹ T_i ≤ T_j``
invariant that Lemma 3 rests on.

**Interned construction.**  These are the hottest allocations in the
whole simulation (every UPDATE broadcasts a value and runs a
writeTag/writeAck/echoTag round; every SCAN a readTag/readAck round),
and snapshot protocols construct the *same few payloads* over and over:
the identical ack is built once per received request, the same echoTag
re-broadcast by every node in a round.  The metaclass therefore interns
instances: constructing a message with field values seen before returns
the existing frozen object instead of allocating (a bounded table of
:data:`PACKED_INTERN_MAX` entries, cleared outright — deterministically
— when full; intern hits are counted in the ``messages_packed``
substrate stat).  Every field of every message is hashable and
immutable, which is what makes interning sound, and nothing in the tree
observes object identity (the whole-run oracle test re-runs every bench
case with plain, un-interned construction patched in and compares
fingerprints).

**Dispatch.**  ``type(payload)`` is always the public dataclass and keys
every crash-model algorithm's handler table
(:class:`repro.runtime.protocol.ProtocolNode`): one dict lookup, ~45 ns.
A ``match`` ladder is not the cheap alternative it looks like: under a
metaclass only an ``isinstance`` *hit* is exact-type (~20 ns); a *miss*
looks for ``__instancecheck__`` first (~105 ns, ~40 ns on a plain class)
and a hit capturing positional fields allocates a set and a list
(~310 ns) — a ``value`` message behind five failed arms cost ~870 ns.
So handlers are table entries; ``match`` is for destructuring untrusted
(Byzantine) payloads, where the pattern *is* the validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.tags import ValueTs
from repro.sim.fastpath import STATS

#: Bound on the message intern table.  The working set of distinct live
#: messages is tiny (tags and reqids advance, old entries stop being
#: constructed), so the table is cleared outright when full —
#: deterministic, and re-interning is just one dict store.
PACKED_INTERN_MAX = 4096

_intern: dict[tuple[type, tuple[Any, ...]], Any] = {}


class _MsgMeta(type):
    """Construction-time interning.

    ``cls(*args)`` returns the interned instance for those field values,
    constructing one only on a miss; keyword construction falls through
    to the plain dataclass call.  Instances are always the public
    dataclass, so ``type(payload)`` keys the handler tables.
    """

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        if kwargs:
            return super().__call__(*args, **kwargs)
        key = (cls, args)
        hit = _intern.get(key)
        if hit is not None:
            STATS.messages_packed += 1
            return hit
        inst = super().__call__(*args)
        if len(_intern) >= PACKED_INTERN_MAX:
            _intern.clear()
        _intern[key] = inst
        return inst


@dataclass(frozen=True, slots=True)
class MValue(metaclass=_MsgMeta):
    """("value", ⟨v, ts⟩) — a written or forwarded value (lines 6, 42)."""

    vt: ValueTs


@dataclass(frozen=True, slots=True)
class MValueAck(metaclass=_MsgMeta):
    """One-shot protocol only: acknowledgement of a value (Sec. III-C:
    an UPDATE "waits for a quorum of acknowledgements")."""

    vt: ValueTs


@dataclass(frozen=True, slots=True)
class MWriteTag(metaclass=_MsgMeta):
    """("writeTag", tag) — line 38; ``reqid`` scopes the acks."""

    tag: int
    reqid: int


@dataclass(frozen=True, slots=True)
class MWriteAck(metaclass=_MsgMeta):
    """("writeAck", tag) — line 46 response."""

    tag: int
    reqid: int


@dataclass(frozen=True, slots=True)
class MEchoTag(metaclass=_MsgMeta):
    """("echoTag", tag) — line 45; disseminates a first-seen tag."""

    tag: int


@dataclass(frozen=True, slots=True)
class MReadTag(metaclass=_MsgMeta):
    """("readTag") — line 35; ``reqid`` scopes the acks."""

    reqid: int


@dataclass(frozen=True, slots=True)
class MReadAck(metaclass=_MsgMeta):
    """("readAck", maxTag) — line 48 response."""

    tag: int
    reqid: int


@dataclass(frozen=True, slots=True)
class MGoodLA(metaclass=_MsgMeta):
    """("goodLA", r) — line 18: the sender completed a good lattice
    operation with tag ``r``; receivers may borrow its view (line 49)."""

    tag: int


__all__ = [
    "PACKED_INTERN_MAX",
    "MValue",
    "MValueAck",
    "MWriteTag",
    "MWriteAck",
    "MEchoTag",
    "MReadTag",
    "MReadAck",
    "MGoodLA",
]

"""Algorithm profiles for the chaos campaign.

One :class:`AlgoProfile` per snapshot implementation, keyed by a short
CLI-friendly name.  The eight crash-model algorithms of Table I form
:data:`CAMPAIGN_ALGOS` (the ``--algo all`` / ``--smoke`` sweep); the two
Byzantine variants are additional profiles that also draw random
Byzantine behaviours — including equivocation — from the attack
repertoire in :mod:`repro.net.byzantine`.  The mutants and ablations of
:mod:`repro.chaos.mutants` are reachable by name only.

The profile records the algorithm's *specification level*: atomic
algorithms are checked for linearizability (real-time order included),
the sequential-snapshot family for sequential consistency — the same
split the integration suite uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines import (
    BfkAso,
    DelporteAso,
    ImprRegisterAso,
    LatticeAso,
    ScdAso,
    StoreCollectAso,
)
from repro.core import ByzantineAso, ByzantineSso, EqAso, SsoFastScan
from repro.core.tags import Timestamp, ValueTs
from repro.net.byzantine import (
    AckForger,
    ByzantineBehavior,
    Equivocator,
    FakeGoodLA,
    Silent,
    TagFlooder,
)

LINEARIZABLE = "linearizable"
SEQUENTIAL = "sequential"


@dataclass(frozen=True, slots=True)
class AlgoProfile:
    """Everything the campaign needs to know about one algorithm."""

    name: str
    factory: Callable[[int, int, int], Any]
    consistency: str  #: LINEARIZABLE or SEQUENTIAL
    n: int
    f: int
    supports_byzantine: bool = False
    #: for mutants and ablations: the healthy profile this one weakens
    #: (None = healthy)
    mutant_of: str | None = None


#: the healthy crash-model sweep: the six algorithms of Table I plus the
#: post-2022 contenders (BFK fast snapshot, IMPR register layering)
CAMPAIGN_ALGOS: dict[str, AlgoProfile] = {
    "eq_aso": AlgoProfile("eq_aso", EqAso, LINEARIZABLE, n=5, f=2),
    "sso_fast_scan": AlgoProfile(
        "sso_fast_scan", SsoFastScan, SEQUENTIAL, n=5, f=2
    ),
    "delporte": AlgoProfile("delporte", DelporteAso, LINEARIZABLE, n=5, f=2),
    "store_collect": AlgoProfile(
        "store_collect", StoreCollectAso, LINEARIZABLE, n=5, f=2
    ),
    "scd": AlgoProfile("scd", ScdAso, LINEARIZABLE, n=5, f=2),
    "la_based": AlgoProfile("la_based", LatticeAso, LINEARIZABLE, n=5, f=2),
    "bfk": AlgoProfile("bfk", BfkAso, LINEARIZABLE, n=5, f=2),
    "impr": AlgoProfile("impr", ImprRegisterAso, LINEARIZABLE, n=5, f=2),
}


#: Byzantine-tolerant variants (n > 3f); the generator may also replace
#: up to f nodes with adversarial behaviours
BYZANTINE_ALGOS: dict[str, AlgoProfile] = {
    "byz_aso": AlgoProfile(
        "byz_aso", ByzantineAso, LINEARIZABLE, n=4, f=1, supports_byzantine=True
    ),
    "byz_sso": AlgoProfile(
        "byz_sso", ByzantineSso, SEQUENTIAL, n=4, f=1, supports_byzantine=True
    ),
}


def _equivocator() -> ByzantineBehavior:
    """Equivocation attack: conflicting value/timestamp pairs for the
    same (writer, useq) identity, sent to different halves of the
    cluster (the Bracha-RBC defeat case)."""

    def payloads(shell: Any) -> tuple[Any, Any]:
        me = shell.node_id
        return (
            ValueTs("equiv-A", Timestamp(1, me), 1),
            ValueTs("equiv-B", Timestamp(1, me), 1),
        )

    return Equivocator(payloads)


#: Byzantine behaviour constructors the generator may draw from
BYZ_BEHAVIOURS: dict[str, Callable[[], ByzantineBehavior]] = {
    "silent": Silent,
    "tag-flooder": TagFlooder,
    "ack-forger": AckForger,
    "fake-goodLA": FakeGoodLA,
    "equivocator": _equivocator,
}


def make_behaviour(name: str) -> ByzantineBehavior:
    try:
        return BYZ_BEHAVIOURS[name]()
    except KeyError:
        raise KeyError(
            f"unknown Byzantine behaviour {name!r}; "
            f"choose from {sorted(BYZ_BEHAVIOURS)}"
        ) from None


def all_profiles() -> dict[str, AlgoProfile]:
    """Every runnable profile: campaign set + Byzantine + mutants +
    ablations."""
    from repro.chaos.mutants import ABLATIONS, MUTANTS

    return {**CAMPAIGN_ALGOS, **BYZANTINE_ALGOS, **MUTANTS, **ABLATIONS}


def get_profile(name: str) -> AlgoProfile:
    profiles = all_profiles()
    try:
        return profiles[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(profiles)}"
        ) from None


__all__ = [
    "AlgoProfile",
    "BYZANTINE_ALGOS",
    "BYZ_BEHAVIOURS",
    "CAMPAIGN_ALGOS",
    "LINEARIZABLE",
    "SEQUENTIAL",
    "all_profiles",
    "get_profile",
    "make_behaviour",
]

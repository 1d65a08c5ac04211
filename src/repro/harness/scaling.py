"""Scaling experiments: the paper's headline complexity claims as curves.

- :func:`scale_k` — victim-operation latency vs the number of actual
  failures ``k`` under the staircase adversary, for EQ-ASO and selected
  baselines.  The measured EQ-ASO growth exponent (log-log slope) should
  sit near 0.5 (the ``O(√k·D)`` bound of Lemma 8).
- :func:`amortized_curve` — mean per-op latency of a victim op sequence
  vs the sequence length at fixed ``k``: converges to a constant once the
  sequence has ``Ω(√k)`` operations (Sec. III-F).
- :func:`failure_free` — single-op latency vs ``n`` with no failures:
  constant for every algorithm except the ``O(log n·D)`` LA-based one
  (the paper's "constant time unconditionally" claim).
- :func:`interference_scan` — victim scan latency vs ``n`` with every
  other node streaming updates: grows linearly for the pull-based
  baselines ([19], [12]) and stays flat for EQ-ASO (the double-collect
  critique of Sec. III-B).
- :func:`la_comparison` — early-stopping LA vs the classifier LA: the
  early-stopping algorithm degrades with ``k`` only (constant when
  ``k = 0``), the classifier pays its ``Θ(log n)`` rounds always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines import DelporteAso, StoreCollectAso
from repro.core import EqAso
from repro.core.lattice_agreement import EarlyStoppingLA, MLAValue
from repro.baselines.la_based import ClassifierLA
from repro.chaos.plan import ChaosPlan
from repro.harness.adversary import (
    VICTIM,
    interference_run,
    quiet_plan,
    run_checked,
    staircase_mean_latency,
    staircase_plan,
    staircase_victim_latency,
)
from repro.net.delays import AdversarialDelay
from repro.net.faults import CrashPlan, chain_crash_plan
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — the measured growth
    order (≈0 constant, ≈0.5 square-root, ≈1 linear).  Points with
    non-positive coordinates are dropped."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    if sxx == 0:
        return 0.0
    return sxy / sxx


@dataclass(slots=True)
class Curve:
    """One measured curve: y(x) plus the fitted log-log growth exponent."""

    label: str
    xs: list[float]
    ys: list[float]
    exponent: float | None = None

    def fit(self) -> "Curve":
        try:
            self.exponent = growth_exponent(self.xs, self.ys)
        except ValueError:
            self.exponent = None
        return self


def scale_k(
    ks: Sequence[int] = (1, 3, 6, 10, 15, 21),
    algorithms: dict[str, str] | None = None,
) -> list[Curve]:
    """Victim SCAN latency vs k under the staircase adversary
    (``algorithms``: curve label -> ``CAMPAIGN_ALGOS`` key)."""
    algos = algorithms or {"EQ-ASO": "eq_aso", "SCD-broadcast": "scd"}
    return [
        Curve(label, list(ks), [staircase_victim_latency(algo, "scan", k) for k in ks]).fit()
        for label, algo in algos.items()
    ]


def amortized_curve(
    k: int = 10, op_counts: Sequence[int] = (1, 2, 4, 8, 16, 32)
) -> Curve:
    """Mean EQ-ASO op latency vs sequence length at fixed k.  Once the
    chains have fired, the crashed nodes can never expose another value
    (Sec. III-F, second observation), so the mean converges to O(D)."""
    ys = [staircase_mean_latency("eq_aso", "scan", k, count) for count in op_counts]
    return Curve(f"EQ-ASO amortized (k={k})", list(op_counts), ys).fit()


#: the failure-free rows (FF, MESSAGES): label -> ``CAMPAIGN_ALGOS`` key
FF_ALGORITHMS: dict[str, str] = {
    "Delporte [19]": "delporte",
    "Store-collect [12]": "store_collect",
    "SCD [29]": "scd",
    "LA-based [41,42]": "la_based",
    "EQ-ASO": "eq_aso",
    "SSO-Fast-Scan": "sso_fast_scan",
}


def failure_free_plan(algo: str, kind: str, n: int) -> ChaosPlan:
    """FF's run: one completed update at node ``1 mod n`` so scans have
    content, then the measured ``kind`` op at node 0 (the last op)."""
    op = (0, kind, "x" if kind == "update" else None)
    return quiet_plan(algo, n, (1 % n, "update", "warm"), op)


def failure_free(ns: Sequence[int] = (4, 7, 10, 16, 25)) -> dict[str, list[Curve]]:
    """Quiet-cluster single-op latency vs n, per op kind, for every
    :data:`FF_ALGORITHMS` row."""
    out: dict[str, list[Curve]] = {"update": [], "scan": []}
    for label, algo in FF_ALGORITHMS.items():
        for kind in ("update", "scan"):
            ys = [
                run_checked(failure_free_plan(algo, kind, n)).handles[-1].latency
                for n in ns
            ]
            out[kind].append(Curve(label, list(ns), ys).fit())
    return out


def interference_scan(
    ns: Sequence[int] = (5, 9, 13, 17),
    algorithms: dict[str, Callable] | None = None,
    updates_per_writer: int = 3,
    seed: int = 42,
) -> list[Curve]:
    """Worst op latency vs n with n−1 concurrent (staggered) updaters.

    Per algorithm, two curves: the victim's SCAN (pull-based baselines
    retry one collect round per interfering write → Θ(n·D) for [19]) and
    the worst UPDATE in the wave (the [12]-style update embeds a
    stable-collect, so the unluckiest writers wait out Θ(n) interference).
    Each point is one :func:`~repro.harness.adversary.interference_run`
    (seeded random delays: lockstep would hide the retry cost).
    """
    algos = algorithms or {
        "Delporte [19]": DelporteAso,
        "Store-collect [12]": StoreCollectAso,
        "EQ-ASO": EqAso,
    }
    curves = []
    for label, factory in algos.items():
        runs = [
            interference_run(
                factory,
                n,
                "scan",
                SeededRng(seed).child("delays"),
                updates_per_writer=updates_per_writer,
            )
            for n in ns
        ]
        curves.append(Curve(f"{label} victim scan", list(ns), [s for s, _ in runs]).fit())
        curves.append(Curve(f"{label} worst update", list(ns), [u for _, u in runs]).fit())
    return curves


def _la_match(factory, writer: int):
    """The doomed-proposal matcher of ``writer`` for the two LA protocols."""
    from repro.baselines.la_based import MClsWrite

    if factory is ClassifierLA:
        return lambda p: isinstance(p, MClsWrite) and any(
            a[0] == writer for a in p.atoms
        )
    return lambda p: isinstance(p, MLAValue) and p.element.proposer == writer


def la_comparison(ks: Sequence[int] = (0, 1, 3, 6, 10)) -> list[Curve]:
    """One-shot LA decision latency vs k: early-stopping vs classifier.

    The chain adversary exposes doomed *proposals* to the victim proposer,
    mirroring the snapshot staircase: the early-stopping LA's EQ wait is
    delayed ``≈ √(2k)·D`` (but is constant when ``k = 0``), while the
    classifier pays its ``Θ(log n)`` quorum rounds regardless of ``k``
    (chains merely remove nodes from its quorums).
    """
    curves = []
    for label, factory in (
        ("early-stopping LA [this paper]", EarlyStoppingLA),
        ("classifier LA [42]", ClassifierLA),
    ):
        xs: list[float] = []
        ys: list[float] = []
        for k in ks:
            # the snapshot staircase's chains and sizes; the LA messages
            # are not in writers_of, so the crashes and delays are built here
            n, f = 23, 11
            crash_plan = CrashPlan()
            writers: tuple[int, ...] = ()
            if k:
                plan = staircase_plan("la_based", k)
                n, f = plan.n, plan.f
                for spec in plan.crashes:
                    chain = chain_crash_plan(spec.chain, match=_la_match(factory, spec.chain[0]))
                    for node in spec.chain[:-1]:
                        crash_plan.add(node, chain.spec_for(node))
                writers = tuple(spec.chain[0] for spec in plan.crashes)

            def delays(src, dst, payload, now, _w=frozenset(writers)):
                slow = isinstance(payload, MLAValue) and payload.element.proposer in _w
                return 1.0 if slow else 0.05

            delay_model = AdversarialDelay(1.0, delays)
            cluster = Cluster(factory, n=n, f=f, delay_model=delay_model, crash_plan=crash_plan)
            for writer in writers:
                cluster.invoke_at(0.0, writer, "propose", (f"doomed{writer}",))
            # invoke the victim just after the first exposure lands (the
            # one-hop chain's proposal arrives at t = D)
            op = cluster.invoke_at(1.05, VICTIM, "propose", (f"p{VICTIM}",))
            cluster.run_until_complete([op])
            xs.append(max(k, 1))
            ys.append(op.latency / cluster.D)
        curves.append(Curve(label, xs, ys).fit())
    return curves


__all__ = [
    "Curve",
    "growth_exponent",
    "FF_ALGORITHMS",
    "scale_k",
    "amortized_curve",
    "failure_free",
    "failure_free_plan",
    "interference_scan",
    "la_comparison",
]

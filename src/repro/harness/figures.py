"""Regeneration of Figures 1 and 2.

**Figure 1** is an example history together with a sequentialization and a
linearization.  The paper's caption fixes: node 1 performs UPDATE(1) then
UPDATE(4); nodes 2 and 3 perform UPDATE(2) and UPDATE(3); two SCANs have
bases {U(1),U(2),U(3)} and {U(1),U(2),U(3),U(4)}; ``op1 → op2`` in real
time; and the sequentialization differs from the linearization exactly by
swapping op1 and op2.  :func:`run_figure1` reconstructs such a history,
verifies it is linearizable, produces both orders with the library's
constructors, and checks the swap claim (the op2-before-op1 order is a
valid sequentialization but not a valid linearization).

**Figure 2** is a concrete one-shot EQ-ASO execution on three nodes
(``f = 1``): op1 (SCAN by node 3) returns the empty base; op4 (SCAN by
node 1) returns base {op2, op3} once ``V₁[1] = V₁[3] = {u, v}``; op6
(SCAN by node 3) must wait for forwarded values because
``V₃[1] = {u,v}, V₃[2] = {w}, V₃[3] = {u,v,w}``, and returns
{u, v, w}.  :func:`run_figure2` replays the exact delivery schedule in the
simulator (an adversarial delay model makes node 2 slow), probes the
``V`` vectors at the moments the caption describes, and checks each
stated fact.

Every caption fact is a :func:`_check`: it lands in the result's
``checks`` list when it holds and raises
:class:`~repro.harness.adversary.ExperimentCheckError`
naming it when it does not (a plain ``assert`` would vanish under
``python -O`` and leave the ``[check]`` lines unchecked).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.one_shot import OneShotAso
from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.harness.adversary import ExperimentCheckError
from repro.net.delays import AdversarialDelay
from repro.runtime.cluster import Cluster
from repro.spec.base import scan_base
from repro.spec.history import SCAN, UPDATE, History
from repro.spec.linearize import linearize
from repro.spec.order import order_check, validate_serialization


def _check(checks: list[str], ok: bool, claim: str, *got: Any) -> None:
    """Record ``claim`` in ``checks`` if ``ok``, else raise naming it."""
    if not ok:
        detail = f" (got {', '.join(map(repr, got))})" if got else ""
        raise ExperimentCheckError(f"check failed: {claim}{detail}")
    checks.append(claim)


@dataclass(slots=True)
class Figure1Result:
    history_ops: list[str]
    linearization: list[str]
    sequentialization: list[str]
    swap_is_valid_sequentialization: bool
    swap_is_valid_linearization: bool
    checks: list[str] = field(default_factory=list)


def _vt(value: Any, tag: int, writer: int, useq: int) -> ValueTs:
    return ValueTs(value, Timestamp(tag, writer), useq)


def _snap3(entries: list[ValueTs | None]) -> Snapshot:
    return Snapshot(
        values=tuple(None if e is None else e.value for e in entries),
        meta=tuple(entries),
    )


def build_figure1_history() -> tuple[History, dict[str, Any]]:
    """The Figure 1 history, as recorded op events (3 nodes, ids 0..2)."""
    h = History(3)
    v1 = _vt(1, 1, 0, 1)
    v2 = _vt(2, 1, 1, 1)
    v3 = _vt(3, 1, 2, 1)
    v4 = _vt(4, 2, 0, 2)

    op1 = h.invoke(0, UPDATE, (1,), 0.0)  # UPDATE(1) by node 1
    h.respond(op1, 1.0, "ACK")
    op2 = h.invoke(1, UPDATE, (2,), 2.0)  # UPDATE(2) by node 2; op1 → op2
    h.respond(op2, 3.0, "ACK")
    op3 = h.invoke(2, UPDATE, (3,), 2.0)  # UPDATE(3) by node 3
    h.respond(op3, 3.5, "ACK")
    op4 = h.invoke(1, SCAN, (), 4.0)  # SCAN → (1, 2, 3)
    h.respond(op4, 6.0, _snap3([v1, v2, v3]))
    op5u = h.invoke(0, UPDATE, (4,), 5.0)  # UPDATE(4) by node 1
    h.respond(op5u, 7.0, "ACK")
    op5 = h.invoke(2, SCAN, (), 8.0)  # SCAN → (4, 2, 3)
    h.respond(op5, 10.0, _snap3([v4, v2, v3]))
    ops = {
        "op1": op1,
        "op2": op2,
        "op3": op3,
        "op4": op4,
        "U4": op5u,
        "op5": op5,
    }
    return h, ops


def _label(ops: dict[str, Any]) -> dict[int, str]:
    return {op.op_id: name for name, op in ops.items()}


def run_figure1() -> Figure1Result:
    history, ops = build_figure1_history()
    labels = _label(ops)
    checks: list[str] = []

    # caption facts: bases and the real-time edge
    b4 = scan_base(ops["op4"])
    b5 = scan_base(ops["op5"])
    _check(
        checks,
        b4 == {(0, 1), (1, 1), (2, 1)},
        "base(op4) = {UPDATE(1), UPDATE(2), UPDATE(3)}",
        b4,
    )
    _check(
        checks,
        b5 == {(0, 1), (0, 2), (1, 1), (2, 1)},
        "base(op5) = {UPDATE(1), UPDATE(2), UPDATE(3), UPDATE(4)}",
        b5,
    )
    _check(checks, b4 <= b5, "bases are comparable (Definition 5)", b4, b5)
    _check(
        checks, History.precedes(ops["op1"], ops["op2"]), "op1 → op2 in real time"
    )

    lin = linearize(history)
    seq = order_check(history, real_time=False).order

    # the paper's sequentialization: op2 placed before op1
    swapped = list(lin)
    i1 = swapped.index(ops["op1"])
    i2 = swapped.index(ops["op2"])
    swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
    swap_seq_ok = not validate_serialization(history, swapped, real_time=False)
    swap_lin_ok = not validate_serialization(history, swapped, real_time=True)
    _check(
        checks,
        swap_seq_ok and not swap_lin_ok,
        "swapping op1/op2 yields a valid sequentialization but not a "
        "valid linearization (the figure's point)",
        swap_seq_ok,
        swap_lin_ok,
    )
    lin_names = [labels[o.op_id] for o in lin]
    _check(
        checks,
        lin_names.index("op1") < lin_names.index("op2"),
        "the constructed linearization keeps op1 before op2",
        lin_names,
    )

    return Figure1Result(
        history_ops=[labels[o.op_id] for o in history.ops],
        linearization=lin_names,
        sequentialization=[labels[o.op_id] for o in seq],
        swap_is_valid_sequentialization=swap_seq_ok,
        swap_is_valid_linearization=swap_lin_ok,
        checks=checks,
    )


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Figure2Result:
    op1_snapshot: tuple
    op4_snapshot: tuple
    op6_snapshot: tuple
    op6_had_to_wait: bool
    checks: list[str] = field(default_factory=list)


def run_figure2() -> Figure2Result:
    """Replay the Figure 2 schedule on the real one-shot ASO.

    Delay choreography (``D = 1``): the 1 ↔ 3 link is fast (0.1); node 2
    is behind slow links (0.98) except for its sends to node 3 (0.4), so
    that ``w`` reaches node 3 while node 2's forwards of ``u, v`` — and
    node 1's forward of ``w`` — are still in flight, reproducing the
    caption's ``V`` states exactly.
    """
    # nodes: paper's node 1 → id 0, node 2 → id 1, node 3 → id 2
    N1, N2, N3 = 0, 1, 2

    def schedule(src: int, dst: int, payload: Any, now: float) -> float:
        if (src, dst) == (N2, N3):
            return 0.4
        if N2 in (src, dst):
            return 0.98
        return 0.1

    cluster = Cluster(
        OneShotAso,
        n=3,
        f=1,
        delay_model=AdversarialDelay(1.0, schedule),
    )
    checks: list[str] = []

    op1 = cluster.invoke_at(0.0, N3, "scan")
    cluster.run_until_complete([op1])
    _check(
        checks,
        op1.result.values == (None, None, None)
        and scan_base(op1.record) == frozenset()
        and op1.latency == 0.0,
        "op1 returns immediately with the empty base",
        op1.result.values,
        op1.latency,
    )

    op2 = cluster.invoke_at(0.05, N1, "update", "u")
    op3 = cluster.invoke_at(0.05, N3, "update", "v")
    cluster.run(until=0.4)  # u, v exchanged between nodes 1 and 3

    # probe V at node 1 before op4 (the caption's V₁ states)
    node1 = cluster.node(N1)
    v11 = {vt.value for vt in node1.V.row(N1)}
    v13 = {vt.value for vt in node1.V.row(N3)}
    v12 = {vt.value for vt in node1.V.row(N2)}
    _check(
        checks,
        op2.done
        and op3.done
        and v11 == {"u", "v"}
        and v13 == {"u", "v"}
        and v12 == set(),
        "V1[1] = V1[3] = {u, v}, V1[2] = {} when op4 is invoked",
        v11,
        v12,
        v13,
    )

    op4 = cluster.invoke_at(0.4, N1, "scan")
    cluster.run(until=0.45)
    _check(
        checks,
        op4.done
        and set(op4.result.values) - {None} == {"u", "v"}
        and scan_base(op4.record) == {(N1, 1), (N3, 1)}
        and op4.latency == 0.0,
        "op4 returns {u, v} immediately; base = {op2, op3}",
    )

    # node 2 updates w before u, v reach it (they arrive ≈ 1.03)
    op5 = cluster.invoke_at(0.5, N2, "update", "w")
    cluster.run(until=0.95)  # w reached node 3 at 0.9; nothing else did

    node3 = cluster.node(N3)
    v31 = {vt.value for vt in node3.V.row(N1)}
    v32 = {vt.value for vt in node3.V.row(N2)}
    v33 = {vt.value for vt in node3.V.row(N3)}
    _check(
        checks,
        v33 == {"u", "v", "w"} and v32 == {"w"} and v31 == {"u", "v"},
        "V3[1]={u,v}, V3[2]={w}, V3[3]={u,v,w} before op6",
        v31,
        v32,
        v33,
    )

    op6 = cluster.invoke_at(0.95, N3, "scan")
    cluster.run_until_complete([op6, op5])
    _check(
        checks,
        set(op6.result.values) == {"u", "v", "w"}
        and scan_base(op6.record) == {(N1, 1), (N2, 1), (N3, 1)}
        and op6.latency > 0.0,
        "op6 must wait for forwarded values, then returns {u, v, w}; "
        "base = {op2, op3, op5}",
        op6.result.values,
        op6.latency,
    )

    return Figure2Result(
        op1_snapshot=op1.result.values,
        op4_snapshot=op4.result.values,
        op6_snapshot=op6.result.values,
        op6_had_to_wait=op6.latency > 0.0,
        checks=checks,
    )


__all__ = [
    "Figure1Result",
    "Figure2Result",
    "build_figure1_history",
    "run_figure1",
    "run_figure2",
]

"""Tests for the adversary constructions: the √k staircase is a checked,
replayable :class:`~repro.chaos.plan.ChaosPlan`."""

import json
from dataclasses import replace

import pytest

from repro.chaos.__main__ import main as chaos_main
from repro.chaos.algos import CAMPAIGN_ALGOS
from repro.chaos.plan import ChaosPlan, OpChainSpec
from repro.chaos.runner import run_plan
from repro.harness.adversary import (
    VICTIM,
    interference_wave,
    max_chains_for_budget,
    run_staircase,
    staircase_plan,
    staircase_victim_latency,
)
from repro.obs.tracer import MemorySink, Tracer


def _with_victim(plan: ChaosPlan, *ops) -> ChaosPlan:
    victim = OpChainSpec(VICTIM, tuple(ops), start=2.0)
    return replace(plan, workload=plan.workload + (victim,))


def test_max_chains_triangle_numbers():
    assert max_chains_for_budget(1) == 1
    assert max_chains_for_budget(2) == 1
    assert max_chains_for_budget(3) == 2
    assert max_chains_for_budget(6) == 3
    assert max_chains_for_budget(10) == 4
    assert max_chains_for_budget(21) == 6


def test_staircase_structure():
    plan = staircase_plan("eq_aso", 10)
    chains = [spec.chain for spec in plan.crashes]
    assert plan.crash_count == 10
    assert len(chains) == 4
    # chains end at the victim and use disjoint faulty nodes (Lemma 7)
    faulty_sets = []
    for j, chain in enumerate(chains, start=1):
        assert chain[-1] == VICTIM
        assert len(chain) == j + 1
        faulty_sets.append(set(chain[:-1]))
    for i in range(len(faulty_sets)):
        for j in range(i + 1, len(faulty_sets)):
            assert not (faulty_sets[i] & faulty_sets[j])
    # resilience arithmetic holds
    assert plan.crash_count <= plan.f < plan.n / 2
    faulty = set().union(*faulty_sets)
    assert VICTIM not in faulty
    # the heads' doomed updates at t = 1 between two pumps on spare
    # correct nodes, under the doomed-value delay adversary
    assert plan.delay.kind == "doomed"
    starts = {chain.node: (chain.start, chain.ops) for chain in plan.workload}
    assert starts.pop(plan.n - 1) == (0.0, (("update", "pump-1"),))
    assert starts.pop(plan.n - 2) == (1.2, (("update", "pump-2"),))
    assert starts == {c[0]: (1.0, (("update", f"doomed{c[0]}"),)) for c in chains}
    assert not faulty & {plan.n - 1, plan.n - 2}


def test_staircase_needs_positive_budget():
    with pytest.raises(ValueError):
        staircase_plan("eq_aso", 0)


def test_staircase_victim_latency_grows_like_sqrt_k():
    ks = [1, 6, 21]
    for kind in ("scan", "update"):
        lats = [staircase_victim_latency("eq_aso", kind, k) for k in ks]
        assert lats[0] < lats[1] < lats[2], kind
        # the measured latency tracks (#chains + const)·D
        for k, lat in zip(ks, lats):
            m = max_chains_for_budget(k)
            assert m - 1 <= lat <= m + 3, (kind, k)


def test_staircase_plan_is_reusable_for_sequences():
    handles = run_staircase("eq_aso", 6, [("scan", None)] * 3)
    # first scan eats the staircase, later ones are fast (amortization)
    assert handles[0].latency > handles[-1].latency


def test_staircase_round_trips_and_replays(tmp_path, capsys):
    """The staircase is a complete repro: JSON round-trip, ``--plan``
    replay with a PASS verdict, and SCALE-K's k = 6 scan latency."""
    plan = _with_victim(staircase_plan("eq_aso", 6), ("scan", None))
    data = json.loads(json.dumps(plan.to_dict()))
    assert ChaosPlan.from_dict(data) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(data))
    assert chaos_main(["--plan", str(path)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    assert run_plan(plan).handles[-1].latency == pytest.approx(4.10)


#: the nodes the k = 6 staircase crashes (chains (1,0), (2,3,0), (4,5,6,0)):
#: only the chain heads where an algorithm never re-broadcasts another
#: writer's value, so its hops have nothing to crash on
_HEADS_ONLY = {"delporte", "store_collect", "bfk", "impr"}


@pytest.mark.parametrize("algo", sorted(CAMPAIGN_ALGOS))
def test_which_chain_hops_fire(algo):
    plan = _with_victim(staircase_plan(algo, 6), ("update", "victim-value"))
    sink = MemorySink()
    assert run_plan(plan, tracer=Tracer(sink)).ok
    crashed = {event.node for event in sink.events if event.kind == "crash"}
    heads = {spec.chain[0] for spec in plan.crashes}
    planned = {node for spec in plan.crashes for node in spec.chain[:-1]}
    assert crashed == (heads if algo in _HEADS_ONLY else planned)


def test_interference_schedule_staggering():
    """The wave's writers are every node but the victim, one D apart,
    each with its own back-to-back updates."""
    wave = interference_wave(4, updates_per_writer=2)
    assert [chain.node for chain in wave] == [1, 2, 3]
    assert [chain.start for chain in wave] == [0.0, 1.0, 2.0]
    assert wave[1].ops == (("update", "w2.0"), ("update", "w2.1"))
    for chain in wave:
        assert chain.gap == 0.0
        assert len(chain.ops) == 2 and all(kind == "update" for kind, _ in chain.ops)

"""Differential oracle: the prefix-vector / sparse-graph checkers against
the dense originals in ``tests/support/reference_checkers.py``.

On every generated history the shipped checkers must return the same
verdict, the same witness order, the same effective ops and the same
violations as the originals, and every reported cycle must consist of
edges the dense graph contains.  A counting test (no wall clock) pins
the graph at ≤ (3n+1)·N edges with no frozenset base built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.algos import get_profile
from repro.chaos.campaign import campaign_seed
from repro.chaos.gen import generate_plan
from repro.chaos.mutants import MUTANTS
from repro.chaos.runner import run_plan
from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.spec import base as spec_base
from repro.spec import order as spec_order
from repro.spec.conditions import check_atomicity_conditions
from repro.spec.history import SCAN, UPDATE, History
from repro.spec.linearize import LinearizationError, linearize
from repro.spec.order import effective_ops, order_check, validate_serialization
from repro.spec.sso_conditions import check_sso_conditions
from tests.support import reference_checkers as ref
from tests.support.checker_scale import synthetic_history

from .builders import HistoryBuilder


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
@st.composite
def histories(draw, max_ops=40):
    """Well-formed histories with arbitrary snapshot contents.

    Scans return, per writer, any prefix of the updates generated so far
    — other nodes' timelines are independent, so that covers stale reads,
    reads from the future, incomparable bases and pending updates that
    are (or are not) visible; now and then a segment carries a value its
    update never wrote.  A node may crash mid-operation (its op stays
    pending and it invokes nothing more).  On the integer grid
    zero-length operations, timestamps tied across nodes and a node
    invoking at the very time its previous operation responded (what
    ``chain_ops(gap=0)`` produces) are the norm.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    grid = draw(st.booleans())
    if grid:
        gap = st.integers(min_value=0, max_value=3).map(float)
        length = st.integers(min_value=0, max_value=4).map(float)
    else:
        gap = st.floats(min_value=0.01, max_value=2.0)
        length = st.floats(min_value=0.01, max_value=3.0)
    h = History(n)
    counts = [0] * n
    clock = [0.0] * n
    alive = list(range(n))
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        if not alive:
            break
        node = draw(st.sampled_from(alive))
        t0 = clock[node] + draw(gap)
        t1 = t0 + draw(length)
        clock[node] = t1
        crashes = draw(st.integers(min_value=0, max_value=9)) == 0
        if crashes:
            alive.remove(node)
        if draw(st.booleans()):
            counts[node] += 1
            op = h.invoke(node, UPDATE, (f"v{node}.{counts[node]}",), t0)
            if crashes:
                h.abort(op)
            else:
                h.respond(op, t1, "ACK")
        else:
            op = h.invoke(node, SCAN, (), t0)
            if crashes:
                h.abort(op)
                continue
            meta: list = [None] * n
            for j in range(n):
                seen = draw(st.integers(min_value=0, max_value=counts[j]))
                if seen:
                    meta[j] = ValueTs(f"v{j}.{seen}", Timestamp(seen, j), seen)
            if any(meta) and draw(st.integers(min_value=0, max_value=19)) == 0:
                j = next(j for j, m in enumerate(meta) if m is not None)
                meta[j] = ValueTs("forged", meta[j].ts, meta[j].useq)
            values = tuple(None if m is None else m.value for m in meta)
            h.respond(op, t1, Snapshot(values=values, meta=tuple(meta)))
    return h


def _key(violation):
    return (violation.condition, violation.ops, violation.detail)


def _assert_cycle_is_forced(history, cycle, *, real_time):
    """Every step of the cycle, and its closing step, is a dense edge."""
    assert cycle
    _, dense = ref._build_graph(history, real_time=real_time)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in dense[a], f"{a} → {b} is not a forced edge"


def assert_agrees_with_reference(history):
    assert effective_ops(history) == ref.effective_ops(history)
    for real_time in (True, False):
        got = order_check(history, real_time=real_time)
        want = ref.order_check(history, real_time=real_time)
        assert got.ok == want.ok
        assert [op.op_id for op in got.order] == [op.op_id for op in want.order]
        if not got.ok:
            _assert_cycle_is_forced(history, got.cycle, real_time=real_time)

    got_a = check_atomicity_conditions(history)
    assert sorted(map(_key, got_a)) == sorted(
        map(_key, ref.check_atomicity_conditions(history))
    )
    # Theorem 1 both ways, ties across nodes included: (A0)-(A4) hold
    # iff the forced-order graph is acyclic (which ignores value contents)
    ordered = all(v.condition == "legal" for v in got_a)
    assert ordered == order_check(history, real_time=True).ok
    assert check_sso_conditions(history) == ref.check_sso_conditions(history)

    if got_a:
        with pytest.raises(LinearizationError):
            linearize(history)
    else:
        assert linearize(history) == ref.linearize(history)


# ----------------------------------------------------------------------
# differential properties
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(histories())
def test_shipped_checkers_equal_the_dense_reference(h):
    assert_agrees_with_reference(h)


@settings(max_examples=150, deadline=None)
@given(histories(max_ops=14), st.randoms(use_true_random=False))
def test_validate_serialization_reports_the_same_errors(h, rnd):
    """On arbitrary candidate orders (shuffled, truncated) the one-pass
    validator lists exactly what the pairwise one lists."""
    order = effective_ops(h)
    rnd.shuffle(order)
    if order and rnd.random() < 0.3:
        order.pop()
    for real_time in (True, False):
        assert validate_serialization(
            h, order, real_time=real_time
        ) == ref.validate_serialization(h, order, real_time=real_time)


def _incomparable_bases():
    b = HistoryBuilder(4)
    b.update(0, "a", 0.0, 10.0)
    b.update(1, "b", 0.0, 10.0)
    b.scan(2, 0.0, 10.0, {0: ("a", 1)})
    b.scan(3, 0.0, 10.0, {1: ("b", 1)})
    return b.done()


def _stale_read():
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)
    b.scan(1, 2.0, 3.0, {})
    return b.done()


def _visible_pending_update_of_a_crashed_node():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.update(0, "ghost", 2.0, None)
    b.scan(1, 5.0, 6.0, {0: ("ghost", 2)})
    b.scan(2, 5.0, 6.0, {0: ("a", 1)})
    return b.done()


def _tied_timestamps():
    b = HistoryBuilder(4)
    b.update(0, "a", 1.0, 1.0)
    b.update(0, "a2", 2.0, 3.0)
    b.update(1, "b", 1.0, 2.0)
    b.scan(2, 1.0, 2.0, {0: ("a", 1)})
    b.scan(3, 2.0, 2.0, {0: ("a2", 2), 1: ("b", 1)})
    return b.done()


def _scans_related_only_by_containment():
    """No update responds or is invoked between the scans: the order
    sc2 → sc1 is forced by base containment alone, through update a2."""
    b = HistoryBuilder(3)
    b.update(0, "a1", 0.0, 9.0)
    b.update(0, "a2", 9.0, 9.5)
    b.scan(1, 0.0, 9.0, {0: ("a2", 2)})
    b.scan(2, 0.0, 9.0, {0: ("a1", 1)})
    return b.done()


def _a4_chain():
    b = HistoryBuilder(3)
    b.update(0, "a", 0.0, 1.0)
    b.update(1, "b1", 2.0, 3.0)
    b.update(1, "b2", 3.5, 4.0)
    b.scan(2, 2.5, 5.0, {1: ("b2", 2)})
    return b.done()


@pytest.mark.parametrize(
    "make",
    [
        _incomparable_bases,
        _stale_read,
        _visible_pending_update_of_a_crashed_node,
        _tied_timestamps,
        _scans_related_only_by_containment,
        _a4_chain,
    ],
)
def test_named_shapes_agree_with_reference(make):
    assert_agrees_with_reference(make())


@pytest.mark.parametrize("algo", sorted(MUTANTS))
def test_mutant_histories_agree_with_reference(algo):
    """Chaos histories of the four quorum-weakened mutants: same verdict
    as the dense graph on every one, and the mutant is still caught."""
    profile = get_profile(algo)
    rejected = 0
    for index in range(150):
        plan = generate_plan(profile, campaign_seed(0, algo, index), max_ops_per_node=2)
        history = run_plan(plan, cross_validate=False).history
        if history is None:
            continue
        got = order_check(history, real_time=True)
        want = ref.order_check(history, real_time=True)
        assert got.ok == want.ok
        assert got.order == want.order
        if not got.ok:
            rejected += 1
            _assert_cycle_is_forced(history, got.cycle, real_time=True)
    assert rejected >= 1


# ----------------------------------------------------------------------
# scaling guard (counts, not wall clock)
# ----------------------------------------------------------------------
def test_graph_is_sparse_and_builds_no_set_bases(monkeypatch):
    n, ops = 5, 4000
    h = synthetic_history(n, ops)

    def no_set_bases(scan):
        raise AssertionError("order_check built a frozenset base")

    monkeypatch.setattr(spec_base, "scan_base", no_set_bases)
    assert not hasattr(spec_order, "scan_base")

    nodes, adj = spec_order._build_graph(h, real_time=True)
    assert len(nodes) == ops
    assert sum(map(len, adj)) <= (3 * n + 1) * ops
    result = order_check(h, real_time=True)
    assert result.ok and len(result.order) == ops
    assert check_atomicity_conditions(h) == []


def test_sparse_graph_matches_reference_on_a_mid_sized_history():
    h = synthetic_history(4, 240)
    assert order_check(h, real_time=True).order == ref.order_check(
        h, real_time=True
    ).order

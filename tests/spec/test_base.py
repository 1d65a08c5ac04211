"""Unit tests for bases (Definitions 4 and 5)."""

from repro.spec.base import (
    UpdateIndex,
    base_vector,
    comparable,
    incomparable_pairs,
    leq,
    scan_base,
)

from .builders import HistoryBuilder


def test_scan_base_builds_per_writer_prefixes():
    b = HistoryBuilder(3)
    b.update(0, "a1", 0.0, 1.0)
    b.update(0, "a2", 2.0, 3.0)
    b.update(1, "b1", 0.0, 1.0)
    sc = b.scan(2, 4.0, 5.0, {0: ("a2", 2), 1: ("b1", 1)})
    base = scan_base(sc)
    # seeing a2 (useq 2) pulls in a1 (useq 1) by prefix closure
    assert base == {(0, 1), (0, 2), (1, 1)}


def test_empty_scan_has_empty_base():
    b = HistoryBuilder(2)
    sc = b.scan(0, 0.0, 1.0, {})
    assert scan_base(sc) == frozenset()


def test_base_vector_is_the_prefix_lengths_and_agrees_with_the_set_view():
    b = HistoryBuilder(3)
    b.update(0, "a1", 0.0, 1.0)
    b.update(0, "a2", 2.0, 3.0)
    b.update(1, "b1", 0.0, 1.0)
    sc = b.scan(2, 4.0, 5.0, {0: ("a2", 2), 1: ("b1", 1)})
    vec = base_vector(sc)
    assert vec == (2, 1, 0)
    # (j, s) in B  <=>  s <= c[j]
    assert scan_base(sc) == {
        (j, s) for j in range(3) for s in range(1, 4) if s <= vec[j]
    }


def test_leq_is_componentwise_not_lexicographic():
    assert leq((1, 0), (1, 2)) and leq((1, 2), (1, 2))
    assert (0, 5) < (1, 0) and not leq((0, 5), (1, 0))


def test_comparable():
    a = (1, 0)
    bb = (1, 1)
    c = (0, 1)
    assert comparable(a, bb) and comparable(bb, a)
    assert comparable(a, a)
    assert not comparable(a, c)


def test_incomparable_pairs_empty_iff_chain():
    chain = [(2, 1), (0, 0), (1, 1), (1, 1), (1, 0)]
    assert incomparable_pairs(chain) == []
    # equal sizes that differ, and a pair far apart in size order
    assert incomparable_pairs([(1, 0), (0, 1)]) == [(0, 1)]
    assert incomparable_pairs([(0, 0, 3), (1, 1, 1), (2, 2, 2)]) == [(0, 1), (0, 2)]


def test_update_index_columns_by_useq():
    b = HistoryBuilder(2)
    u1 = b.update(0, "a1", 0.0, 1.0)
    u2 = b.update(0, "a2", 2.0, None)  # pending: t_resp column is inf
    index = UpdateIndex(b.done())
    assert index.ops == [[u1, u2], []]
    assert index.t_inv == [[0.0, 2.0], []]
    assert index.t_resp == [[1.0, float("inf")], []]


def test_legality_against_history_value_mismatch():
    b = HistoryBuilder(2)
    b.update(0, "real-value", 0.0, 1.0)
    sc = b.scan(1, 2.0, 3.0, {0: ("wrong-value", 1)})
    err = UpdateIndex(b.done()).legality_error(sc)
    assert err is not None and "does not match" in err


def test_legality_against_history_unknown_update():
    b = HistoryBuilder(2)
    sc = b.scan(1, 2.0, 3.0, {0: ("ghost", 1)})
    err = UpdateIndex(b.done()).legality_error(sc)
    assert err is not None and "unknown update" in err


def test_legality_ok():
    b = HistoryBuilder(2)
    b.update(0, "v", 0.0, 1.0)
    sc = b.scan(1, 2.0, 3.0, {0: ("v", 1)})
    assert UpdateIndex(b.done()).legality_error(sc) is None

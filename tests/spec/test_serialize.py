"""History JSON round-trip tests."""

import json

import pytest

from repro.core import EqAso
from repro.runtime.cluster import Cluster
from repro.spec import is_linearizable, order_check
from repro.spec.serialize import (
    dump_history,
    history_from_dict,
    history_to_dict,
    load_history,
)

from .builders import HistoryBuilder


def recorded_history():
    cluster = Cluster(EqAso, n=4, f=1)
    handles = []
    for node in range(4):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.3
        )
    cluster.run_until_complete(handles)
    return cluster.history


def test_round_trip_preserves_checker_verdict():
    original = recorded_history()
    rebuilt = history_from_dict(history_to_dict(original))
    assert rebuilt.n == original.n
    assert len(rebuilt.ops) == len(original.ops)
    assert order_check(rebuilt, real_time=True).ok == is_linearizable(original)


def test_round_trip_preserves_timings_and_bases():
    from repro.spec.base import scan_base

    original = recorded_history()
    rebuilt = history_from_dict(history_to_dict(original))
    for a, b in zip(original.ops, rebuilt.ops):
        assert (a.node, a.kind, a.useq, a.t_inv, a.t_resp) == (
            b.node,
            b.kind,
            b.useq,
            b.t_inv,
            b.t_resp,
        )
        if a.is_scan and a.complete:
            assert scan_base(a) == scan_base(b)


def test_round_trip_pending_ops():
    b = HistoryBuilder(2)
    b.update(0, "ghost", 0.0, None)  # pending forever
    b.scan(1, 5.0, 6.0, {0: ("ghost", 1)})
    rebuilt = history_from_dict(history_to_dict(b.done()))
    assert not rebuilt.ops[0].complete
    assert order_check(rebuilt, real_time=True).ok


def test_file_round_trip(tmp_path):
    original = recorded_history()
    path = tmp_path / "history.json"
    dump_history(original, str(path))
    loaded = load_history(str(path))
    assert len(loaded.ops) == len(original.ops)
    # the dump itself is valid, human-inspectable JSON
    data = json.loads(path.read_text())
    assert data["n"] == 4


def test_non_json_values_flagged():
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    b = HistoryBuilder(2)
    b.update(0, Opaque(), 0.0, 1.0)
    data = history_to_dict(b.done())
    entry = data["ops"][0]
    assert entry["value"] == "<opaque>"
    assert entry["value_exact"] is False


def test_violating_history_stays_violating():
    b = HistoryBuilder(4)
    b.update(0, "a", 0.0, 10.0)
    b.update(1, "b", 0.0, 10.0)
    b.scan(2, 0.0, 10.0, {0: ("a", 1)})
    b.scan(3, 0.0, 10.0, {1: ("b", 1)})
    rebuilt = history_from_dict(history_to_dict(b.done()))
    assert not order_check(rebuilt, real_time=True).ok


def short_snapshot_payload():
    """n=3 history whose one scan carries only two segments."""
    return {
        "n": 3,
        "ops": [
            {"op_id": 0, "node": 0, "kind": "update", "useq": 1,
             "t_inv": 0.0, "t_resp": 1.0, "value": "a"},
            {"op_id": 1, "node": 1, "kind": "scan", "useq": 0,
             "t_inv": 2.0, "t_resp": 3.0,
             "snapshot": [{"value": "a", "tag": 1, "writer": 0, "useq": 1}, None]},
        ],
    }


def test_short_snapshot_is_rejected_on_load(tmp_path):
    with pytest.raises(ValueError, match="2 segments"):
        history_from_dict(short_snapshot_payload())
    path = tmp_path / "short.json"
    path.write_text(json.dumps(short_snapshot_payload()))
    with pytest.raises(ValueError, match="2 segments"):
        load_history(str(path))

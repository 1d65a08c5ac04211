"""DES cluster trace recording under crash + partition, and replay-check.

Satellite of the telemetry-plane PR: the deterministic runtime must
(1) record link events (disconnect/reconnect, parked deliveries) and
crashes into the trace, (2) export byte-stable JSONL given a fixed
event order, and (3) produce traces the ``repro.obs check`` replay
harness validates — passing on healthy runs, failing with a forced
cycle on an injected stale read.
"""

import json

import pytest

from repro.core import EqAso
from repro.net.faults import CrashAtTime, CrashPlan
from repro.obs import MemorySink, Tracer, dumps_trace, export_jsonl, read_trace
from repro.obs.__main__ import main as obs_main
from repro.obs.replay import history_from_trace, replay_check
from repro.runtime.cluster import Cluster
from repro.spec import is_linearizable

SCHEDULE = [
    (0.0, 0, "update", ("a",)),
    (0.5, 1, "update", ("b",)),
    (2.0, 2, "scan", ()),
    (9.0, 3, "scan", ()),
]


def faulty_run(seed=0):
    """Crash node 4 mid-run and partition 0->1 for a while."""
    tracer = Tracer(MemorySink(), meta={"seed": seed})
    cluster = Cluster(
        EqAso,
        n=5,
        f=2,
        tracer=tracer,
        crash_plan=CrashPlan({4: CrashAtTime(1.5)}),
    )
    cluster.sim.schedule_at(0.25, lambda: cluster.disconnect(0, 1))
    cluster.sim.schedule_at(3.0, lambda: cluster.reconnect(0, 1))
    cluster.run_ops(SCHEDULE)
    return cluster, tracer


def test_link_and_crash_events_recorded():
    cluster, tracer = faulty_run()
    kinds = {}
    for ev in tracer.sink.events:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
    assert kinds.get("disconnect") == 1
    assert kinds.get("reconnect") == 1
    assert kinds["crash"] == 1
    assert kinds["drop"] > 0  # messages to the crashed node
    # the partition parked deliveries but never lost them
    assert is_linearizable(cluster.history)
    disc = next(ev for ev in tracer.sink.events if ev.kind == "disconnect")
    reco = next(ev for ev in tracer.sink.events if ev.kind == "reconnect")
    assert (disc.src, disc.dst) == (0, 1) == (reco.src, reco.dst)
    assert disc.t == 0.25 and reco.t == 3.0


def test_parked_messages_deliver_in_fifo_order_after_reconnect():
    cluster, tracer = faulty_run()
    events = list(tracer.sink.events)
    parked_sends = [
        ev
        for ev in events
        if ev.kind == "send" and ev.src == 0 and ev.dst == 1 and 0.25 <= ev.t < 3.0
    ]
    assert parked_sends, "partition window saw no traffic on the gated channel"
    delivs = [
        ev for ev in events if ev.kind == "deliver" and ev.src == 0 and ev.dst == 1
    ]
    # messages already in flight at disconnect time may still land (the
    # gate parks at *send* time), but nothing sent after it leaks out
    # before the reconnect: the channel is silent in the gated window
    # once the pre-partition traffic has drained (<= 0.25 + D).
    horizon = 0.25 + cluster.D
    assert not [ev for ev in delivs if horizon < ev.t < 3.0]
    # every parked send is eventually delivered, after the reconnect,
    # in FIFO order
    after = [ev for ev in delivs if ev.t >= 3.0]
    assert len(after) >= len(parked_sends)
    lamports = [ev.lamport for ev in after]
    assert lamports == sorted(lamports)


def test_trace_byte_stable_across_runs():
    first = dumps_trace(faulty_run()[1])
    second = dumps_trace(faulty_run()[1])
    assert first == second
    assert '"kind":"disconnect"' in first and '"kind":"reconnect"' in first


def test_trace_matches_the_pinned_digest():
    """The crash + partition trace, byte for byte as the three-path
    network produced it before the send paths were folded into one
    (PR 12): batching a traced, gated run must not move a single event."""
    import hashlib

    digest = hashlib.sha256(dumps_trace(faulty_run()[1]).encode()).hexdigest()
    assert digest == (
        "7ea3ebe30c7d2bc9ed68893610f45c4bad28d407b8d1998816780a2fbabf37d6"
    )


def test_replay_check_passes_healthy_run(tmp_path):
    _cluster, tracer = faulty_run()
    meta, _events, spans = read_trace_str(tracer)
    result = replay_check(meta, spans)
    assert result.ok and result.level == "linearizable"
    assert result.ops == len(spans)

    # and through the CLI, end to end
    path = tmp_path / "healthy.jsonl"
    export_jsonl(tracer, path)
    assert obs_main(["check", str(path)]) == 0


def read_trace_str(tracer):
    import io

    return read_trace(io.StringIO(dumps_trace(tracer)))


def doctored_stale_read(tracer):
    """Blank one written segment in the *later* scan: a stale read no
    legal serialization can explain (the earlier scan saw the value)."""
    meta, events, spans = read_trace_str(tracer)
    scans = [s for s in spans if s["kind"] == "scan"]
    assert len(scans) == 2
    late = max(scans, key=lambda s: s["t_inv"])
    segments = late["result"]["snapshot"]
    victim = next(i for i, seg in enumerate(segments) if seg is not None)
    segments[victim] = None
    return meta, events, spans


def test_replay_check_fails_injected_stale_read(tmp_path):
    _cluster, tracer = faulty_run()
    meta, events, spans = doctored_stale_read(tracer)
    result = replay_check(meta, spans)
    assert not result.ok
    assert result.cycle  # the forced-order cycle is the counterexample
    assert result.violations

    # CLI: exit 1 and a FAIL verdict with the cycle
    path = tmp_path / "stale.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "meta", **meta}) + "\n")
        for ev in events:
            fh.write(json.dumps({"type": "event", **ev}) + "\n")
        for span in spans:
            fh.write(json.dumps({"type": "span", **span}) + "\n")
    assert obs_main(["check", str(path)]) == 1


def test_history_from_trace_round_trips_operations():
    cluster, tracer = faulty_run()
    meta, _events, spans = read_trace_str(tracer)
    history = history_from_trace(meta, spans)
    assert len(history) == len(cluster.history)
    assert is_linearizable(history)


def test_unreplayable_trace_is_a_clean_cli_error(tmp_path, capsys):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"type":"meta","version":1}\n')
    assert obs_main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err

"""Tracer semantics: spans, phases, Lamport clocks, fault events.

The load-bearing properties (ISSUE acceptance criteria):

- a failure-free EQ-ASO operation's top-level phases partition its
  end-to-end latency exactly (scan = readTag 2D + lattice 2D);
- per-operation message counts are O(n);
- tracing is a pure observer (identical latencies with and without it)
  and the disabled path emits nothing at all;
- Lamport clocks satisfy the happened-before edges the event log claims.
"""

import pytest

from repro.core import EqAso
from repro.obs import MemorySink, NullSink, Tracer
from repro.runtime.cluster import Cluster

QUIET = [(0.0, 0, "update", ("x",)), (8.0, 1, "scan", ())]


def traced_cluster(n=5, *, sink=None, **kw):
    tracer = Tracer(MemorySink() if sink is None else sink)
    cluster = Cluster(EqAso, n=n, f=(n - 1) // 2, tracer=tracer, **kw)
    return cluster, tracer


# ----------------------------------------------------------------------
# phase decomposition (the acceptance criterion)
# ----------------------------------------------------------------------
def test_scan_phases_partition_latency():
    cluster, tracer = traced_cluster()
    cluster.run_ops(QUIET)
    scan = tracer.spans[1]
    assert scan.kind == "scan" and scan.done
    assert scan.latency / cluster.D == pytest.approx(4.0)
    phases = scan.phase_durations(cluster.D)
    assert phases == {"readTag": pytest.approx(2.0), "lattice": pytest.approx(2.0)}
    assert sum(phases.values()) == pytest.approx(scan.latency / cluster.D)
    assert scan.unattributed(cluster.D) == pytest.approx(0.0)


def test_update_phases_partition_latency():
    cluster, tracer = traced_cluster()
    cluster.run_ops(QUIET)
    upd = tracer.spans[0]
    assert upd.kind == "update"
    assert upd.latency / cluster.D == pytest.approx(6.0)
    phases = upd.phase_durations(cluster.D)
    assert set(phases) == {"readTag", "phase0", "lattice"}
    assert sum(phases.values()) == pytest.approx(upd.latency / cluster.D)


def test_nested_phases_do_not_pollute_top_level():
    cluster, tracer = traced_cluster()
    cluster.run_ops(QUIET)
    # the lattice round's internal waits are nested at depth >= 1
    nested = [p.name for span in tracer.spans for p in span.phases if p.depth > 0]
    assert "eq-wait" in nested
    top = set(tracer.spans[1].phase_durations(cluster.D))
    assert "eq-wait" not in top


# ----------------------------------------------------------------------
# message accounting (O(n) claim)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [4, 8, 12])
def test_per_op_message_counts_linear_in_n(n):
    cluster, tracer = traced_cluster(n)
    cluster.run_ops([(0.0, 0, "update", ("x",)), (8.0, 1, "scan", ())])
    upd, scan = tracer.spans
    # the sender-side cost of an op is a constant number of broadcasts
    assert n <= upd.messages <= 10 * n
    assert n <= scan.messages <= 8 * n


def test_span_messages_match_handle_accounting():
    cluster, tracer = traced_cluster()
    handles = cluster.run_ops(QUIET)
    for handle, span in zip(handles, tracer.spans):
        assert span.messages == handle.messages_sent


# ----------------------------------------------------------------------
# pure observer / zero overhead
# ----------------------------------------------------------------------
def test_null_sink_disables_everything():
    cluster, tracer = traced_cluster(sink=NullSink())
    assert not tracer.enabled
    assert cluster._tracer is None  # runtime normalized it away
    assert all(node._phase_hook is None for node in cluster.nodes)
    cluster.run_ops(QUIET)
    assert tracer.events_emitted == 0
    assert tracer.spans == []


def test_tracing_does_not_perturb_the_schedule():
    def run(tracer):
        cluster = Cluster(EqAso, n=5, f=2, tracer=tracer)
        handles = cluster.run_ops(QUIET)
        return [(h.kind, h.latency, h.result) for h in handles]

    untraced = run(None)
    assert run(Tracer(MemorySink())) == untraced
    assert run(Tracer(NullSink())) == untraced


# ----------------------------------------------------------------------
# Lamport clocks
# ----------------------------------------------------------------------
def test_lamport_deliver_after_matching_send():
    from collections import deque

    cluster, tracer = traced_cluster()
    cluster.run_ops(QUIET)
    cluster.run()  # drain the trailing echo traffic
    in_flight: dict[tuple[int, int], deque[int]] = {}
    pairs = 0
    for ev in tracer.sink.events:
        if ev.kind == "send":
            in_flight.setdefault((ev.src, ev.dst), deque()).append(ev.lamport)
        elif ev.kind in ("deliver", "drop"):
            sent = in_flight[(ev.src, ev.dst)].popleft()  # FIFO channels
            if ev.kind == "deliver":
                assert ev.lamport > sent
                pairs += 1
    assert pairs > 0
    assert all(not q for q in in_flight.values())  # quiet run: all delivered


def test_lamport_strictly_increasing_per_node():
    cluster, tracer = traced_cluster()
    cluster.run_ops(QUIET)
    last: dict[int, int] = {}
    ticks = 0
    for ev in tracer.sink.events:
        if ev.kind == "drop":  # carries the *send's* clock, node is dead
            continue
        assert ev.lamport > last.get(ev.node, 0), f"clock regressed at {ev}"
        last[ev.node] = ev.lamport
        ticks += 1
    assert ticks == tracer.events_emitted


# ----------------------------------------------------------------------
# faults: crash / drop / abort
# ----------------------------------------------------------------------
def test_crash_emits_crash_drop_and_abort_events():
    cluster, tracer = traced_cluster()
    upd = cluster.invoke_at(0.0, 0, "update", "doomed")
    scan = cluster.invoke_at(0.0, 1, "scan")
    cluster.sim.schedule_call_at(1.5, lambda: cluster.crash(0))
    cluster.run_until_complete([upd, scan])

    kinds = {ev.kind for ev in tracer.sink.events}
    assert {"crash", "drop", "op-abort"} <= kinds
    assert upd.aborted and scan.done

    span = tracer.spans[0]
    assert span.aborted and span.t_resp == pytest.approx(1.5)
    # the abort truncated whatever phase was open — nothing dangles
    assert all(p.t_end is not None for p in span.phases)
    # drops are addressed to the dead node
    assert all(ev.dst == 0 for ev in tracer.sink.events if ev.kind == "drop")


def test_phase_without_open_span_is_ignored():
    tracer = Tracer(MemorySink())
    tracer.phase(3, "ghost", True)  # no op running at node 3
    tracer.phase(3, "ghost", False)
    assert tracer.events_emitted == 0

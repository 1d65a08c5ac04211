"""Coverage accounting: key spaces, merge/novelty, CLI."""

import json

from repro.core import EqAso
from repro.net.faults import CrashAtTime, CrashPlan
from repro.obs import Coverage, MemorySink, Tracer, export_jsonl
from repro.obs.__main__ import main as obs_main
from repro.runtime.cluster import Cluster


def span(op_id, node, kind, t_inv, t_resp, phases=(), aborted=False):
    return {
        "op_id": op_id,
        "node": node,
        "kind": kind,
        "t_inv": t_inv,
        "t_resp": t_resp,
        "aborted": aborted,
        "phases": list(phases),
    }


def phase(name, t_start, t_end, depth=0):
    return {"name": name, "t_start": t_start, "t_end": t_end, "depth": depth}


SPANS = [
    span(
        0,
        1,
        "scan",
        0.0,
        4.0,
        [phase("readTag", 0.0, 2.0), phase("lattice", 2.0, 4.0)],
    ),
    span(1, 2, "update", 3.0, 5.0, [phase("writeTag", 3.0, 5.0)]),
    span(2, 0, "scan", 10.0, None),  # crashed mid-op, never responded
]


def test_phase_keys_and_unphased_marker():
    cov = Coverage.from_trace({}, [], SPANS)
    assert cov.phases == {
        "scan/readTag": 1,
        "scan/lattice": 1,
        "update/writeTag": 1,
        "scan/(unphased)": 1,
    }


def test_fault_timing_located_in_phases():
    events = [
        # node 1 is inside scan/readTag at t=1
        {"kind": "crash", "t": 1.0, "lamport": 1, "node": 1},
        # node 1 again at t=3: readTag closed, lattice open
        {"kind": "drop", "t": 3.0, "lamport": 2, "node": 1},
        # node 3 never runs an op
        {"kind": "disconnect", "t": 3.0, "lamport": 3, "node": 3},
        # node 0's span never responded: still active at t=12
        {"kind": "backpressure", "t": 12.0, "lamport": 4, "node": 0},
        # deliveries are not faults
        {"kind": "deliver", "t": 1.0, "lamport": 5, "node": 1},
    ]
    cov = Coverage.from_trace({}, events, SPANS)
    assert cov.faults == {
        "crash@scan.readTag": 1,
        "drop@scan.lattice": 1,
        "disconnect@idle": 1,
        "backpressure@scan.(between-phases)": 1,
    }


def test_interleaving_signatures():
    cov = Coverage.from_trace({}, [], SPANS)
    # scan(0..4) overlaps update(3..5); update overlaps only that scan;
    # the open span (10..inf) overlaps nothing that late
    assert cov.interleavings == {
        "scan~update": 1,
        "update~scan": 1,
        "scan~solo": 1,
    }


def test_merge_accumulates_and_novel_keys_diff():
    a = Coverage.from_trace({}, [], SPANS[:1])
    b = Coverage.from_trace({}, [], SPANS)
    total = Coverage().merge(a).merge(b)
    assert total.phases["scan/readTag"] == 2
    novel = b.novel_keys(a)
    assert "update/writeTag" in novel["phases"]
    assert "scan/readTag" not in novel["phases"]
    assert b.novel_keys(b) == {k: [] for k in novel}
    assert total.total() == sum(total.distinct().values())


def test_to_dict_is_json_safe_and_sorted():
    cov = Coverage.from_trace({}, [], SPANS)
    d = json.loads(json.dumps(cov.to_dict()))
    assert list(d["phases"]) == sorted(d["phases"])
    assert d["distinct"]["phases"] == len(d["phases"])


def crashy_trace(tmp_path):
    tracer = Tracer(MemorySink(), meta={"seed": 0})
    cluster = Cluster(
        EqAso,
        n=5,
        f=2,
        tracer=tracer,
        crash_plan=CrashPlan({4: CrashAtTime(1.5)}),
    )
    cluster.run_ops([(0.0, 0, "update", ("a",)), (2.0, 1, "scan", ())])
    path = tmp_path / "trace.jsonl"
    export_jsonl(tracer, path)
    return path


def test_load_from_real_trace_with_faults(tmp_path):
    cov = Coverage.load(str(crashy_trace(tmp_path)))
    assert any(key.startswith("crash@") for key in cov.faults)
    assert any(key.startswith("drop@") for key in cov.faults)
    assert cov.distinct()["phases"] > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_coverage_text_and_json(tmp_path, capsys):
    path = str(crashy_trace(tmp_path))
    assert obs_main(["coverage", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("coverage:")
    assert "crash@" in out

    assert obs_main(["coverage", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"phases", "faults", "interleavings", "distinct"}


def test_cli_coverage_baseline_novelty(tmp_path, capsys):
    crashed = str(crashy_trace(tmp_path))
    healthy = tmp_path / "healthy.jsonl"
    tracer = Tracer(MemorySink(), meta={"seed": 0})
    cluster = Cluster(EqAso, n=5, f=2, tracer=tracer)
    cluster.run_ops([(0.0, 0, "update", ("a",)), (2.0, 1, "scan", ())])
    export_jsonl(tracer, healthy)

    assert obs_main(["coverage", crashed, "--baseline", str(healthy)]) == 0
    out = capsys.readouterr().out
    assert "novel keys" in out and "faults: crash@" in out

    assert (
        obs_main(
            [
                "coverage",
                crashed,
                "--baseline",
                str(healthy),
                "--format",
                "json",
            ]
        )
        == 0
    )
    novel = json.loads(capsys.readouterr().out)
    assert any(key.startswith("crash@") for key in novel["faults"])


"""The handler-table consume site: a method registered with
``@handles(M)`` is an arm for ``M`` in the flow graph, and the rules
that start from handlers (RL001, RL003, RL007, RL008, RL010) take it as
one.  The real-tree pin: moving every crash-model algorithm from
``match`` ladders to the table left the exported graph where it was."""

from __future__ import annotations

import ast
import json
import pathlib
import textwrap

from repro.lint import LintConfig, run_lint
from repro.lint.engine import collect_files, parse_modules
from repro.lint.flow import build_flow_graph, graph_to_dict
from repro.lint.project import ModuleInfo, ProjectIndex

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

HEADER = """
    from dataclasses import dataclass

    from repro.runtime.protocol import ProtocolNode, WaitUntil, handles

    @dataclass(frozen=True, slots=True)
    class MPing:
        origin: int
        hops: int = 0

    @dataclass(frozen=True, slots=True)
    class MPong:
        origin: int
    """


def _lint_source(tmp_path, body: str, rule: str) -> list:
    path = tmp_path / "node.py"
    path.write_text(textwrap.dedent(HEADER) + textwrap.dedent(body))
    config = LintConfig().with_selection(select=[rule])
    return run_lint([path], config).findings


def test_a_registered_handler_is_an_arm_with_the_fields_it_reads():
    src = textwrap.dedent(HEADER) + textwrap.dedent(
        """
        class PingNode(ProtocolNode):
            def ping(self):
                self.broadcast(MPing(self.node_id))

            @handles(MPing)
            def _on_ping(self, src: int, m: MPing) -> None:
                self.send(m.origin, MPong(self.node_id))

            @handles(MPong)
            def _on_pong(self, src: int, m: MPong) -> None:
                self.pongs += 1  # reads no field
        """
    )
    index = ProjectIndex([ModuleInfo(path="mod.py", tree=ast.parse(src), source=src)])
    graph = build_flow_graph(index)
    arms = {
        (c.message, c.kind, c.cls, c.method, c.fields_read)
        for c in graph.consumes
        if c.is_arm
    }
    assert arms == {
        ("MPing", "handler", "PingNode", "_on_ping", ("origin",)),
        ("MPong", "handler", "PingNode", "_on_pong", ()),
    }
    sends = {(s.message, s.method) for s in graph.sends}
    assert sends == {("MPing", "ping"), ("MPong", "_on_ping")}


def test_table_fixture_pair_for_rl007():
    assert run_lint([FIXTURES / "rl007_table_good.py"], LintConfig()).findings == []
    config = LintConfig().with_selection(select=["RL007"])
    findings = run_lint([FIXTURES / "rl007_table_bad.py"], config).findings
    messages = sorted(f.message for f in findings)
    assert len(messages) == 2
    assert "dead handler: LeakyTableNode._on_ghost has a handler arm" in messages[0]
    assert "dead letter: 'MOrphan'" in messages[1]
    assert "no registered handler" in messages[1]


def test_rl008_checks_reads_on_a_registered_payload(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        class N(ProtocolNode):
            def go(self):
                self.broadcast(MPing(self.node_id))

            @handles(MPing)
            def _on_ping(self, src: int, m: MPing) -> None:
                self.seen = (m.origin, m.epoch)
        """,
        "RL008",
    )
    assert [f.message for f in findings] == [
        "read of '.epoch' on a value narrowed to 'MPing', which defines no "
        "such field (schema: ('origin', 'hops'))"
    ]


def test_rl010_takes_registered_handlers_as_roots(tmp_path):
    body = """
        class N(ProtocolNode):
            def __init__(self, node_id, n, f):
                super().__init__(node_id, n, f)
                self.pongs = set()

            def go(self):
                self.phase_enter("go")
                self.broadcast(MPing(self.node_id))
                yield WaitUntil(lambda: len(self.pongs) >= self.quorum_size, "q")
                self.phase_exit("go")

            @handles(MPing)
            def _on_ping(self, src: int, m: MPing) -> None:
                self.send(src, MPong(self.node_id))

            @handles(MPong)
            def _on_pong(self, src: int, m: MPong) -> None:
                {effect}
        """
    live = _lint_source(tmp_path, body.format(effect="self.pongs.add(src)"), "RL010")
    assert live == []
    dead = _lint_source(tmp_path, body.format(effect="self.other = src"), "RL010")
    assert len(dead) == 1 and "self.pongs" in dead[0].message


def test_rl010_a_handler_for_an_unsent_kind_keeps_nothing_alive(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        class N(ProtocolNode):
            def __init__(self, node_id, n, f):
                super().__init__(node_id, n, f)
                self.pongs = set()

            def go(self):
                self.phase_enter("go")
                self.broadcast(MPing(self.node_id))
                yield WaitUntil(lambda: len(self.pongs) >= self.quorum_size, "q")
                self.phase_exit("go")

            @handles(MPing)
            def _on_ping(self, src: int, m: MPing) -> None:
                pass

            @handles(MPong)  # nobody sends MPong
            def _on_pong(self, src: int, m: MPong) -> None:
                self.pongs.add(src)
        """,
        "RL010",
    )
    assert len(findings) == 1 and "unsatisfiable wait" in findings[0].message


def test_rl003_and_rl001_look_inside_registered_handlers(tmp_path):
    body = """
        class N(ProtocolNode):
            def __init__(self, node_id, n, f):
                super().__init__(node_id, n, f)
                self.peers: set[int] = set()

            def go(self):
                self.broadcast(MPing(self.node_id))

            @handles(MPing)
            def _on_ping(self, src: int, m: MPing) -> None:
                m.hops += 1
                for peer in self.peers:
                    self.send(peer, MPing(m.origin))
        """
    (mutation,) = _lint_source(tmp_path, body, "RL003")
    assert "N._on_ping mutates the received message 'm'" in mutation.message
    (iteration,) = _lint_source(tmp_path, body, "RL001")
    assert "iteration over a set in N._on_ping" in iteration.message


def test_real_tree_edges_are_what_the_match_ladders_exported():
    """``core`` + ``baselines`` consume/send edges as (kind, class,
    message, fields), against the export taken at the last commit that
    dispatched by ``match``.  Two field sets differ, both by design: the
    match form counted a ``_`` placeholder as a read of that position."""
    files = collect_files([REPO / "src" / "repro"], LintConfig())
    modules, errors = parse_modules(files)
    assert errors == []
    index = ProjectIndex(modules)
    payload = graph_to_dict(build_flow_graph(index), index)
    edges = sorted(
        [e["kind"], e["class"], e["message"], e["fields"]]
        for e in payload["edges"]
        if "/repro/core/" in e["path"] or "/repro/baselines/" in e["path"]
    )
    golden = json.loads(
        (FIXTURES / "flow_edges_core_baselines.pr15.json").read_text()
    )
    placeholders = {
        ("EqAso", "MWriteAck"): "tag",
        ("StoreCollectObject", "MStoreAck"): "writer",
    }
    for edge in golden:
        unread = placeholders.get((edge[1], edge[2]))
        if edge[0] == "consume" and unread is not None:
            edge[3].remove(unread)
    assert edges == sorted(golden)
    # ... and no ``match`` arm is left on a crash-model delivery path
    ladders = {
        e["class"]
        for e in payload["edges"]
        if e["via"] == "match"
        and ("/repro/core/" in e["path"] or "/repro/baselines/" in e["path"])
    }
    assert ladders == {"ByzantineAso"}

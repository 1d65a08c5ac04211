"""``ProtocolNode.quorum_round`` is the one count-wait, and the
whole-program rules follow it there: RL009 proves its threshold under
each inheriting class's fault model, RL010 connects its wait to
``round_reply`` through the handler closure, RL007 sees its payload as a
send site."""

from __future__ import annotations

import pathlib
import textwrap

from repro.lint import LintConfig, run_lint
from repro.lint.engine import collect_files, parse_modules
from repro.lint.flow import build_flow_graph
from repro.lint.flow.symbolic import (
    Lin,
    check_intersection,
    fault_model_for,
    threshold_comparisons,
    threshold_form,
)
from repro.lint.project import ProjectIndex

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
MUTANTS = SRC / "chaos" / "mutants.py"


def _real_tree():
    # the default walk skips mutants.py (it fails RL009 by design)
    files = collect_files([SRC], LintConfig()) + [MUTANTS]
    modules, errors = parse_modules(files)
    assert not errors
    index = ProjectIndex(modules)
    return index, build_flow_graph(index)


def test_the_primitive_is_the_only_count_wait():
    """Every ``WaitUntil`` with a threshold comparison is the primitive,
    except two deliberate non-rounds: the LA proposer waits on *every*
    element's ack set at once (several broadcasts, one conjunction), and
    the chaos mutants spell their weakened count out on purpose."""
    _, graph = _real_tree()
    sites = {
        (pathlib.Path(w.path).relative_to(SRC).as_posix(), w.cls, w.method)
        for w in graph.waits
        if threshold_comparisons(w.predicate)
    }
    assert {s for s in sites if s[0] != "chaos/mutants.py"} == {
        ("runtime/protocol.py", "ProtocolNode", "quorum_round"),
        ("core/lattice_agreement.py", "EarlyStoppingLA", "propose"),
    }
    assert len(sites) == 2 + 4  # one explicit weakened wait per mutant


def test_rl009_proves_the_helper_under_every_inheriting_fault_model():
    index, graph = _real_tree()
    (site,) = [
        w for w in graph.waits if (w.cls, w.method) == ("ProtocolNode", "quorum_round")
    ]
    ((compare, expr),) = threshold_comparisons(site.predicate)
    # the threshold is a local read once per round; RL009 reads through it
    assert threshold_form(compare, expr) is None
    form = threshold_form(compare, expr, site.enclosing_fn)
    assert form == Lin(n=1, f=-1)
    models = {cls: fault_model_for(index, cls) for cls in ("EqAso", "ByzantineAso")}
    assert not models["EqAso"].byzantine and models["ByzantineAso"].byzantine
    assert all(check_intersection(form, m) is None for m in models.values())


WEAK_HELPER = """
    from dataclasses import dataclass

    from repro.runtime.protocol import ProtocolNode, WaitUntil


    @dataclass(frozen=True, slots=True)
    class MAsk:
        reqid: int


    @dataclass(frozen=True, slots=True)
    class MTell:
        reqid: int


    class {name}(ProtocolNode):
        def __init__(self, node_id, n, f):
            super().__init__(node_id, n, f)
            if n <= 3 * f:
                raise ValueError("needs n > 3f")

        def ask(self):
            self.phase_enter("ask")
            {body}
            self.phase_exit("ask")

        def on_message(self, src, payload):
            match payload:
                case MAsk(reqid):
                    self.send(src, MTell(reqid))
                case MTell(reqid):
                    {reply}
    """


def _lint(tmp_path, name, body, reply, rule):
    path = tmp_path / f"{name.lower()}.py"
    source = WEAK_HELPER.format(name=name, body=body, reply=reply)
    path.write_text(textwrap.dedent(source))
    config = LintConfig().with_selection(select=[rule])
    return run_lint([path], config, context=[SRC / "runtime"]).findings


FILES_REPLY = "self.round_reply(MAsk, reqid, src)"


def test_rl009_reads_a_hoisted_threshold_and_flags_a_weak_one(tmp_path):
    body = (
        "need = self.f + 1\n"
        "            yield WaitUntil(lambda: len(self._rounds) >= need, 'weak')"
    )
    (finding,) = _lint(tmp_path, "WeakNode", body, FILES_REPLY, "RL009")
    assert "'need'" in finding.message and "Byzantine (n > 3f)" in finding.message


def test_rl010_connects_the_round_to_round_reply(tmp_path):
    body = "yield from self.quorum_round(1, MAsk(1), 'ask quorum')"
    assert _lint(tmp_path, "GoodNode", body, FILES_REPLY, "RL010") == []
    # a handler that never files the reply leaves the round unsatisfiable;
    # the finding lands on the helper's wait, which a context file does
    # not report — so lint the helper itself alongside
    path = tmp_path / "deafnode.py"
    path.write_text(
        textwrap.dedent(WEAK_HELPER.format(name="DeafNode", body=body, reply="pass"))
    )
    config = LintConfig().with_selection(select=["RL010"])
    findings = run_lint([path, SRC / "runtime" / "protocol.py"], config).findings
    assert len(findings) == 1
    assert "self._rounds" in findings[0].message and "DeafNode" in findings[0].message


def test_rl007_sees_the_round_payload_as_a_send_site(tmp_path):
    body = "yield from self.quorum_round(1, MAsk(1), 'ask quorum')"
    assert _lint(tmp_path, "SendNode", body, FILES_REPLY, "RL007") == []
    _, graph = _real_tree()
    via_round = {s.message for s in graph.sends if s.via == "quorum_round"}
    assert {"MReadTag", "MWriteTag", "MValue", "MCollect", "MCommit"} <= via_round

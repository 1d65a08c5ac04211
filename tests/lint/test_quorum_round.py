"""``ProtocolNode.quorum_round`` is the one count-wait, and RL009
follows it there: it proves the round's threshold under each inheriting
class's fault model."""

from __future__ import annotations

import pathlib
import textwrap

from repro.lint import LintConfig, run_lint
from repro.lint.engine import collect_files, parse_modules
from repro.lint.flow import wait_sites
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
    return index, wait_sites(modules)


def test_the_primitive_is_the_only_count_wait():
    """Every ``WaitUntil`` with a threshold comparison is the primitive,
    except two deliberate non-rounds: the LA proposer waits on *every*
    element's ack set at once (several broadcasts, one conjunction), and
    the chaos mutants spell their weakened count out on purpose."""
    _, waits = _real_tree()
    sites = {
        (pathlib.Path(w.path).relative_to(SRC).as_posix(), w.cls, w.enclosing_fn.name)
        for w in waits
        if threshold_comparisons(w.predicate)
    }
    assert {s for s in sites if s[0] != "chaos/mutants.py"} == {
        ("runtime/protocol.py", "ProtocolNode", "quorum_round"),
        ("core/lattice_agreement.py", "EarlyStoppingLA", "propose"),
    }
    assert len(sites) == 2 + 4  # one explicit weakened wait per mutant


def test_rl009_proves_the_helper_under_every_inheriting_fault_model():
    index, waits = _real_tree()
    (site,) = [
        w
        for w in waits
        if (w.cls, w.enclosing_fn.name) == ("ProtocolNode", "quorum_round")
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

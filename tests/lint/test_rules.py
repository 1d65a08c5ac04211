"""Positive/negative fixture coverage for every rule family.

Each rule id has at least one *bad* fixture that must produce findings
of exactly that id and one *good* fixture that must be clean — the
acceptance bar for shipping a new rule.
"""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.lint import LintConfig, run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule id -> (bad fixture, good fixture), relative to FIXTURES
PAIRS = {
    "RL001": ("rl001_bad.py", "rl001_good.py"),
    "RL002": ("repro/core/rl002_bad.py", "repro/core/rl002_good.py"),
    "RL003": ("rl003_bad_messages.py", "rl003_good_messages.py"),
    "RL004": ("rl004_bad.py", "rl004_good.py"),
    "RL005": ("rl005_bad.py", "rl005_good.py"),
    "RL009": ("rl009_bad.py", "rl009_good.py"),
}


def lint_fixture(name: str, **kwargs) -> list:
    config = LintConfig().with_selection(**kwargs) if kwargs else LintConfig()
    return run_lint([FIXTURES / name], config).findings


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_bad_fixture_flags_rule(rule_id):
    bad, _ = PAIRS[rule_id]
    findings = lint_fixture(bad, select=[rule_id])
    assert findings, f"{bad} should violate {rule_id}"
    assert {f.rule_id for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_good_fixture_is_clean_for_rule(rule_id):
    _, good = PAIRS[rule_id]
    assert lint_fixture(good, select=[rule_id]) == []


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_good_fixture_is_clean_under_all_rules(rule_id):
    _, good = PAIRS[rule_id]
    assert lint_fixture(good) == []


# -- rule-specific behaviours ------------------------------------------


def test_rl001_allows_rng_module_to_import_random():
    assert lint_fixture("repro/sim/rng.py") == []


def test_rl001_flags_each_banned_import_and_urandom():
    findings = lint_fixture("rl001_bad.py", select=["RL001"])
    messages = "\n".join(f.message for f in findings)
    for name in ("random", "time", "datetime"):
        assert f"{name!r}" in messages
    assert "os.urandom" in messages


def test_rl001_flags_multiprocessing_outside_parallel_package():
    findings = lint_fixture("rl001_mp_bad.py", select=["RL001"])
    assert len(findings) == 1
    assert "process-spawning module 'multiprocessing'" in findings[0].message
    assert "repro.parallel.run_tasks" in findings[0].message


def test_rl001_exempts_multiprocessing_in_parallel_package():
    # package-relative prefix parallel/ hosts the deterministic
    # executor; it may import multiprocessing — under every rule
    assert lint_fixture("repro/parallel/rl001_mp_good.py") == []


def test_rl001_flags_set_iteration_sites():
    findings = lint_fixture("rl001_bad.py", select=["RL001"])
    iteration = [f for f in findings if "nondeterministic order" in f.message]
    # self.peers, the {1,2,3} literal, and the local `local` variable
    assert len(iteration) == 3


def test_rl002_counts_io_imports_and_outbox_accesses():
    findings = lint_fixture("repro/core/rl002_bad.py", select=["RL002"])
    imports = [f for f in findings if "imports" in f.message]
    outbox = [f for f in findings if "outbox" in f.message]
    assert len(imports) == 3  # asyncio, threading, socket
    assert len(outbox) == 3  # append, list(...), clear


def test_rl003_flags_only_unfrozen_dataclasses():
    findings = lint_fixture("rl003_bad_messages.py", select=["RL003"])
    frozen = [f for f in findings if "not frozen" in f.message]
    names = {f.message.split("'")[1] for f in frozen}
    assert names == {"MPlain", "MSlotted"}  # MFrozen passes


def test_rl003_flags_payload_mutation():
    findings = lint_fixture("rl003_bad_messages.py", select=["RL003"])
    mutations = [f for f in findings if "mutates" in f.message]
    assert len(mutations) == 3  # attribute, element, del


def test_rl003_and_rl001_look_inside_registered_handlers(tmp_path):
    path = tmp_path / "node.py"
    path.write_text(
        textwrap.dedent(
            """
            from dataclasses import dataclass

            from repro.runtime.protocol import ProtocolNode, handles

            @dataclass(frozen=True, slots=True)
            class MPing:
                origin: int
                hops: int = 0

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
        )
    )
    (mutation,) = run_lint([path], LintConfig(select=frozenset({"RL003"}))).findings
    assert "N._on_ping mutates the received message 'm'" in mutation.message
    (iteration,) = run_lint([path], LintConfig(select=frozenset({"RL001"}))).findings
    assert "iteration over a set in N._on_ping" in iteration.message


def test_rl004_flags_magic_and_float_thresholds():
    findings = lint_fixture("rl004_bad.py", select=["RL004"])
    assert len([f for f in findings if "magic quorum" in f.message]) == 2
    assert len([f for f in findings if "float division" in f.message]) == 1


def test_rl009_does_not_subsume_rl004():
    # why RL004 stays: handler-side count tests are not WaitUntil
    # predicates and float division is not a threshold, so the symbolic
    # rule sees one of the fixture's three defects
    rl004 = {f.line for f in lint_fixture("rl004_bad.py", select=["RL004"])}
    rl009 = {f.line for f in lint_fixture("rl004_bad.py", select=["RL009"])}
    assert len(rl004) == 3 and len(rl009) == 1 and rl009 < rl004


def test_rl005_transitive_helper_resolution():
    # delegated() in the good fixture only reaches phase_enter through
    # _round(), and InheritingNode.op only through the inherited helper
    assert lint_fixture("rl005_good.py", select=["RL005"]) == []
    findings = lint_fixture("rl005_bad.py", select=["RL005"])
    assert len(findings) == 1
    assert "UnphasedNode.op" in findings[0].message


def test_rl009_counterexample_is_concrete_and_in_model():
    findings = lint_fixture("rl009_bad.py", select=["RL009"])
    assert len(findings) == 2
    crash, byz = findings
    assert "'self.f + 1'" in crash.message
    assert "crash (n > 2f)" in crash.message
    assert "Byzantine (n > 3f)" in byz.message
    # the counterexample really sits inside the declared fault model
    import re

    for finding, k in ((crash, 2), (byz, 3)):
        m = re.search(r"n=(\d+), f=(\d+)", finding.message)
        n, f = int(m.group(1)), int(m.group(2))
        assert n > k * f


def test_findings_are_sorted_and_carry_locations():
    findings = lint_fixture("rl001_bad.py")
    assert findings == sorted(findings, key=lambda f: f.sort_key())
    assert all(f.line >= 1 and f.col >= 1 for f in findings)
    assert all(f.path.endswith("rl001_bad.py") for f in findings)


def test_rl005_coverage_regression_fixture():
    """RL005 is the static twin of repro.obs.coverage's '(unphased)'
    marker: in a node with one annotated and one blind op, exactly the
    blind op is flagged, and a trace of the blind op would carry the
    unphased coverage key while the annotated op carries real ones."""
    findings = lint_fixture("rl005_coverage.py", select=["RL005"])
    assert len(findings) == 1
    assert "HalfCoveredNode.blind" in findings[0].message

    # the runtime side: coverage accounting over synthetic spans of the
    # same two ops yields the unphased marker only for the blind one
    from repro.obs.coverage import Coverage

    spans = [
        {
            "op_id": 0,
            "node": 0,
            "kind": "covered",
            "t_inv": 0.0,
            "t_resp": 1.0,
            "phases": [
                {"name": "collect", "t_start": 0.0, "t_end": 1.0, "depth": 0}
            ],
        },
        {
            "op_id": 1,
            "node": 1,
            "kind": "blind",
            "t_inv": 2.0,
            "t_resp": 3.0,
            "phases": [],
        },
    ]
    cov = Coverage.from_trace({}, [], spans)
    assert cov.phases == {"covered/collect": 1, "blind/(unphased)": 1}

"""The RL009 acceptance inversion: the chaos campaign's quorum-weakened
mutants are *designed* to violate intersection, so the symbolic checker
must flag them — a linter that passes the mutants is not checking
anything.  CI runs the same inversion via the CLI."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.lint import run_lint
from repro.lint.config import DEFAULT_EXCLUDE_PARTS
from repro.lint.engine import collect_files

REPO = pathlib.Path(__file__).resolve().parents[2]
MUTANTS = REPO / "src" / "repro" / "chaos" / "mutants.py"


@pytest.fixture(scope="module")
def mutant_findings():
    """One RL009 run over the mutants, with all of ``src/repro`` parsed
    as context, shared by the tests below."""
    return run_lint(
        [MUTANTS], select=["RL009"], context=[REPO / "src" / "repro"]
    ).findings


def test_quorum_weakened_mutants_fail_rl009(mutant_findings):
    rl009 = [f for f in mutant_findings if f.rule_id == "RL009"]
    # one finding per weakened wait: Delporte write + scan, BFK store,
    # IMPR collect
    assert len(rl009) >= 4, "mutants must not satisfy quorum intersection"
    assert all(f.path == str(MUTANTS) for f in rl009)
    messages = "\n".join(f.message for f in rl009)
    assert "does not guarantee quorum intersection" in messages
    assert "crash (n > 2f)" in messages


def test_mutant_counterexamples_are_concrete(mutant_findings):
    for finding in mutant_findings:
        m = re.search(r"at n=(\d+), f=(\d+)", finding.message)
        assert m is not None
        n, f = int(m.group(1)), int(m.group(2))
        assert n > 2 * f  # inside the declared crash model


def test_mutants_are_excluded_from_the_dogfood_walk():
    # the default walk must skip mutants.py (it fails RL009 by design);
    # only the explicit CI inversion lints it
    assert "chaos/mutants.py" in DEFAULT_EXCLUDE_PARTS
    files = collect_files([REPO / "src"])
    assert MUTANTS not in files

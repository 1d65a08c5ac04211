"""CLI contract: exit codes, --select, text output, and the module entry
point."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from repro.lint.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOOD = str(FIXTURES / "rl001_good.py")
BAD = str(FIXTURES / "rl001_bad.py")


@pytest.fixture(autouse=True)
def _cache_outside_the_tree(tmp_path, monkeypatch):
    # main() caches under the working directory unless --no-cache
    monkeypatch.chdir(tmp_path)


def test_exit_zero_on_clean_tree(capsys):
    assert main([GOOD]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_on_findings(capsys):
    assert main([BAD]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out
    assert "finding(s)" in out
    assert "    hint: " in out


def test_exit_two_on_unknown_rule_id(capsys):
    assert main([BAD, "--select", "RL999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_exit_two_on_missing_path(capsys):
    assert main(["no/such/path_xyz"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case,expected",
    [
        ("not_utf8", 1),
        ("not_utf8_context", 1),
        ("not_python", 2),
        ("dir_named_py", 2),
    ],
)
def test_exit_contract(tmp_path, capsys, case, expected):
    """Undecodable source is a PARSE finding, not a traceback; a path
    that names no Python file is a usage error, not a clean run."""
    latin1 = tmp_path / "latin1.py"
    latin1.write_bytes(b'x = "\xff"\n')
    notes = tmp_path / "notes.md"
    notes.write_text("# not python\n")
    (tmp_path / "pkg.py").mkdir()
    argv = {
        "not_utf8": [str(latin1)],
        "not_utf8_context": [GOOD, "--context", str(latin1)],
        "not_python": [str(notes)],
        "dir_named_py": [str(tmp_path / "pkg.py")],
    }[case]
    assert main([*argv, "--no-cache"]) == expected
    out, err = capsys.readouterr()
    if expected == 1:
        assert f"{latin1}:1:1: PARSE [error] not UTF-8" in out and err == ""
    else:
        assert out == "" and err.startswith("error: ")
        assert len(err.splitlines()) == 1


def test_select_restricts_rules(capsys):
    assert main([BAD, "--select", "RL004"]) == 0  # no RL004 findings there
    assert main([BAD, "--select", "RL001,RL004"]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "RL005" not in out


@pytest.mark.parametrize("target,expected", [("rl001_good.py", 0), (None, 1)])
def test_module_entry_point(tmp_path, target, expected):
    """``python -m repro.lint`` works and propagates exit codes."""
    if target is None:
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        target = str(bad)
    else:
        target = str(FIXTURES / target)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", target, "--no-cache"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == expected, proc.stderr

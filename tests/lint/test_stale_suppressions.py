"""Stale-suppression detection: a ``# lint: ignore[...]`` whose rule produces no finding on the target line is reported as a
``STALE`` warning — separate from findings, opt-in fatal via
``--strict-suppressions``."""

from __future__ import annotations

from repro.lint import run_lint
from repro.lint.cli import main
from repro.lint.findings import STALE_SUPPRESSION_ID


def _lint(tmp_path, source, select=None):
    target = tmp_path / "probe.py"
    target.write_text(source)
    return run_lint([target], select=select)


def test_live_suppression_is_not_stale(tmp_path):
    result = _lint(tmp_path, "import random  # lint: ignore[RL001]\n")
    assert result.findings == []
    assert result.stale_suppressions == []


def test_stale_id_reported_at_the_comment_line(tmp_path):
    result = _lint(tmp_path, "x = 1\ny = 2  # lint: ignore[RL001]\n")
    assert result.findings == []  # stale-ness does not flip ok
    assert result.ok
    (stale,) = result.stale_suppressions
    assert stale.rule_id == STALE_SUPPRESSION_ID
    assert stale.line == 2
    assert "'# lint: ignore[RL001]'" in stale.message
    assert "line 2" in stale.message


def test_partially_stale_comment_reports_only_the_dead_id(tmp_path):
    result = _lint(
        tmp_path, "import random  # lint: ignore[RL001, RL004]\n"
    )
    (stale,) = result.stale_suppressions
    assert "RL004" in stale.message
    assert "RL001" not in stale.message


def test_next_line_form_targets_the_right_line(tmp_path):
    live = _lint(
        tmp_path, "# lint: ignore-next-line[RL001]\nimport random\n"
    )
    assert live.findings == [] and live.stale_suppressions == []
    stale = _lint(tmp_path, "# lint: ignore-next-line[RL001]\nx = 1\n")
    (entry,) = stale.stale_suppressions
    assert entry.line == 1
    assert "line 2" in entry.message


def test_blanket_ignore_is_never_stale(tmp_path):
    # a bare `# lint: ignore` names no rule: it is not a suppression at
    # all, so the finding on its line stands and nothing is stale
    result = _lint(tmp_path, "import random  # lint: ignore\n")
    assert [f.rule_id for f in result.findings] == ["RL001"]
    assert result.stale_suppressions == []


def test_deselected_rule_is_not_decidable(tmp_path):
    # with RL001 not running, its suppression cannot be proven stale
    result = _lint(tmp_path, "x = 1  # lint: ignore[RL001]\n", select=["RL004"])
    assert result.stale_suppressions == []


def test_unknown_rule_id_is_always_stale(tmp_path):
    # "deselected this run" is undecidable; "does not exist" is not: no
    # run can ever produce an RL999 finding for the comment to match
    source = "x = 1  # lint: ignore[RL999]\n"
    for select in (None, ["RL004"]):
        (stale,) = _lint(tmp_path, source, select).stale_suppressions
        assert stale.rule_id == STALE_SUPPRESSION_ID and stale.line == 1
        assert "unknown rule id RL999" in stale.message
    target = tmp_path / "probe.py"
    assert main([str(target), "--no-cache", "--strict-suppressions"]) == 1


def test_strict_suppressions_exit_code(tmp_path, capsys):
    target = tmp_path / "probe.py"
    target.write_text("x = 1  # lint: ignore[RL001]\n")
    assert main([str(target), "--no-cache"]) == 0
    assert "stale suppression" in capsys.readouterr().out
    assert main([str(target), "--no-cache", "--strict-suppressions"]) == 1
    capsys.readouterr()

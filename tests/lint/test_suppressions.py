"""Inline-suppression semantics: same-line and next-line, each naming
its rules — and the sharp edges (a comment naming no rule suppresses
nothing, strings are not comments, suppressions do not leak to other
lines)."""

from __future__ import annotations

import pathlib

from repro.lint import run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.suppressions import extract_suppressions

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _finding(line: int, rule: str = "RL001") -> Finding:
    return Finding(rule, Severity.ERROR, "x.py", line, 1, "msg")


def test_suppressed_fixture_is_clean():
    result = run_lint([FIXTURES / "suppressed.py"])
    assert result.findings == [] and result.stale_suppressions == []


def test_same_line_named_rule():
    sup = extract_suppressions("import random  # lint: ignore[RL001]\n")
    assert sup.is_suppressed(_finding(1))
    assert not sup.is_suppressed(_finding(1, "RL002"))
    assert not sup.is_suppressed(_finding(2))


def test_same_line_multiple_rules():
    sup = extract_suppressions("x = 1  # lint: ignore[RL001, RL004]\n")
    assert sup.is_suppressed(_finding(1, "RL001"))
    assert sup.is_suppressed(_finding(1, "RL004"))
    assert not sup.is_suppressed(_finding(1, "RL003"))


def test_bare_ignore_suppresses_nothing():
    for form in ("ignore", "ignore-next-line", "ignore []"):
        sup = extract_suppressions(f"x = 1  # lint: {form}\ny = 2\n")
        assert not sup.is_suppressed(_finding(1, "RL001"))
        assert not sup.is_suppressed(_finding(2, "RL001"))
        assert sup.entries == []


def test_ignore_next_line_targets_following_line():
    sup = extract_suppressions("# lint: ignore-next-line[RL005]\ndef f():\n")
    assert sup.is_suppressed(_finding(2, "RL005"))
    assert not sup.is_suppressed(_finding(1, "RL005"))


def test_ignore_next_line_is_not_a_bare_ignore():
    # the "ignore" prefix of "ignore-next-line" must not register a
    # suppression on the comment's own line
    sup = extract_suppressions("x = 1  # lint: ignore-next-line[RL005]\n")
    assert not sup.is_suppressed(_finding(1, "RL001"))
    assert sup.is_suppressed(_finding(2, "RL005"))


def test_magic_text_inside_string_is_not_a_suppression():
    sup = extract_suppressions('s = "# lint: ignore[RL001]"\n')
    assert not sup.is_suppressed(_finding(1))


def test_trailing_justification_text_is_allowed():
    sup = extract_suppressions(
        "import random  # lint: ignore[RL001] — seeded, test-only\n"
    )
    assert sup.is_suppressed(_finding(1))

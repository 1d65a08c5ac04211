"""The trace-query CLI (``python -m repro.obs``) end to end."""

import re

import pytest

from repro.obs.__main__ import main


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "eq.jsonl"
    assert main(["demo", "-o", str(path), "--n", "5"]) == 0
    return str(path)


def test_demo_reports_phase_decomposition(demo_trace, capsys):
    # re-run demo to capture its stdout (the fixture ran unobserved)
    assert main(["demo", "-o", demo_trace, "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "spans" in out
    # the demo prints the per-kind mean decomposition
    assert re.search(r"scan: \d+ ops, mean 4\.00D", out)
    assert "readTag=2.00D" in out and "lattice=2.00D" in out


def test_summary(demo_trace, capsys):
    assert main(["summary", demo_trace]) == 0
    out = capsys.readouterr().out
    assert "events by kind:" in out
    assert "deliver" in out and "send" in out
    assert "algorithm=EqAso" in out


def test_ops_lists_every_span(demo_trace, capsys):
    assert main(["ops", demo_trace]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^op \d+", out, re.M)) == 5
    assert "readTag: 2.00D" in out


def test_phases_sum_to_end_to_end(demo_trace, capsys):
    assert main(["phases", demo_trace, "--kind", "scan"]) == 0
    out = capsys.readouterr().out
    e2e = float(re.search(r"end-to-end: ([\d.]+)D", out).group(1))
    total = float(re.search(r"\(sum of phases\)\s+([\d.]+)D", out).group(1))
    assert e2e == pytest.approx(total)
    assert e2e == pytest.approx(4.0)


def test_render_spacetime(demo_trace, capsys):
    assert main(["render", demo_trace, "--include", "value"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"t=\s*[\d.]+\s+\[\d\]--value:.*-->\[\d\]", out)


def test_missing_trace_file_is_a_clean_error(capsys):
    assert main(["summary", "/nonexistent/trace.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trace.jsonl" in err


def test_corrupt_trace_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["summary", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


#: every subcommand that reads a trace file
TRACE_READERS = ("summary", "check", "ops", "phases", "coverage", "render")


@pytest.mark.parametrize("problem", ["missing", "corrupt", "directory", "not-an-object"])
@pytest.mark.parametrize("command", TRACE_READERS)
def test_unusable_trace_exits_two_with_one_error_line(command, problem, tmp_path, capsys):
    """The exit contract: 2 = unusable input, one ``error:`` line on
    stderr, nothing on stdout, no traceback."""
    path = tmp_path / "trace.jsonl"
    if problem == "corrupt":
        path.write_text("not json\n")
    elif problem == "directory":
        path.mkdir()
    elif problem == "not-an-object":
        path.write_text("[1, 2]\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_phases_unknown_kind_reports_no_ops(demo_trace, capsys):
    assert main(["phases", demo_trace, "--kind", "bogus"]) == 1
    captured = capsys.readouterr()
    assert "no completed operations of kind 'bogus'" in captured.err
    assert "nan" not in captured.out


def test_render_max_lines_truncates(demo_trace, capsys):
    assert main(["render", demo_trace, "--max-lines", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # 3 shown + the "... (N more)" marker
    assert out[-1].startswith("... (")


def test_demo_seed_reproducible_with_jitter(tmp_path):
    """--seed flows through sim/rng: same seed => byte-identical trace,
    different seed => different delays (the RL001 discipline end to end)."""
    a, b, c = (str(tmp_path / f"{x}.jsonl") for x in "abc")
    assert main(["demo", "-o", a, "--seed", "7", "--jitter", "0.5"]) == 0
    assert main(["demo", "-o", b, "--seed", "7", "--jitter", "0.5"]) == 0
    assert main(["demo", "-o", c, "--seed", "8", "--jitter", "0.5"]) == 0
    a_text, b_text, c_text = (
        open(p, encoding="utf-8").read() for p in (a, b, c)
    )
    assert a_text == b_text
    assert a_text != c_text


def test_demo_default_stays_lockstep_byte_stable(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["demo", "-o", a]) == 0
    assert main(["demo", "-o", b]) == 0
    assert (
        open(a, encoding="utf-8").read() == open(b, encoding="utf-8").read()
    )


def test_summary_json_matches_contract_and_text(demo_trace, capsys):
    import json

    from repro.bench.schema import check_fields
    from repro.obs.__main__ import SUMMARY_FIELDS

    assert main(["summary", demo_trace, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert check_fields(data, SUMMARY_FIELDS, "summary") == []
    assert data["algorithm"] == "EqAso"
    assert data["spans"] == 5
    # same numbers as the text rendering
    assert main(["summary", demo_trace]) == 0
    text = capsys.readouterr().out
    assert f"trace: {data['events']} events, {data['spans']} spans" in text
    for kind, count in data["by_kind"].items():
        assert f"{kind:12s} {count}" in text


def test_phases_json_matches_contract(demo_trace, capsys):
    import json

    import pytest as _pytest

    from repro.bench.schema import check_fields
    from repro.obs.__main__ import PHASES_FIELDS

    assert main(["phases", demo_trace, "--kind", "scan", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert check_fields(data, PHASES_FIELDS, "phases") == []
    assert data["ops"] == 2
    assert data["end_to_end_D"] == _pytest.approx(4.0)
    assert sum(data["phases_D"].values()) == _pytest.approx(data["end_to_end_D"])


def test_check_passes_on_demo_trace(demo_trace, capsys):
    import json

    assert main(["check", demo_trace]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["check", demo_trace, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True and data["algorithm"] == "EqAso"

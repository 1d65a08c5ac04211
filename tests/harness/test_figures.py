"""The figure regenerators must reproduce every caption fact."""

import pytest

from repro.harness import figures
from repro.harness.figures import build_figure1_history, run_figure1, run_figure2
from repro.harness.adversary import ExperimentCheckError
from repro.spec import is_linearizable


def test_figure1_history_is_linearizable():
    history, _ = build_figure1_history()
    assert is_linearizable(history)


def test_figure1_all_checks_pass():
    result = run_figure1()
    assert len(result.checks) == 6
    assert result.swap_is_valid_sequentialization
    assert not result.swap_is_valid_linearization
    # the witness orders contain all six operations
    assert len(result.linearization) == 6
    assert len(result.sequentialization) == 6


def test_figure1_linearization_respects_real_time():
    result = run_figure1()
    lin = result.linearization
    assert lin.index("op1") < lin.index("op2")


def test_figure2_caption_facts():
    result = run_figure2()
    assert result.op1_snapshot == (None, None, None)
    assert set(result.op4_snapshot) - {None} == {"u", "v"}
    assert set(result.op6_snapshot) == {"u", "v", "w"}
    assert result.op6_had_to_wait
    assert len(result.checks) == 5


@pytest.mark.parametrize(
    ("run", "claim"),
    [
        (run_figure1, "base(op4) = {UPDATE(1), UPDATE(2), UPDATE(3)}"),
        (run_figure2, "op1 returns immediately with the empty base"),
    ],
)
def test_a_failed_caption_fact_raises_naming_it(monkeypatch, run, claim):
    """The checks are raises, not ``assert``s, so they survive
    ``python -O``; the error names the first fact that failed."""
    monkeypatch.setattr(figures, "scan_base", lambda record: frozenset({(9, 9)}))
    with pytest.raises(ExperimentCheckError) as err:
        run()
    assert str(err.value).startswith(f"check failed: {claim}")

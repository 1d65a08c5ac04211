"""Harness CLI: exit codes and registry-error mapping (no tracebacks)."""

from __future__ import annotations

import hashlib

import repro.harness.registry as registry
from repro.harness.__main__ import main
from repro.harness.registry import EXPERIMENTS, Experiment

#: sha256 of the ``python -m repro.harness`` stdout of every experiment
#: but ``table1`` and ``ablations`` (the two slow ones; CI pins the full
#: run).  A change meant to move a number re-pins here and says why.
FAST_STDOUT_SHA256 = "a1d4a302eda186efbe29bde472f737e1455f6fe5a4ce906a7704ffc3b6662f63"


def _row(run) -> Experiment:
    """A registry row whose measurement is ``run``."""
    return Experiment("a failing experiment", run, list)


def test_unknown_experiment_exits_two_with_choices(capsys):
    assert main(["nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'nope'" in err
    assert "table1" in err  # the choices list


def test_small_experiment_runs_clean(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out


def test_registry_keyerror_maps_to_one_line_message(monkeypatch, capsys):
    """Regression: a KeyError escaping an experiment body (e.g. an
    unknown algorithm profile) used to traceback; it must surface as the
    registry's one-line choices message, unquoted, exit 2."""

    def boom():
        from repro.chaos.algos import get_profile

        get_profile("no-such-algo")

    monkeypatch.setitem(registry.EXPERIMENTS, "boom", _row(boom))
    assert main(["boom"]) == 2
    err = capsys.readouterr().err
    assert "experiment 'boom' failed: unknown algorithm 'no-such-algo'" in err
    assert "choose from" in err
    assert "Traceback" not in err


def test_every_failure_is_one_error_line(monkeypatch, capsys):
    """Unknown experiments and failed registry lookups carry the same
    ``error:`` prefix as the other CLIs."""

    def boom():
        from repro.chaos.algos import get_profile

        get_profile("no-such-algo")

    monkeypatch.setitem(registry.EXPERIMENTS, "boom", _row(boom))
    for argv in (["nope"], ["boom"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_a_failed_caption_fact_exits_one(monkeypatch, capsys):
    def boom():
        from repro.harness.figures import _check

        _check([], False, "op1 returns immediately", "late")

    monkeypatch.setitem(registry.EXPERIMENTS, "boom", _row(boom))
    assert main(["boom"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: experiment 'boom' failed: check failed: "
        "op1 returns immediately (got 'late')\n"
    )


def test_a_failing_plan_exits_one_naming_the_condition(monkeypatch, capsys):
    """A lockstep plan whose history fails the order check is a checked
    fact too: one ``error:`` line that names the violated condition."""

    def boom():
        from repro.chaos.algos import get_profile
        from repro.chaos.campaign import campaign_seed
        from repro.chaos.gen import generate_plan
        from repro.harness.adversary import run_checked

        algo = "mut-delporte-weak-write"
        run_checked(generate_plan(get_profile(algo), campaign_seed(0, algo, 26)))

    monkeypatch.setitem(registry.EXPERIMENTS, "boom", _row(boom))
    assert main(["boom"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment 'boom' failed: mut-delporte-weak-write")
    assert "[atomicity] history is not linearizable" in err
    assert "; [A2] update " in err
    assert err.count("\n") == 1


def test_stdout_of_the_fast_experiments_is_pinned(capsys):
    names = [name for name in EXPERIMENTS if name not in ("table1", "ablations")]
    assert len(names) == 11
    assert main(names) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAST_STDOUT_SHA256

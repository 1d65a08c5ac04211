"""CLI: exit codes, seed-range parsing, smoke preset, plan replay."""

from __future__ import annotations

import json

import pytest

from repro.chaos.__main__ import SMOKE_SEEDS, _parse_seed_range, main
from repro.chaos.algos import CAMPAIGN_ALGOS


def test_parse_seed_range_forms():
    assert _parse_seed_range("25") == (0, 25)
    assert _parse_seed_range("3:7") == (3, 7)
    for bad in ("0", "5:5", "7:3", "-1:2"):
        with pytest.raises(ValueError):
            _parse_seed_range(bad)


def test_clean_sweep_exits_zero(capsys):
    assert main(["--algo", "eq_aso,scd", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "eq_aso" in out and "scd" in out
    assert "0 failure(s)" in out


def test_smoke_covers_all_healthy_algorithms(tmp_path, capsys):
    assert main(["--smoke", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in CAMPAIGN_ALGOS:
        assert name in out
    with (tmp_path / "report.json").open() as fh:
        report = json.load(fh)
    assert report["smoke"] is True
    assert report["total_failures"] == 0
    assert {a["algo"] for a in report["algos"]} == set(CAMPAIGN_ALGOS)
    assert all(len(a["seeds"]) == SMOKE_SEEDS for a in report["algos"])


def test_parse_algos_all_tracks_the_live_registry():
    """``--algo all`` resolves at call time: the new contenders are in,
    mutants stay out, and profiles registered later are picked up."""
    from repro.baselines import BfkAso
    from repro.chaos.__main__ import _parse_algos
    from repro.chaos.algos import (
        LINEARIZABLE,
        AlgoProfile,
        register_profile,
        unregister_profile,
    )

    names = _parse_algos("all")
    assert "bfk" in names and "impr" in names
    assert not any(n.startswith("mut-") for n in names)
    profile = AlgoProfile("dummy-contender", BfkAso, LINEARIZABLE, n=5, f=2)
    register_profile(profile)
    try:
        assert "dummy-contender" in _parse_algos("all")
        with pytest.raises(ValueError):
            register_profile(profile)  # duplicate names are refused
    finally:
        unregister_profile("dummy-contender")
    assert "dummy-contender" not in _parse_algos("all")


def test_mutant_sweep_exits_one_and_exports(tmp_path, capsys):
    code = main(
        [
            "--algo",
            "mut-delporte-weak-write",
            "--seeds",
            "26:27",
            "--budget",
            "60",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out
    bundles = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(bundles) == 1
    for artifact in ("plan.json", "history.json", "trace.jsonl", "repro.txt"):
        assert (bundles[0] / artifact).exists()


def test_plan_replay_round_trip(tmp_path, capsys):
    assert (
        main(
            [
                "--algo",
                "mut-delporte-weak-write",
                "--seeds",
                "26:27",
                "--budget",
                "60",
                "--out",
                str(tmp_path),
            ]
        )
        == 1
    )
    capsys.readouterr()
    (bundle,) = (p for p in tmp_path.iterdir() if p.is_dir())
    assert main(["--plan", str(bundle / "plan.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL [atomicity]" in out


def test_usage_errors_exit_two():
    for argv in (
        ["--algo", "nonsense"],
        ["--seeds", "7:3"],
        ["--plan", "/nonexistent/plan.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


_PLAN = {
    "algo": "eq_aso",
    "n": 5,
    "f": 2,
    "seed": 0,
    "workload": [{"node": 1, "ops": [["scan", None]]}],
}


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({**_PLAN, "delay": 3}, id="delay-not-an-object"),
        pytest.param([_PLAN], id="top-level-list"),
        pytest.param(
            {**_PLAN, "workload": [{"node": 5, "ops": [["scan", None]]}]},
            id="workload-node-out-of-range",
        ),
        pytest.param(
            {**_PLAN, "workload": [{"node": 1, "ops": [["write", "v"]]}]},
            id="unknown-op-kind",
        ),
        pytest.param({**_PLAN, "delay": {"kind": "bursty"}}, id="unknown-delay-kind"),
    ],
)
def test_unusable_plan_exits_two_with_one_error_line(tmp_path, capsys, doc):
    """Exit 1 is reserved for a finding: a plan that cannot run is
    unusable input, rejected at load time."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["--plan", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1

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


def test_campaign_algos_are_the_eight_healthy_keys():
    """``--algo all`` and ``--smoke`` sweep exactly these; mutants and
    ablations stay out (without phase 0 a run can deadlock)."""
    from repro.chaos.__main__ import _parse_algos

    healthy = [
        "bfk", "delporte", "eq_aso", "impr", "la_based", "scd", "sso_fast_scan", "store_collect"
    ]
    assert sorted(CAMPAIGN_ALGOS) == healthy
    assert _parse_algos("all") == healthy


def test_ablations_resolve_by_name_only():
    from repro.chaos.algos import get_profile
    from repro.chaos.mutants import ABLATIONS, EqAsoNoPhase0

    assert get_profile("no-phase0").factory is EqAsoNoPhase0
    assert get_profile("no-phase0").mutant_of == "eq_aso"
    assert set(ABLATIONS) == {"no-tag-recheck", "no-borrowing", "no-phase0"}
    assert set(ABLATIONS).isdisjoint(CAMPAIGN_ALGOS)


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
        pytest.param(
            {**_PLAN, "n": 3, "f": 1, "crashes": [{"type": "timed", "node": 9, "time": 1.0}]},
            id="timed-crash-node-out-of-range",
        ),
        pytest.param({**_PLAN, "n": 3, "f": 1, "crashes": [5]}, id="crash-spec-not-an-object"),
        pytest.param(
            {**_PLAN, "n": 3, "f": 1, "crashes": [{"type": "chain", "chain": [1, 5]}]},
            id="chain-hop-out-of-range",
        ),
        pytest.param(
            {
                **_PLAN,
                "algo": "byz_aso",
                "n": 4,
                "f": 1,
                "byzantine": [{"node": 7, "behaviour": "silent"}],
            },
            id="byzantine-node-out-of-range",
        ),
        pytest.param(
            {**_PLAN, "crashes": [{"type": "bcast", "node": 1, "deliver_to": [2, 5], "nth": 1}]},
            id="deliver-to-node-out-of-range",
        ),
        pytest.param({**_PLAN, "byzantine": ["silent"]}, id="byzantine-spec-not-an-object"),
        pytest.param({**_PLAN, "workload": [3]}, id="workload-entry-not-an-object"),
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

"""CLI: exit codes, seed-range parsing, smoke preset, plan replay."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex

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


MUTANT_ARGV = ["--algo", "mut-delporte-weak-write", "--seeds", "26:27", "--budget", "60"]


def _main_in(tmp_path_factory, name: str, argv: list[str]):
    """Run the CLI once per module: (exit code, stdout, --out directory)."""
    out = tmp_path_factory.mktemp(name)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([*argv, "--out", str(out)])
    return code, stdout.getvalue(), out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _main_in(tmp_path_factory, "smoke", ["--smoke"])


@pytest.fixture(scope="module")
def mutant(tmp_path_factory):
    return _main_in(tmp_path_factory, "mutant", MUTANT_ARGV)


def test_smoke_covers_all_healthy_algorithms(smoke):
    code, out, tmp_path = smoke
    assert code == 0
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
    assert set(ABLATIONS) == {"no-tag-recheck", "no-borrowing", "no-phase0"}
    assert set(ABLATIONS).isdisjoint(CAMPAIGN_ALGOS)


def test_mutant_sweep_exits_one_and_exports(mutant):
    code, out, tmp_path = mutant
    assert code == 1
    assert "FAILURE" in out
    bundles = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(bundles) == 1
    for artifact in ("plan.json", "history.json", "trace.jsonl", "repro.txt"):
        assert (bundles[0] / artifact).exists()


def test_plan_replay_round_trip(mutant, capsys):
    (bundle,) = (p for p in mutant[2].iterdir() if p.is_dir())
    assert main(["--plan", str(bundle / "plan.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL [atomicity]" in out


def test_repro_txt_plan_line_replays(mutant):
    """The bundle's ``--plan`` line is a command the CLI accepts as is."""
    (bundle,) = (p for p in mutant[2].iterdir() if p.is_dir())
    lines = (bundle / "repro.txt").read_text().splitlines()
    (line,) = [x for x in lines if "--plan" in x]
    argv = shlex.split(line)
    assert argv[:3] == ["python", "-m", "repro.chaos"]
    assert argv[3:] == ["--plan", str(bundle / "plan.json")]
    assert main(argv[3:]) == 1


#: sha256 of the ``--smoke`` report and of the path-free files of the
#: ``MUTANT_ARGV`` bundle.  Every campaign output, CI's serial/parallel
#: diff and the ledger's ``chaos_sweep_all`` fingerprint rest on these
#: bytes: a change that moves one must say why and re-pin it.
PINNED = {
    "report.json": "4854963dc80af372f4f5f75bf07c6ae7591a8519cddeaed25bcecdb231608925",
    "plan.json": "3155a6705c7bb0c7af78d79059bcdfbc22b4f13aa1301fcec4db3ea32197a0e7",
    "history.json": "2f0397c2cac3b36bdc8ad10dc06446ca6e2bd48d111c261badb5ea9ce97e2f5f",
    "trace.jsonl": "bd433c58f581ab21928e490ba4c5374f8bbc36bcda81ed8f976e37410ca53165",
}


def test_outputs_match_the_pinned_digests(smoke, mutant):
    (bundle,) = (p for p in mutant[2].iterdir() if p.is_dir())
    files = {"report.json": smoke[2] / "report.json"}
    files |= {name: bundle / name for name in ("plan.json", "history.json", "trace.jsonl")}
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert digests == PINNED
    # the mutant's report.json records the one failure and its bundle
    report = json.loads((mutant[2] / "report.json").read_text())
    assert report["total_failures"] == 1
    (entry,) = report["algos"]
    assert entry["failures"][0]["export"]["dir"] == str(bundle)


def test_printed_repro_line_reproduces(capsys):
    """Without ``--out`` the summary's repro line is the way back to a
    failure, so it must carry the master seed: index 21 fails at master
    seed 7 and passes at master seed 0."""
    argv = ["--algo", "mut-delporte-weak-scan", "--master-seed", "7", "--seeds", "21:22"]
    assert main([*argv, "--budget", "30"]) == 1
    prefix = "repro: python -m repro.chaos "
    (line,) = [x for x in capsys.readouterr().out.splitlines() if prefix in x]
    repro = shlex.split(line.split(prefix, 1)[1])
    assert repro == argv
    assert main(repro) == 1


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
        pytest.param({**_PLAN, "workload": [{"node": 1, "ops": 5}]}, id="ops-not-an-array"),
        pytest.param({**_PLAN, "n": None}, id="n-null"),
        pytest.param(
            {**_PLAN, "crashes": [{"type": "timed", "node": 1, "time": "x"}]},
            id="timed-crash-time-not-a-number",
        ),
        pytest.param(
            {**_PLAN, "crashes": [{"type": "bcast", "node": 1, "deliver_to": [2], "nth": "a"}]},
            id="bcast-nth-not-an-integer",
        ),
        pytest.param({**_PLAN, "crashes": [{"type": "chain", "chain": []}]}, id="empty-chain"),
        pytest.param(
            {**_PLAN, "workload": [{"node": 1, "ops": [["scan", None]], "start": -3}]},
            id="negative-start",
        ),
        pytest.param({**_PLAN, "seed": None}, id="seed-null"),
        pytest.param(
            {**_PLAN, "crashes": [{"type": "bcast", "node": 1, "deliver_to": 2, "nth": 1}]},
            id="deliver-to-not-an-array",
        ),
        pytest.param({**_PLAN, "workload": [{"node": 1, "ops": [["update", None]]}]}, id="update-null"),
        pytest.param({**_PLAN, "workload": [{"node": 1, "ops": [["update", [1]]]}]}, id="update-list"),
        pytest.param({**_PLAN, "workload": [{"node": 1, "ops": [["scan", "v"]]}]}, id="scan-with-value"),
        pytest.param(
            {**_PLAN, "byzantine": [{"node": 0, "behaviour": "equivocator"}]},
            id="byzantine-node-on-crash-model-algo",
        ),
        pytest.param(
            {**_PLAN, "algo": "byz_aso", "n": 4, "f": 1, "byzantine": [{"node": 1, "behaviour": "silent"}]},
            id="ops-at-byzantine-node",
        ),
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


@pytest.mark.parametrize(
    "option",
    [
        ["--algo", "eq_aso"],
        ["--seeds", "3"],
        ["--master-seed", "9"],
        ["--budget", "1"],
        ["--smoke"],
        ["--workers", "2"],
    ],
    ids=lambda option: option[0],
)
def test_plan_refuses_every_sweep_option(option, tmp_path, capsys):
    """A replay reads only the plan: a sweep option given with it is a
    usage error (exit 2, one ``error:`` line), not silently ignored."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_PLAN))
    with pytest.raises(SystemExit) as exc:
        main(["--plan", str(plan), *option])
    assert exc.value.code == 2
    (error,) = [x for x in capsys.readouterr().err.splitlines() if "error:" in x]
    assert error.endswith(f"error: {option[0]} does not apply to --plan (a single replay)")

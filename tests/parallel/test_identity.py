"""Parallel sweeps must be byte-identical to serial runs.

The executor's whole contract (see :mod:`repro.parallel.executor`) is
that ``--workers N`` changes wall-clock only: chaos reports, exported
counterexample bundles and bench fingerprints come out bit-for-bit the
same for any worker count.  These tests assert that literally, and that
a crashing worker surfaces the failing sweep unit instead of a partial
report.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_bench
from repro.chaos.campaign import run_campaign


def test_chaos_report_byte_identical_serial_vs_parallel(tmp_path):
    kwargs = dict(seed_range=(0, 3), master_seed=0, budget=20)
    serial_out = tmp_path / "serial"
    parallel_out = tmp_path / "parallel"
    run_campaign(["eq_aso"], out=serial_out, workers=1, **kwargs)
    run_campaign(["eq_aso"], out=parallel_out, workers=2, **kwargs)
    serial_report = (serial_out / "report.json").read_bytes()
    parallel_report = (parallel_out / "report.json").read_bytes()
    assert serial_report == parallel_report
    # no stray per-worker artifacts: the directory trees match too
    assert sorted(p.name for p in serial_out.iterdir()) == sorted(
        p.name for p in parallel_out.iterdir()
    )


def test_bench_fingerprints_identical_for_any_worker_count():
    serial = run_bench(["views"], smoke=True, repeats=1, warmup=0, workers=1)
    parallel = run_bench(["views"], smoke=True, repeats=1, warmup=0, workers=4)
    # the workers key is the only allowed difference, and only on the
    # parallel report (serial reports stay byte-compatible with old ones)
    assert "workers" not in serial
    assert parallel["workers"] == 4
    for s_case, p_case in zip(serial["cases"], parallel["cases"]):
        assert s_case["fingerprint_sha256"] == p_case["fingerprint_sha256"]
        for key in (
            "events",
            "messages",
            "eq_evals",
            "eq_rows_scanned",
            "eq_rows_saved",
            "eq_batched_scans",
            "values_interned",
            "messages_packed",
        ):
            assert s_case["measurement"][key] == p_case["measurement"][key], (
                f"{s_case['name']}.{key} drifted under --workers"
            )


def test_crashing_worker_surfaces_failing_seed_and_exits_2(
    tmp_path, monkeypatch, capsys
):
    """A worker crash must name the failing (algo, index, seed) unit and
    exit 2 — not write a partial report."""
    from repro.chaos.__main__ import main as chaos_main
    import repro.chaos.campaign as campaign_mod

    real_run_plan = campaign_mod.run_plan
    target_seed = campaign_mod.campaign_seed(0, "eq_aso", 2)

    def exploding_run_plan(plan):
        if plan.seed == target_seed:
            raise RuntimeError("injected worker failure")
        return real_run_plan(plan)

    # the worker function itself is pickled by qualified name, but this
    # patched collaborator is plain module state — fork workers inherit
    # it from the parent
    monkeypatch.setattr(campaign_mod, "run_plan", exploding_run_plan)
    out = tmp_path / "out"
    code = chaos_main(
        [
            "--algo",
            "eq_aso",
            "--seeds",
            "0:4",
            "--workers",
            "2",
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "worker crashed on algo eq_aso index 2 seed " in captured.err
    assert "injected worker failure" in captured.err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("module", ["repro.chaos.__main__", "repro.bench.__main__"])
def test_cli_rejects_nonpositive_workers(module):
    import importlib

    main = importlib.import_module(module).main
    with pytest.raises(SystemExit) as excinfo:
        main(["--workers", "0"])
    assert excinfo.value.code == 2

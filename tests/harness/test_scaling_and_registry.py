"""Smoke + shape tests for the scaling experiments and the registry."""

import pytest

from repro.core import EqAso
from repro.harness.registry import EXPERIMENTS, run_experiment
from repro.harness.scaling import (
    amortized_curve,
    failure_free,
    interference_scan,
    la_comparison,
    scale_k,
)


def test_scale_k_eq_aso_sublinear():
    curves = scale_k(ks=(1, 6, 21), algorithms={"EQ-ASO": "eq_aso"})
    [curve] = curves
    assert curve.ys[0] < curve.ys[-1]  # grows with k...
    # ...sublinearly, but not flat: near the staircase's 0.5
    assert curve.exponent is not None and 0.2 <= curve.exponent < 0.75


def test_amortized_curve_decreases():
    curve = amortized_curve(k=6, op_counts=(1, 8, 24))
    assert curve.ys[-1] < curve.ys[0] / 3  # the one staircase is averaged out
    assert curve.ys[-1] < 1.0  # approaches O(D) with fast links


def test_failure_free_constants():
    out = failure_free(ns=(4, 10))
    for kind in ("update", "scan"):
        for curve in out[kind]:
            if "LA-based" in curve.label:
                continue  # the O(log n) row legitimately grows
            assert curve.ys[0] == pytest.approx(curve.ys[-1]), curve.label


def test_failure_free_sso_scan_is_zero():
    out = failure_free(ns=(4,))
    sso = [c for c in out["scan"] if c.label == "SSO-Fast-Scan"][0]
    assert sso.ys == [0.0]


def test_interference_delporte_grows_eq_flat():
    from repro.baselines import DelporteAso

    curves = interference_scan(
        ns=(5, 13),
        algorithms={"Delporte [19]": DelporteAso, "EQ-ASO": EqAso},
        updates_per_writer=2,
    )
    by_label = {c.label: c for c in curves}
    delporte = by_label["Delporte [19] victim scan"]
    eq = by_label["EQ-ASO victim scan"]
    assert delporte.ys[-1] > delporte.ys[0]  # grows with n
    assert eq.ys[-1] <= eq.ys[0] + 2.0  # essentially flat


def test_la_comparison_shapes():
    curves = la_comparison(ks=(0, 3, 10))
    es = next(c for c in curves if "early-stopping" in c.label)
    cl = next(c for c in curves if "classifier" in c.label)
    # early-stopping: constant at k=0 (cheaper than the classifier's
    # log n rounds), grows with k
    assert es.ys[0] < 1.0 and es.ys[0] < cl.ys[0]
    assert es.ys[1] < es.ys[2]
    # classifier: roughly flat in k
    assert abs(cl.ys[2] - cl.ys[1]) < 1.0


def test_registry_contains_all_experiments():
    assert set(EXPERIMENTS) == {
        "table1",
        "fig1",
        "fig2",
        "scale_k",
        "amortized",
        "failure_free",
        "interference",
        "byzantine",
        "ablations",
        "la",
        "messages",
        "trace",
        "contenders",
    }


def test_registry_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("nope")


def test_registry_runs_fig_experiments():
    res = run_experiment("fig2")
    assert res.name == "fig2"
    assert any("op6" in line for line in res.lines)
    assert str(res).startswith("== fig2")


def test_master_seed_threads_to_seeded_experiments_only():
    """The shared --seed derives per-experiment child seeds via sim/rng;
    unseeded experiments must accept (and ignore) master_seed."""
    from repro.harness.registry import SEEDED_EXPERIMENTS

    assert "interference" in SEEDED_EXPERIMENTS
    res_a = run_experiment(
        "interference", master_seed=1, ns=(5,), updates_per_writer=1
    )
    res_b = run_experiment(
        "interference", master_seed=1, ns=(5,), updates_per_writer=1
    )
    res_c = run_experiment(
        "interference", master_seed=2, ns=(5,), updates_per_writer=1
    )
    def ys(r):
        return [c.ys for c in r.payload]
    assert ys(res_a) == ys(res_b)
    assert ys(res_a) != ys(res_c)
    # deterministic experiments ignore the master seed entirely
    fig = run_experiment("fig2", master_seed=123)
    assert fig.name == "fig2"

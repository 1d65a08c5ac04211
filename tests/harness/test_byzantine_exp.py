"""Byzantine experiment harness tests."""

from repro.chaos.algos import BYZ_BEHAVIOURS
from repro.harness.byzantine import byz_safety_matrix, byz_scaling


def test_safety_matrix_all_behaviours_safe():
    results = byz_safety_matrix(num_byzantine=1, n=4)
    assert set(results) == set(BYZ_BEHAVIOURS)
    assert all(results.values())


def test_byz_scaling_monotone_and_safe():
    points = byz_scaling(byz_counts=(0, 2), ops_per_honest=1)
    assert all(p.linearizable for p in points)
    # more Byzantine nodes never make honest ops faster
    assert points[1].update_mean_D >= points[0].update_mean_D - 1e-9

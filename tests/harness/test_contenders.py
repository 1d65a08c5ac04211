"""CONTENDERS: the head-to-head race keeps its shape at reduced size."""

from repro.harness.contenders import contender_latency


def test_pull_based_scans_climb_with_writers_eq_aso_stays_flat():
    rows = {
        row.algorithm: row
        for row in contender_latency(c_values=(1, 4), k=3, envelope_ns=(3, 5))
    }
    eq = rows.pop("EQ-ASO [this paper]")
    assert eq.scan_vs_c[4] == eq.scan_vs_c[1]  # push-based quorums ignore writers
    assert len(rows) == 3
    for name, row in rows.items():
        # one more confirmation/double-collect round per landing write
        assert row.scan_vs_c[4] > row.scan_vs_c[1], name
        # one round trip against EQ-ASO's readTag + phase0 + lattice
        assert row.update_free < eq.update_free, name
        # the pull-based rows do not wait on the staircase's exposed values
        assert row.scan_staircase < eq.scan_staircase, name
    assert {3: 1, 5: 2} == eq.max_f
    assert all(row.max_f == eq.max_f for row in rows.values())

"""Message-complexity experiment tests."""

from repro.harness.messages import format_message_costs, message_costs


def test_eq_aso_update_quadratic_delporte_linear():
    rows = message_costs(
        ns=(4, 10), algorithms={"EQ-ASO": "eq_aso", "Delporte": "delporte"}
    )
    by = {(r.algorithm, r.n): r for r in rows}
    # Delporte update: Θ(n) — scales ~2.5x when n does
    assert by[("Delporte", 10)].update_messages <= 3 * by[("Delporte", 4)].update_messages
    # EQ-ASO update: Θ(n²) — scales ~6.25x
    ratio = by[("EQ-ASO", 10)].update_messages / by[("EQ-ASO", 4)].update_messages
    assert ratio > 3.5
    # the trade the paper's design makes: time optimality costs more
    # update messages (proactive forwarding)
    assert by[("EQ-ASO", 10)].update_messages > by[("Delporte", 10)].update_messages


def test_sso_scan_costs_zero_messages():
    rows = message_costs(ns=(4, 7), algorithms={"SSO": "sso_fast_scan"})
    assert all(r.scan_messages == 0 for r in rows)


def test_format():
    rows = message_costs(ns=(4,), algorithms={"EQ-ASO": "eq_aso"})
    lines = format_message_costs(rows)
    assert len(lines) == 2 and "EQ-ASO" in lines[1]

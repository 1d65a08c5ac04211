"""Schema validation tests for the repro.bench report format."""

import copy

from repro.bench.schema import GATED_COUNTERS, SCHEMA_VERSION, validate_report


def _valid_report():
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "full",
        "cases": {
            "table1": {
                "fingerprint_sha256": "0" * 64,
                **{key: i + 1 for i, key in enumerate(GATED_COUNTERS)},
            }
        },
    }


def test_valid_report_passes():
    assert validate_report(_valid_report()) == []


def test_missing_top_level_key():
    report = _valid_report()
    del report["cases"]
    assert any("cases" in p for p in validate_report(report))


def test_wrong_schema_version():
    report = _valid_report()
    report["schema_version"] = SCHEMA_VERSION + 1
    assert any("schema_version" in p for p in validate_report(report))


def test_bad_mode():
    report = _valid_report()
    report["mode"] = "hyperspeed"
    assert any("mode" in p for p in validate_report(report))


def test_empty_cases_rejected():
    report = _valid_report()
    report["cases"] = {}
    assert any("empty" in p for p in validate_report(report))


def test_missing_measurement_field():
    """Every gated counter is a required key of a case entry."""
    report = _valid_report()
    del report["cases"]["table1"]["eq_rows_saved"]
    assert any("eq_rows_saved" in p for p in validate_report(report))


def test_old_report_shape_rejected_with_one_line():
    """A v2 report (a list of cases, each with a 13-field ``measurement``)
    is another shape entirely: one line saying so, not a field-by-field
    list."""
    report = {
        "schema_version": 2,
        "generated_by": "repro.bench",
        "mode": "smoke",
        "repeats": 1,
        "warmup": 0,
        "cases": [{"name": "table1", "lockstep": True, "measurement": {}}],
    }
    problems = validate_report(report)
    assert len(problems) == 1
    assert "schema_version" in problems[0] and "regenerate" in problems[0]


def test_bool_is_not_an_int():
    report = _valid_report()
    report["cases"]["table1"]["events"] = True
    assert any("events" in p for p in validate_report(report))


def test_bad_fingerprint_length():
    report = _valid_report()
    report["cases"]["table1"]["fingerprint_sha256"] = "abc"
    assert any("fingerprint" in p for p in validate_report(report))


def test_non_dict_report():
    assert validate_report([]) != []
    assert validate_report(None) != []


def test_mutation_independence():
    """Validation must not mutate the report object."""
    report = _valid_report()
    snapshot = copy.deepcopy(report)
    validate_report(report)
    assert report == snapshot

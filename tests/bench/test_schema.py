"""Schema validation tests for the repro.bench report format."""

import copy

from repro.bench.schema import SCHEMA_VERSION, validate_report


def _measurement():
    return {
        "wall_s_min": 0.1,
        "wall_s_all": [0.1, 0.11],
        "events": 1000,
        "messages": 2000,
        "events_per_s": 10000,
        "messages_per_s": 20000,
        "peak_rss_kb": 50000,
        "eq_evals": 10,
        "eq_rows_scanned": 20,
        "eq_rows_saved": 30,
        "eq_batched_scans": 1,
        "values_interned": 5,
        "messages_packed": 7,
    }


def _valid_report():
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.bench",
        "mode": "full",
        "repeats": 3,
        "warmup": 1,
        "cases": [
            {
                "name": "table1",
                "description": "lockstep columns",
                "lockstep": True,
                "measurement": _measurement(),
                "fingerprint_sha256": "0" * 64,
            }
        ],
    }


def test_valid_report_passes():
    assert validate_report(_valid_report()) == []


def test_missing_top_level_key():
    report = _valid_report()
    del report["repeats"]
    assert any("repeats" in p for p in validate_report(report))


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
    report["cases"] = []
    assert any("empty" in p for p in validate_report(report))


def test_missing_measurement_field():
    report = _valid_report()
    del report["cases"][0]["measurement"]["events_per_s"]
    assert any("events_per_s" in p for p in validate_report(report))


def test_old_report_shape_rejected_with_one_line():
    """A v1 report (fast/slow pair per case) is another shape entirely:
    one line saying so, not a field-by-field list."""
    report = _valid_report()
    report["schema_version"] = 1
    case = report["cases"][0]
    case["fast"] = case["slow"] = case.pop("measurement")
    case["speedup"], case["metrics_identical"] = 2.1, True
    problems = validate_report(report)
    assert len(problems) == 1
    assert "schema_version" in problems[0] and "regenerate" in problems[0]


def test_bool_is_not_an_int():
    report = _valid_report()
    report["cases"][0]["measurement"]["events"] = True
    assert any("events" in p for p in validate_report(report))


def test_bad_fingerprint_length():
    report = _valid_report()
    report["cases"][0]["fingerprint_sha256"] = "abc"
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

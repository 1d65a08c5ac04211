"""Whole-project result cache: hit/miss mechanics, invalidation on any
content or rule-selection change, corruption tolerance, and the CLI
wiring."""

from __future__ import annotations

import json

from repro.lint import ALL_RULES, run_lint
from repro.lint.cache import (
    load_cached_result,
    project_fingerprint,
    store_result,
)
from repro.lint.cli import main


def _project(tmp_path):
    """A two-file mini-project with one deliberate RL001 finding."""
    good = tmp_path / "clean.py"
    good.write_text("x = 1\n")
    bad = tmp_path / "dirty.py"
    bad.write_text("import random\n")
    return [good, bad]


def test_cold_run_stores_warm_run_replays(tmp_path):
    files = _project(tmp_path)
    cache = tmp_path / "cache"
    cold = run_lint(files, cache_dir=cache)
    assert not cold.cache_hit
    assert [f.rule_id for f in cold.findings] == ["RL001"]
    assert list(cache.glob("cache-*.json"))

    warm = run_lint(files, cache_dir=cache)
    assert warm.cache_hit
    assert warm.findings == cold.findings
    assert warm.stale_suppressions == cold.stale_suppressions
    assert warm.files_checked == cold.files_checked


def test_editing_any_file_invalidates(tmp_path):
    files = _project(tmp_path)
    cache = tmp_path / "cache"
    run_lint(files, cache_dir=cache)
    # fixing the finding must not replay the stale result
    files[1].write_text("import hashlib\n")
    fixed = run_lint(files, cache_dir=cache)
    assert not fixed.cache_hit
    assert fixed.findings == []


def test_config_change_invalidates(tmp_path):
    files = _project(tmp_path)
    cache = tmp_path / "cache"
    run_lint(files, cache_dir=cache)
    narrowed = run_lint(files, select=["RL004"], cache_dir=cache)
    assert not narrowed.cache_hit
    assert narrowed.findings == []


def test_context_files_are_part_of_the_fingerprint(tmp_path):
    files = _project(tmp_path)
    ctx = tmp_path / "context.py"
    ctx.write_text("class Helper:\n    pass\n")
    before = project_fingerprint(ALL_RULES, files, [ctx])
    ctx.write_text("class Helper:\n    renamed = True\n")
    assert project_fingerprint(ALL_RULES, files, [ctx]) != before
    # unreadable input -> no fingerprint -> caching disabled for the run
    assert project_fingerprint(ALL_RULES, [tmp_path / "gone.py"]) is None


def test_config_key_is_order_independent(tmp_path):
    files = _project(tmp_path)
    cache = tmp_path / "cache"
    run_lint(files, select=["RL001", "RL004", "RL009"], cache_dir=cache)
    same = run_lint(files, select=["RL009", "RL001", "RL004"], cache_dir=cache)
    assert same.cache_hit
    assert not run_lint(files, cache_dir=cache).cache_hit


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    files = _project(tmp_path)
    cache = tmp_path / "cache"
    run_lint(files, cache_dir=cache)
    for entry in cache.glob("cache-*.json"):
        entry.write_text("{not json")
    rerun = run_lint(files, cache_dir=cache)
    assert not rerun.cache_hit
    assert [f.rule_id for f in rerun.findings] == ["RL001"]


def test_tampered_payload_is_rejected(tmp_path):
    files = _project(tmp_path)
    cache = tmp_path / "cache"
    run_lint(files, cache_dir=cache)
    (entry,) = cache.glob("cache-*.json")
    payload = json.loads(entry.read_text())
    payload["findings"] = [{"rule_id": "RL001"}]  # missing required keys
    entry.write_text(json.dumps(payload))
    fingerprint = project_fingerprint(ALL_RULES, files)
    assert load_cached_result(cache, fingerprint) is None


def test_store_result_failure_is_silent(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")  # mkdir under a file raises OSError
    store_result(
        blocker / "cache",
        "deadbeef" * 8,
        findings=[],
        stale_suppressions=[],
        files_checked=0,
    )  # must not raise


def test_no_cache_dir_means_no_writes(tmp_path):
    files = _project(tmp_path)
    run_lint(files)
    assert not list(tmp_path.rglob("cache-*.json"))


def test_cli_no_cache_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main([str(target), "--no-cache"]) == 0
    assert not (tmp_path / ".repro-lint-cache").exists()
    assert main([str(target)]) == 0
    assert (tmp_path / ".repro-lint-cache").is_dir()
    capsys.readouterr()

"""Per-run lint result cache.

A whole-program rule (RL009) makes per-file incremental linting
unsound: editing module A can create or fix a finding in module B (a
weaker fault-model guard in a subclass flags the wait it inherits from
B).  So the cache key is a *whole-project* fingerprint — the rules
version, the selected rule ids, and the content hash of every linted
**and** context file — and a hit replays the entire stored result
without parsing a single file.  Any edit, selection change or rule bump
misses and re-lints everything; there is no state in between, hence
nothing to get stale.

Cache files live under ``.repro-lint-cache/`` (one small JSON per
fingerprint), are written atomically (tmp + rename) and are treated as
advisory: a corrupt or unreadable file is a miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Sequence

from repro.lint.findings import Finding, Severity
from repro.lint.rules import RULES_VERSION

#: cap on stored entries; oldest (by mtime) are evicted past this
_MAX_ENTRIES = 32


def project_fingerprint(
    rule_ids: Sequence[str],
    lint_files: Sequence[pathlib.Path],
    context_files: Sequence[pathlib.Path] = (),
) -> str | None:
    """Hex digest over everything that can change the result, or None
    when any input file is unreadable (no caching then)."""
    hasher = hashlib.sha256()
    hasher.update(RULES_VERSION.encode())
    hasher.update(",".join(sorted(rule_ids)).encode())
    entries: list[tuple[str, str]] = []
    for path in [*lint_files, *context_files]:
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return None
        entries.append((str(path), digest))
    for name, digest in sorted(entries):
        hasher.update(name.encode())
        hasher.update(b"\x00")
        hasher.update(digest.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _entry_path(cache_dir: pathlib.Path, fingerprint: str) -> pathlib.Path:
    return cache_dir / f"cache-{fingerprint[:16]}.json"


def _finding_to_json(finding: Finding) -> dict[str, Any]:
    return {
        "rule_id": finding.rule_id,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "fix_hint": finding.fix_hint,
    }


def _finding_from_json(obj: Any) -> Finding | None:
    if not isinstance(obj, dict):
        return None
    try:
        return Finding(
            rule_id=str(obj["rule_id"]),
            severity=Severity(obj["severity"]),
            path=str(obj["path"]),
            line=int(obj["line"]),
            col=int(obj["col"]),
            message=str(obj["message"]),
            fix_hint=str(obj.get("fix_hint", "")),
        )
    except (KeyError, ValueError, TypeError):
        return None


def load_cached_result(
    cache_dir: pathlib.Path, fingerprint: str
) -> dict[str, Any] | None:
    """The stored payload for ``fingerprint``, or None on miss/corruption."""
    path = _entry_path(cache_dir, fingerprint)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    findings = payload.get("findings")
    stale = payload.get("stale_suppressions")
    if not isinstance(findings, list) or not isinstance(stale, list):
        return None
    decoded_findings = [_finding_from_json(f) for f in findings]
    decoded_stale = [_finding_from_json(f) for f in stale]
    if any(f is None for f in decoded_findings + decoded_stale):
        return None
    return {
        "findings": decoded_findings,
        "stale_suppressions": decoded_stale,
        "files_checked": int(payload.get("files_checked", 0)),
    }


def store_result(
    cache_dir: pathlib.Path,
    fingerprint: str,
    *,
    findings: Sequence[Finding],
    stale_suppressions: Sequence[Finding],
    files_checked: int,
) -> None:
    """Persist one run's result; failures are silently ignored (the
    cache is an optimization, never a correctness dependency)."""
    payload = {
        "fingerprint": fingerprint,
        "rules_version": RULES_VERSION,
        "files_checked": files_checked,
        "findings": [_finding_to_json(f) for f in findings],
        "stale_suppressions": [_finding_to_json(f) for f in stale_suppressions],
    }
    path = _entry_path(cache_dir, fingerprint)
    tmp = path.with_suffix(".tmp")
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        _evict(cache_dir)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def _evict(cache_dir: pathlib.Path) -> None:
    entries = sorted(
        cache_dir.glob("cache-*.json"),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for old in entries[_MAX_ENTRIES:]:
        try:
            old.unlink()
        except OSError:
            pass


__all__ = [
    "load_cached_result",
    "project_fingerprint",
    "store_result",
]

"""Replay-checking: rebuild a history from a trace, run the checkers.

A JSONL trace written by :mod:`repro.obs.export` carries, in its span
records, everything the :mod:`repro.spec` checkers consume — invocation
and response times, update values, and full snapshot segments (value,
tag, writer, useq per component).  This module turns those spans back
into a :class:`~repro.spec.history.History` and runs the polynomial
order checker on it, so the *real* (asyncio) runtime inherits the
simulator's correctness harness: record a live run, then

    python -m repro.obs check trace.jsonl

either certifies the execution or produces a counterexample cycle and
names the condition of :mod:`repro.spec.conditions` it violates.

The required consistency level is inferred from the trace's
``algorithm`` metadata via the chaos campaign's algorithm profiles
(atomic snapshots → linearizability, the sequential-snapshot family →
sequential consistency); ``--level`` overrides the inference for
algorithms the profiles do not know.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.spec.history import SCAN, UPDATE, History
from repro.spec.serialize import history_from_dict

LINEARIZABLE = "linearizable"
SEQUENTIAL = "sequential"
LEVELS = (LINEARIZABLE, SEQUENTIAL)


class ReplayError(ValueError):
    """The trace cannot be replayed (missing metadata, malformed span)."""


@dataclass(slots=True)
class ReplayResult:
    """Outcome of replay-checking one trace."""

    ok: bool
    level: str  #: consistency level that was checked
    level_source: str  #: "inferred" (from algorithm metadata) or "forced"
    algorithm: str | None
    ops: int  #: operations replayed into the history
    violations: list[str] = field(default_factory=list)
    cycle: list[int] = field(default_factory=list)
    condition: str | None = None  #: the first violated condition, when not ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "level": self.level,
            "level_source": self.level_source,
            "algorithm": self.algorithm,
            "ops": self.ops,
            "violations": self.violations,
            "cycle": self.cycle,
            "condition": self.condition,
        }

    def summary_lines(self) -> list[str]:
        algo = self.algorithm or "?"
        head = (
            f"replay-check: {self.ops} ops [{algo}] "
            f"against {self.level} ({self.level_source})"
        )
        if self.ok:
            return [head, "PASS: a legal serialization exists"]
        lines = [
            head,
            "FAIL: no legal serialization",
            f"  condition: {self.condition}",
        ]
        if self.cycle:
            lines.append(
                "  forced-order cycle through op ids: "
                + " -> ".join(str(i) for i in self.cycle)
            )
        lines.extend(f"  {v}" for v in self.violations)
        return lines


def _profile_consistency() -> dict[str, str]:
    """Map algorithm *class* names to their specification level, built
    from the chaos campaign's profiles (single source of truth; a
    mutant's or ablation's profile names the level of the algorithm it
    weakens)."""
    from repro.chaos.algos import all_profiles

    out: dict[str, str] = {}
    for profile in all_profiles().values():
        name = getattr(profile.factory, "__name__", None)
        if name is not None:
            out[name] = profile.consistency
    return out


def infer_level(meta: dict[str, Any]) -> str | None:
    """The consistency level the trace's algorithm promises, or None."""
    algorithm = meta.get("algorithm")
    if not isinstance(algorithm, str):
        return None
    return _profile_consistency().get(algorithm)


def history_from_trace(
    meta: dict[str, Any], spans: list[dict[str, Any]]
) -> History:
    """Rebuild the operation history recorded in a trace's spans.

    Spans are replayed in ``op_id`` order (the tracer assigns ids in
    invocation order), which reproduces the per-writer ``useq``
    assignment; snapshot results are rebuilt from their encoded
    segments.  Non-snapshot operation kinds keep their timings only,
    matching :func:`repro.spec.serialize.history_from_dict`.
    """
    n = meta.get("n")
    if not isinstance(n, int) or n <= 0:
        raise ReplayError("trace metadata lacks a usable 'n' (node count)")
    update_counts = [0] * n
    entries: list[dict[str, Any]] = []
    for span in sorted(spans, key=lambda s: s.get("op_id", 0)):
        try:
            node = span["node"]
            kind = span["kind"]
            t_inv = span["t_inv"]
        except KeyError as missing:
            raise ReplayError(f"span missing field {missing}") from None
        if not 0 <= node < n:
            raise ReplayError(f"span op {span.get('op_id')}: node {node} out of range")
        aborted = bool(span.get("aborted"))
        t_resp = None if aborted else span.get("t_resp")
        entry: dict[str, Any] = {
            "op_id": span.get("op_id", len(entries)),
            "node": node,
            "kind": kind,
            "t_inv": t_inv,
            "t_resp": t_resp,
            "useq": 0,
        }
        if kind == UPDATE:
            update_counts[node] += 1
            entry["useq"] = update_counts[node]
            args = span.get("args") or []
            entry["value"] = args[0].get("value") if args else None
        elif kind == SCAN and t_resp is not None:
            result = span.get("result")
            segments = (result or {}).get("snapshot") if isinstance(result, dict) else None
            if segments is None:
                raise ReplayError(
                    f"scan op {entry['op_id']} has no snapshot segments "
                    "(trace predates span result capture?)"
                )
            if len(segments) != n:
                raise ReplayError(
                    f"scan op {entry['op_id']}: {len(segments)} segments != n={n}"
                )
            entry["snapshot"] = segments
        entries.append(entry)
    return history_from_dict({"n": n, "ops": entries})


def replay_check(
    meta: dict[str, Any],
    spans: list[dict[str, Any]],
    *,
    level: str | None = None,
) -> ReplayResult:
    """Replay a trace's spans and decide its consistency.

    Args:
        meta: the trace's metadata line (needs ``n``; ``algorithm``
            drives level inference).
        spans: span records from :func:`repro.obs.export.read_trace`.
        level: force ``"linearizable"`` or ``"sequential"`` instead of
            inferring from the algorithm profile.

    Raises:
        ReplayError: the trace is not replayable, or no level could be
            inferred and none was forced.
    """
    from repro.spec.order import order_check

    if level is not None and level not in LEVELS:
        raise ReplayError(f"unknown level {level!r}; choose from {LEVELS}")
    algorithm = meta.get("algorithm")
    if level is not None:
        chosen, source = level, "forced"
    else:
        inferred = infer_level(meta)
        if inferred is None:
            raise ReplayError(
                f"cannot infer a consistency level for algorithm "
                f"{algorithm!r}; pass --level linearizable|sequential"
            )
        chosen, source = inferred, "inferred"
    history = history_from_trace(meta, spans)
    result = order_check(history, real_time=(chosen == LINEARIZABLE))
    violations: list[str] = []
    if not result.ok:
        by_id = {op.op_id: op for op in history.ops}
        for op_id in result.cycle:
            op = by_id.get(op_id)
            if op is not None:
                violations.append(repr(op))
    return ReplayResult(
        ok=result.ok,
        level=chosen,
        level_source=source,
        algorithm=algorithm if isinstance(algorithm, str) else None,
        ops=len(history),
        violations=violations,
        cycle=list(result.cycle),
        condition=None if result.condition is None else str(result.condition),
    )


__all__ = [
    "LEVELS",
    "ReplayError",
    "ReplayResult",
    "history_from_trace",
    "infer_level",
    "replay_check",
]

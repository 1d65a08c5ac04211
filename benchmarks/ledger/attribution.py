"""Layer attribution from outside: spans around calls, profile buckets.

Nothing here touches ``src/``.  Two instruments:

- :class:`Spans` — in-memory ``{name, start, end, parent, workload,
  episode}`` records around each call the benchmark makes into a layer;
  self time is a span's duration minus the part its children cover.
- :func:`layer_self_times` — ``cProfile`` ``tottime`` bucketed by source
  path into the layers of :data:`LAYERS`.  A builtin (or generated
  code) has no source path, so its time goes to the layers of its
  callers (through the callers table, in proportion to the time spent
  under each), which is what makes the fractions sum to 1.
"""

from __future__ import annotations

import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Iterator

#: layers every workload reports, in table order.  ``src/repro`` packages
#: outside this list (apps, harness, bench, parallel, lint) run in no
#: workload's timed region; if one ever does it lands in ``py_other``.
LAYERS = (
    "sim", "net", "core", "baselines", "runtime", "shard", "spec", "obs",
    "chaos", "py_asyncio", "py_other", "ledger",
)

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_path(filename: str) -> str | None:
    """Layer owning a source file; ``None`` for code with no file of its
    own — builtins (``~``) and generated code such as the dataclass
    ``__init__``/``__eq__``/``__hash__`` of messages and tags
    (``<string>``), whose time belongs to whoever called them."""
    if filename == "~" or filename.startswith("<"):
        return None
    if filename.startswith(_LEDGER_DIR):
        return "ledger"
    pos = filename.find(_REPRO_MARK)
    if pos >= 0:
        package = filename[pos + len(_REPRO_MARK):].split(os.sep, 1)[0]
        return package if package in LAYERS else "py_other"
    parts = filename.split(os.sep)
    if "asyncio" in parts or parts[-1] == "selectors.py":
        return "py_asyncio"
    return "py_other"


def layer_self_times(profile: Any) -> dict[str, float]:
    """Seconds of ``tottime`` per layer for one ``cProfile.Profile``."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    shares: dict[Any, dict[str, float]] = {}

    def share_of(func: Any, trail: frozenset) -> dict[str, float]:
        """How one function's own time splits over layers (sums to 1)."""
        known = shares.get(func)
        if known is not None:
            return known
        layer = layer_of_path(func[0])
        if layer is not None:
            out = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {
                c: max(entry[2], 0.0) for c, entry in callers.items()
                if c not in trail
            }
            total = sum(weights.values())
            out = {}
            if total <= 0.0:
                # called from nowhere we can see (or only through a
                # cycle of builtins): split evenly over the callers,
                # stdlib if there are none
                weights = {c: 1.0 for c in weights}
                total = float(len(weights))
            if not weights:
                out = {"py_other": 1.0}
            for caller, weight in weights.items():
                for lay, frac in share_of(caller, trail | {func}).items():
                    out[lay] = out.get(lay, 0.0) + frac * weight / total
        if not trail:
            shares[func] = out  # memoize only cycle-free resolutions
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, frac in share_of(func, frozenset()).items():
            totals[layer] += tottime * frac
    return totals


class Spans:
    """Span recorder; a disabled one costs one ``if`` per span."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, *, layer: str, episode: int | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.records)
        record = {
            "id": index,
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "episode": episode,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (duration minus child spans)."""
        child_time = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for rec in self.records:
            own = rec["end"] - rec["start"] - child_time[rec["id"]]
            key = f"{rec['layer']}:{rec['name']}"
            out[key] = out.get(key, 0.0) + own
        return out


__all__ = ["LAYERS", "Spans", "layer_of_path", "layer_self_times"]

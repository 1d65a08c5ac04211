"""Timestamps, value–timestamp pairs and snapshot results.

The paper (Sec. III-D, "Variables") associates every written value with a
timestamp ``⟨r, j⟩`` where ``r`` is the *tag* and ``j`` the writer id.
Footnote 2 additionally piggybacks a per-writer sequence number so that
UPDATE operations are globally unique; we carry it as :attr:`ValueTs.useq`.
These types are shared by every algorithm in the repository (baselines
synthesize them from their own internal sequence numbers) so that a single
correctness checker (:mod:`repro.spec`) applies uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass(frozen=True, slots=True, order=True)
class Timestamp:
    """The ``⟨tag, writer⟩`` pair of Definition 8.

    Ordering is lexicographic (tag first, writer id as tie-break), which is
    the standard total order on such timestamps.
    """

    tag: int
    writer: int

    def __post_init__(self) -> None:
        if self.tag < 0:
            raise ValueError(f"tag must be non-negative, got {self.tag}")
        if self.writer < 0:
            raise ValueError(f"writer must be non-negative, got {self.writer}")


@dataclass(frozen=True, slots=True)
class ValueTs:
    """A value–timestamp pair (paper: "value" denotes a value-timestamp pair).

    Attributes:
        value: the application value written by the UPDATE.
        ts: the ``⟨tag, writer⟩`` timestamp (globally unique, Sec. III-A
            footnote 2 — a writer never reuses a tag).
        useq: the writer-local 1-based UPDATE sequence number; identifies
            the UPDATE operation in the history (used by the spec checkers
            to compute bases per Definition 4).
    """

    value: Any
    ts: Timestamp
    useq: int
    #: ``hash((value, ts, useq))``, computed once on first use: a value is
    #: hashed on every interner, forward-once-filter and message-intern
    #: probe, and the generated ``__hash__`` would re-hash the nested
    #: timestamp each time.  (Not at construction: the baselines build
    #: snapshot metadata they never hash, and a history loaded from JSON
    #: may carry an unhashable list payload.)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.useq < 1:
            raise ValueError(f"useq must be >= 1, got {self.useq}")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.value, self.ts, self.useq))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self) -> tuple[Any, ...]:
        # rebuild through the constructor: a pickled hash would be stale
        # in a worker process with another str-hash seed
        return (ValueTs, (self.value, self.ts, self.useq))

    @property
    def tag(self) -> int:
        return self.ts.tag

    @property
    def writer(self) -> int:
        return self.ts.writer

    def uid(self) -> tuple[int, int]:
        """The (writer, useq) pair identifying the UPDATE operation."""
        return (self.ts.writer, self.useq)


@dataclass(frozen=True, slots=True)
class Snapshot:
    """The vector returned by a SCAN.

    ``values[j]`` is the paper's ``Snap[j]`` (``None`` encodes ``⊥``);
    ``meta[j]`` is the :class:`ValueTs` the value came from (``None`` for
    ``⊥``), which lets the spec layer identify the originating UPDATE.
    """

    values: tuple[Any, ...]
    meta: tuple[ValueTs | None, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.meta):
            raise ValueError("values and meta must have equal length")
        for j, m in enumerate(self.meta):
            if m is not None and m.writer != j:
                raise ValueError(
                    f"segment {j} carries a value written by node {m.writer}"
                )

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> Any:
        return self.values[j]

    def segment_uid(self, j: int) -> tuple[int, int] | None:
        """(writer, useq) of the UPDATE visible in segment j, if any."""
        m = self.meta[j]
        return None if m is None else m.uid()


def tag_of(value: Any) -> int:
    """The tag a value carries for ``V^{≤r}`` restrictions.

    :class:`ValueTs` (and anything else timestamped) exposes ``.tag``;
    untagged elements — e.g. the lattice-agreement proposals that reuse
    the view-vector machinery — restrict as tag 0, i.e. they belong to
    every restriction, which matches the unrestricted predicate those
    algorithms evaluate.
    """
    return getattr(value, "tag", 0)


def latest_by_scan(view: Iterable[ValueTs], n: int) -> list[ValueTs | None]:
    """For each writer ``j < n``, the value in ``view`` written by ``j``
    with the largest timestamp (``None`` if there is none), found by
    visiting every member."""
    best: list[ValueTs | None] = [None] * n
    for vt in view:
        j = vt.writer
        cur = best[j]
        if cur is None or vt.ts > cur.ts:
            best[j] = vt
    return best


def extract(view: Iterable[ValueTs], n: int) -> Snapshot:
    """The paper's ``extract(S)`` procedure (Algorithm 1, lines 31–34).

    For each node ``j``, pick the value in the view written by ``j`` with
    the largest tag (``⊥``/``None`` if the view contains none).  A view
    that indexes its members by writer (the view plane's handle, see
    :mod:`repro.core.views`) answers without a pass over all of them.
    """
    indexed = getattr(view, "latest_per_writer", None)
    best = latest_by_scan(view, n) if indexed is None else indexed(n)
    return Snapshot(
        values=tuple(None if b is None else b.value for b in best),
        meta=tuple(best),
    )


__all__ = ["Timestamp", "ValueTs", "Snapshot", "extract", "latest_by_scan", "tag_of"]

"""repro.lint — AST-based protocol-safety linter for this repository.

The measurement claims of the reproduction (byte-stable traces, Table I
latency exponents, per-``D`` phase accounting) rest on code invariants
that ordinary linters cannot see.  This package enforces them:

- **RL001 determinism** — randomness/clock imports only in ``sim/rng``;
  no unordered set iteration in protocol handlers and ops;
- **RL002 sans-io purity** — no I/O/event-loop/threading imports in
  ``core/``, ``baselines/``, ``net/``, ``shard/``; communication only
  via the ``send``/``broadcast`` outbox helpers;
- **RL003 message immutability** — frozen wire-message dataclasses; no
  mutation of received payloads in a handler;
- **RL004 quorum arithmetic** — thresholds derived from ``self.n``/
  ``self.f``, integer arithmetic on counts;
- **RL005 phase coverage** — every public protocol op annotates its
  phases so spans decompose into units of ``D``;
- **RL009 symbolic quorum safety** — wait thresholds, as linear forms
  over ``n``/``f``, provably intersect under the class's declared fault
  model (``n > 2f`` crash / ``n > 3f`` Byzantine), for *every* ``(n, f)``.

These are the rules no execution can decide.  What one execution does
decide — every sent kind has a handler, message fields exist, a wait can
be satisfied — is left to the substrate, which raises a typed error at
the first delivery (DESIGN.md, "Static rules only where no run can
decide").

Run ``python -m repro.lint [paths]``; suppress one line with
``# lint: ignore[RL001]`` plus a justification (stale suppressions are
themselves reported).  See the "Static analysis" section of README.md
for the full catalog.
"""

from __future__ import annotations

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.rules import ALL_RULES, RULES_VERSION

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "RULES_VERSION",
    "Severity",
    "run_lint",
]

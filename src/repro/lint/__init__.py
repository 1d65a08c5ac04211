"""repro.lint — AST-based protocol-safety linter for this repository.

The measurement claims of the reproduction (byte-stable traces, Table I
latency exponents, per-``D`` phase accounting) rest on code invariants
that ordinary linters cannot see.  This package enforces them:

- **RL001 determinism** — randomness/clock imports only in ``sim/rng``;
  no unordered set iteration in protocol handlers and ops;
- **RL002 sans-io purity** — no I/O/event-loop/threading imports in
  ``core/``, ``baselines/``, ``net/``; communication only via the
  ``send``/``broadcast`` outbox helpers;
- **RL003 message immutability** — frozen wire-message dataclasses; no
  mutation of received payloads in a handler;
- **RL004 quorum arithmetic** — thresholds derived from ``self.n``/
  ``self.f``, integer arithmetic on counts;
- **RL005 phase coverage** — every public protocol op annotates its
  phases so spans decompose into units of ``D``;
- **RL006 view encapsulation** — view-plane internals stay behind the
  public accessors.

On top of the whole-program message-flow graph (:mod:`repro.lint.flow`):

- **RL007 dead letters & dead handlers** — every sent message type has
  a consumer, every handler arm a sender (MRO-resolved);
- **RL008 field conformance** — message constructions, narrowed field
  reads and match patterns agree with the dataclass schema;
- **RL009 symbolic quorum safety** — wait thresholds, as linear forms
  over ``n``/``f``, provably intersect under the class's declared fault
  model (``n > 2f`` crash / ``n > 3f`` Byzantine);
- **RL010 unsatisfiable waits** — every wait predicate depends on state
  some deliverable message actually mutates.

Run ``python -m repro.lint [paths]``; suppress one line with
``# lint: ignore[RL001]`` plus a justification (stale suppressions are
themselves reported).  ``--graph dot|json`` exports the flow graph.
See the "Static analysis" section of README.md for the full catalog.
"""

from __future__ import annotations

from repro.lint.config import LintConfig
from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.report import format_json, format_text
from repro.lint.rules import ALL_RULES, RULES_VERSION
from repro.lint.schema import validate_graph, validate_lint_report

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES_VERSION",
    "Severity",
    "format_json",
    "format_text",
    "run_lint",
    "validate_graph",
    "validate_lint_report",
]

"""Correctness theory of snapshot objects (paper Secs. II-B and III-A).

Provides histories, bases (Definition 4), one checker of the tight
conditions for both levels — (A0)–(A4) of Theorem 1, and with
``real_time=False`` their program-order parts, the sequential-consistency
conditions — the polynomial exact decider :func:`order_check` (whose
failing verdict names the violated condition), the constructive
linearizer of the Theorem 1 sufficiency proof, JSON history round-trips,
and exponential brute-force checkers that the chaos runner uses to
cross-check every small campaign history.
"""

from repro.spec.base import Base, BaseVector, base_vector, comparable, scan_base
from repro.spec.brute import brute_force_linearizable, brute_force_sequentially_consistent
from repro.spec.conditions import Violation, check_atomicity_conditions
from repro.spec.history import SCAN, UPDATE, History, OpRecord
from repro.spec.linearize import LinearizationError, linearize
from repro.spec.order import (
    CheckerInternalError,
    OrderResult,
    effective_ops,
    order_check,
    validate_serialization,
)


def check_sequentially_consistent(history: History) -> bool:
    """True iff the history is sequentially consistent (Definition 2)."""
    return order_check(history, real_time=False).ok


def is_linearizable(history: History) -> bool:
    """True iff the history is linearizable (Definition 3)."""
    return order_check(history, real_time=True).ok


__all__ = [
    "Base",
    "BaseVector",
    "base_vector",
    "comparable",
    "scan_base",
    "brute_force_linearizable",
    "brute_force_sequentially_consistent",
    "Violation",
    "check_atomicity_conditions",
    "History",
    "OpRecord",
    "UPDATE",
    "SCAN",
    "LinearizationError",
    "linearize",
    "CheckerInternalError",
    "OrderResult",
    "effective_ops",
    "order_check",
    "validate_serialization",
    "check_sequentially_consistent",
    "is_linearizable",
]

"""Correctness theory of snapshot objects (paper Secs. II-B and III-A).

Provides histories, bases (Definition 4), the tight atomicity conditions
(A0)–(A4) of Theorem 1, polynomial exact checkers for linearizability and
sequential consistency, the constructive linearizer of the Theorem 1
sufficiency proof, and exponential brute-force reference checkers used to
cross-validate everything on small histories.
"""

from repro.spec.base import (
    Base,
    BaseVector,
    base_vector,
    comparable,
    scan_base,
)
from repro.spec.brute import (
    brute_force_linearizable,
    brute_force_sequentially_consistent,
)
from repro.spec.conditions import (
    Violation,
    check_atomicity_conditions,
    check_linearizable,
)
from repro.spec.history import SCAN, UPDATE, History, OpRecord
from repro.spec.sso_conditions import check_sso_conditions
from repro.spec.linearize import LinearizationError, linearize, sequentialize
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
    "check_linearizable",
    "History",
    "OpRecord",
    "UPDATE",
    "SCAN",
    "LinearizationError",
    "linearize",
    "sequentialize",
    "CheckerInternalError",
    "OrderResult",
    "effective_ops",
    "order_check",
    "validate_serialization",
    "check_sequentially_consistent",
    "check_sso_conditions",
    "is_linearizable",
]

"""repro.lint.flow — the analysis under RL009.

:mod:`graph` walks every ``WaitUntil`` wait site (and reads ``@handles``
registrations for RL001/RL003); :mod:`symbolic` decides quorum
intersection over linear forms in ``n`` and ``f``.
"""

from __future__ import annotations

from repro.lint.flow.graph import WaitSite, registered_kind, wait_sites
from repro.lint.flow.symbolic import (
    FaultModel,
    Lin,
    check_intersection,
    fault_model_for,
    parse_linear,
)

__all__ = [
    "FaultModel",
    "Lin",
    "WaitSite",
    "check_intersection",
    "fault_model_for",
    "parse_linear",
    "registered_kind",
    "wait_sites",
]

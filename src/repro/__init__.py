"""repro — fault-tolerant snapshot objects in message-passing systems.

A production-quality reproduction of Garg, Kumar, Tseng & Zheng,
*"Fault-tolerant Snapshot Objects in Message Passing Systems"*
(IPDPS 2022; technical report arXiv:2008.11837).

The library provides:

- **EQ-ASO** (:class:`repro.core.EqAso`): the paper's crash-tolerant
  atomic snapshot object with :math:`O(\\sqrt{k}\\,D)` operations and
  amortized :math:`O(D)`;
- **SSO-Fast-Scan** (:class:`repro.core.SsoFastScan`): sequentially
  consistent snapshots with zero-communication ``O(1)`` SCAN;
- **Byzantine ASO / SSO** (:class:`repro.core.ByzantineAso`,
  :class:`repro.core.ByzantineSso`);
- **early-stopping lattice agreement**
  (:class:`repro.core.EarlyStoppingLA`);
- every baseline of the paper's Table I (:mod:`repro.baselines`);
- the correctness theory of Theorem 1 as executable checkers
  (:mod:`repro.spec`);
- a deterministic discrete-event message-passing simulator with crash and
  Byzantine fault injection (:mod:`repro.sim`, :mod:`repro.net`,
  :mod:`repro.runtime`);
- the experiment harness regenerating the paper's table and figures
  (:mod:`repro.harness`).

Quickstart::

    from repro import Cluster, EqAso

    cluster = Cluster(EqAso, n=5, f=2)
    handles = cluster.run_ops([
        (0.0, 0, "update", ("hello",)),
        (5.0, 1, "scan", ()),
    ])
    print(handles[1].result.values)   # ('hello', None, None, None, None)
"""

from repro.core import (
    ByzantineAso,
    ByzantineSso,
    EarlyStoppingLA,
    EqAso,
    OneShotAso,
    Snapshot,
    SsoFastScan,
    Timestamp,
    ValueTs,
)
from repro.net import (
    AdversarialDelay,
    BroadcastCrash,
    ConstantDelay,
    CrashAtTime,
    CrashPlan,
    Network,
    UniformDelay,
)
from repro.net.faults import chain_crash_plan
from repro.runtime import Cluster, OpHandle, ProtocolNode, StuckError, WaitUntil
from repro.spec import (
    History,
    check_atomicity_conditions,
    check_sequentially_consistent,
    is_linearizable,
    linearize,
)

__version__ = "1.0.0"

__all__ = [
    "ByzantineAso",
    "ByzantineSso",
    "EarlyStoppingLA",
    "EqAso",
    "OneShotAso",
    "Snapshot",
    "SsoFastScan",
    "Timestamp",
    "ValueTs",
    "AdversarialDelay",
    "BroadcastCrash",
    "ConstantDelay",
    "CrashAtTime",
    "CrashPlan",
    "Network",
    "UniformDelay",
    "chain_crash_plan",
    "Cluster",
    "OpHandle",
    "ProtocolNode",
    "StuckError",
    "WaitUntil",
    "History",
    "check_atomicity_conditions",
    "check_sequentially_consistent",
    "is_linearizable",
    "linearize",
    "__version__",
]

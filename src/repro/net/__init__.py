"""Message-passing substrate (paper Sec. II-A).

Implements the system model the algorithms assume:

- reliable point-to-point channels: a message handed to the network is
  delivered even if the sender subsequently crashes;
- FIFO channels: per (src, dst) pair, deliveries happen in send order;
- bounded delay: every delivery happens within ``D`` of the send, where
  ``D`` is known only to the observer (the delay model), never to nodes;
- crash faults, including the paper's Definition 11 crash mode: a node may
  crash *while sending to all*, so only a prefix of the destinations
  receive the broadcast;
- Byzantine behaviours as pluggable strategies (used by the Byzantine ASO
  experiments).
"""

from repro.net.delays import (
    AdversarialDelay,
    ConstantDelay,
    DelayModel,
    UniformDelay,
)
from repro.net.faults import BroadcastCrash, CrashAtTime, CrashPlan, CrashSpec
from repro.net.network import Network

__all__ = [
    "AdversarialDelay",
    "ConstantDelay",
    "DelayModel",
    "UniformDelay",
    "BroadcastCrash",
    "CrashAtTime",
    "CrashPlan",
    "CrashSpec",
    "Network",
]

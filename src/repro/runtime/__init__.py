"""Runtimes that drive sans-io protocol nodes.

Protocol classes (:mod:`repro.core`, :mod:`repro.baselines`) are pure state
machines: message handlers — one method per message type, registered with
:func:`~repro.runtime.protocol.handles` — mutate local state and queue
outgoing messages; client operations are generators that ``yield WaitUntil(predicate)`` — and
whose one communication idiom, "send to all, wait for ``n − f`` replies",
is :meth:`~repro.runtime.protocol.ProtocolNode.quorum_round` (replies are
filed by :meth:`~repro.runtime.protocol.ProtocolNode.round_reply`).

One cluster, :class:`repro.runtime.cluster.BaseCluster`, wires the nodes
to one :class:`~repro.net.network.Network` and one op driver
(:class:`repro.runtime.driver.OpDriver`: open an operation, resume its
generator until it parks or returns, drain the outbox, settle it in the
history and the tracer); two runtimes give it a kernel:

- :class:`repro.runtime.cluster.Cluster` — the deterministic discrete-event
  cluster (all experiments and fault injection);
- :class:`repro.runtime.aio.AioCluster` — the same network on an asyncio
  loop's clock (examples; the protocols are not simulator-bound).

Both guarantee the paper's atomicity discipline (Sec. III-D) through the
same ``_deliver``: a message handler runs to completion, and a client
generator parked on a ``WaitUntil`` is resumed synchronously right after
the handler that made its predicate true — before any further delivery.
This realises the paper's NOTE that the ``goodLA`` handler (line 49)
executes before a pending ``LatticeRenewal`` resumes at line 29.
"""

from repro.runtime.protocol import OpGen, ProtocolNode, WaitUntil, handles
from repro.runtime.cluster import Cluster, OpHandle, StuckError

__all__ = [
    "OpGen",
    "ProtocolNode",
    "WaitUntil",
    "handles",
    "Cluster",
    "OpHandle",
    "StuckError",
]

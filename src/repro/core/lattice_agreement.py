"""Early-stopping lattice agreement (Sec. I-B, "Other Contributions").

The paper abstracts the lattice-operation component of the snapshot
framework into a one-shot lattice agreement (LA) algorithm with
:math:`O(\\sqrt{k}\\,D)` time — "the first early-stopping lattice
agreement algorithm we are aware of".

In one-shot LA each node ``i`` proposes a set ``X_i`` and must decide an
output ``Y_i`` such that:

- **validity**:   ``X_i ⊆ Y_i ⊆ ∪_j X_j``;
- **comparability**: for all ``i, j``, ``Y_i ⊆ Y_j`` or ``Y_j ⊆ Y_i``.

The algorithm is the one-shot equivalence-quorum machinery: broadcast your
proposal's elements, forward every element once, wait for ``EQ(V, i)`` and
decide the equivalence set.  Comparability is Lemma 1; validity holds
because ``V_i[i]`` contains the node's own elements and only broadcast
elements.  Early-stopping: latency degrades with the number of *actual*
failures ``k``, not the threshold ``f`` (measured by the LA-ES benchmark).
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.views import ViewVector
from repro.runtime.protocol import OpGen, ProtocolNode, WaitUntil, handles


@dataclass(frozen=True, slots=True)
class LAElement:
    """One proposed element, tagged with its proposer (keeps elements
    distinct per proposer without constraining the application domain)."""

    proposer: int
    item: Hashable


@dataclass(frozen=True, slots=True)
class MLAValue:
    """Gossip of one proposal element (analogue of the ``value`` message)."""

    element: LAElement


@dataclass(frozen=True, slots=True)
class MLAAck:
    """Acknowledgement to the proposer (quorum completion of the send)."""

    element: LAElement


class EarlyStoppingLA(ProtocolNode):
    """One-shot early-stopping lattice agreement (``n > 2f``).

    Client operation: :meth:`propose` (at most once per node).
    """

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        if n <= 2 * f:
            raise ValueError(f"lattice agreement requires n > 2f (n={n}, f={f})")
        self.V = ViewVector(n)
        self._acks: dict[LAElement, set[int]] = {}
        self._proposed = False

    def propose(self, values: Iterable[Hashable]) -> OpGen:
        """Propose a set of values; decide a comparable superset."""
        if self._proposed:
            raise RuntimeError("one-shot LA: node already proposed")
        self._proposed = True
        elements = [LAElement(self.node_id, v) for v in values]
        for el in elements:
            self._acks[el] = set()
            self.broadcast(MLAValue(el))

        def quorum_acked() -> bool:
            return all(len(self._acks[el]) >= self.quorum_size for el in elements)

        self.phase_enter("disseminate")
        yield WaitUntil(quorum_acked, "LA proposal ack quorum")
        self.phase_exit("disseminate")

        holder: list[Set[LAElement]] = []

        def eq_holds() -> bool:
            hit = self.V.eq_predicate(self.node_id, self.f)
            if hit is None:
                return False
            holder.append(hit[1])
            return True

        self.phase_enter("eq-wait")
        yield WaitUntil(eq_holds, f"EQ(V, {self.node_id}) for LA decision")
        self.phase_exit("eq-wait")
        decided = holder[-1]
        return frozenset(el.item for el in decided)

    @handles(MLAValue)
    def _on_la_value(self, src: int, m: MLAValue) -> None:
        el = m.element
        # forward once: on first receipt, unless it is our own broadcast
        if self.V.learn(src, self.node_id, el) and src != self.node_id:
            self.broadcast(m)
        if el.proposer != self.node_id:
            self.send(el.proposer, MLAAck(el))
        elif el in self._acks:
            self._acks[el].add(self.node_id)

    @handles(MLAAck)
    def _on_la_ack(self, src: int, m: MLAAck) -> None:
        if m.element in self._acks:
            self._acks[m.element].add(src)


__all__ = ["EarlyStoppingLA", "LAElement", "MLAValue", "MLAAck"]

"""A synthetic long history, and the CI ``checker-scale`` step.

    timeout 60 python -m tests.support.checker_scale [OPS]

builds a 10 000-op history without simulating anything and puts it
through ``order_check(real_time=True)`` and ``check_atomicity_conditions``.
The dense checkers this repository used to ship need minutes to hours
for that; the ``timeout`` is the assertion.
"""

from __future__ import annotations

import sys
import time  # lint: ignore[RL001] host stopwatch for the printed timings; nothing is simulated

from repro.core.tags import Snapshot, Timestamp, ValueTs
from repro.spec.conditions import check_atomicity_conditions
from repro.spec.history import SCAN, UPDATE, History
from repro.spec.order import _build_graph, order_check


def synthetic_history(n: int, ops: int) -> History:
    """A linearizable round-robin history: node ``k % n`` runs op ``k``
    over ``[k, k + 0.5]``, alternating rounds of updates and scans; each
    scan returns everything written so far."""
    h = History(n)
    latest: list[ValueTs | None] = [None] * n
    for k in range(ops):
        node = k % n
        if (k // n) % 2 == 0:
            op = h.invoke(node, UPDATE, (k,), float(k))
            h.respond(op, k + 0.5, "ACK")
            latest[node] = ValueTs(k, Timestamp(op.useq, node), op.useq)
        else:
            op = h.invoke(node, SCAN, (), float(k))
            values = tuple(None if m is None else m.value for m in latest)
            h.respond(op, k + 0.5, Snapshot(values=values, meta=tuple(latest)))
    return h


def main(argv: list[str]) -> int:
    n, ops = 5, int(argv[0]) if argv else 10_000
    history = synthetic_history(n, ops)
    start = time.perf_counter()
    result = order_check(history, real_time=True)
    checked = time.perf_counter()
    violations = check_atomicity_conditions(history)
    done = time.perf_counter()
    edges = sum(map(len, _build_graph(history, real_time=True)[1]))
    print(
        f"{ops} ops on n={n}: order_check {checked - start:.3f} s "
        f"({edges} edges, bound {(3 * n + 1) * ops}), "
        f"check_atomicity_conditions {done - checked:.3f} s"
    )
    if not result.ok or len(result.order) != ops or violations:
        print("error: the synthetic history must be linearizable", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

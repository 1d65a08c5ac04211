"""One long EQ-ASO operation stream, and the CI ``stream-scale`` step.

    timeout 60 python -m tests.support.stream_scale [OPS]

runs a 10 000-op half-update half-scan stream on n=5 (lockstep delays,
every node a closed loop — the shape of the ledger's
``des_long_stream_checked`` at ten times its length), checks the history
with ``order_check(real_time=True)``, and prints ops/s and the process's
peak RSS.  When every lattice operation materialized its view as a
frozenset the same stream took 33 s and peaked at 1.1 GB here (5.4 s and
80 MB now); the RSS ceiling and the ``timeout`` are the assertions.
"""

from __future__ import annotations

import resource
import sys
import time  # lint: ignore[RL001] host stopwatch for the printed timings; model time is untouched

from repro.core.eq_aso import EqAso
from repro.harness.workloads import random_workload
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng
from repro.spec.order import order_check

N, F = 5, 2
MAX_RSS_MB = 150.0


def run_stream(ops: int, *, factory: type = EqAso, seed: int = 11) -> Cluster:
    """Run ``ops`` operations, ``ops // N`` chained back-to-back on each
    node from time 0, each a scan with probability one half; returns the
    cluster (all operations complete)."""
    cluster = Cluster(factory, n=N, f=F)
    handles = random_workload(
        cluster,
        SeededRng(seed),
        ops_per_node=ops // N,
        start_spread=0.0,
        gap_spread=0.0,
    )
    cluster.run_until_complete(handles)
    return cluster


def main(argv: list[str]) -> int:
    ops = int(argv[0]) if argv else 10_000
    start = time.perf_counter()
    cluster = run_stream(ops)
    ran = time.perf_counter()
    result = order_check(cluster.history, real_time=True)
    done = time.perf_counter()
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{ops} ops on n={N}: stream {ran - start:.2f} s + order_check "
        f"{done - ran:.2f} s = {ops / (done - start):.0f} ops/s, "
        f"peak RSS {rss_mb:.0f} MB (ceiling {MAX_RSS_MB:.0f})"
    )
    if not result.ok or len(result.order) != ops:
        print("error: the stream's history was rejected", file=sys.stderr)
        return 1
    if rss_mb > MAX_RSS_MB:
        print("error: peak RSS above the ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

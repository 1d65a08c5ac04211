"""Open-loop workload generation for the sharded snapshot service.

An *open-loop* generator emits operation arrivals on a fixed stochastic
clock, independent of how fast the service absorbs them — the standard
methodology for tail-latency measurement (a closed loop self-throttles
and hides queueing delay, the very thing p99 is supposed to expose).
Three knobs shape the traffic:

- **key skew** — keys are drawn Zipf-distributed over a fixed keyspace
  (``zipf_theta`` is the exponent; 0 = uniform), the classic model for
  hot-key traffic.  Skew is what makes per-shard load imbalance a real
  phenomenon to measure rather than a rounding artifact.
- **burstiness** — arrivals follow a two-state MMPP (Markov-modulated
  Poisson process): an ON state at ``rate`` arrivals per ``D`` and an
  OFF state at ``off_rate``, with exponentially distributed state
  holding times.  ``mean_off = 0`` degenerates to a plain Poisson
  stream.  Bursts are what create transient queues — and therefore a
  p99 distinct from the p50.
- **mix** — each arrival is a SCAN with probability ``read_ratio``
  (otherwise an UPDATE of a fresh unique value), and each SCAN is a
  cross-shard *global* scan with probability ``global_scan_ratio``
  (otherwise a single-shard scan routed by key).

Every random draw flows through one :class:`~repro.sim.rng.SeededRng`
derived from ``(master_seed, "shard-workload")``, so a workload is a
pure function of ``(spec, seed)``: the same million arrivals in every
process, which is what lets the service fan shard sub-workloads out to
the PR-8 executor and still produce byte-identical reports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.sim.rng import SeededRng

#: operation kinds emitted by the generator
UPDATE = "update"
SCAN = "scan"  #: single-shard scan, routed by key like an update
GLOBAL_SCAN = "gscan"  #: cross-shard composite scan (monotone cut)


@dataclass(frozen=True, slots=True)
class Arrival:
    """One generated client operation.

    ``client`` is a logical client id in ``[0, spec.clients)``; the
    service pins client ``c`` to node ``c % nodes_per_shard`` on every
    shard, so millions of clients multiplex onto each shard's ``n``
    sequential nodes and excess arrivals queue (open-loop queueing is
    *included* in measured latency, by design).
    """

    index: int  #: position in the generated stream (stable op id)
    t: float  #: arrival time, in units of D
    client: int
    kind: str  #: UPDATE, SCAN or GLOBAL_SCAN
    key: str  #: routing key ("" for GLOBAL_SCAN — it touches every shard)


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Shape of one open-loop workload (all times in units of ``D``)."""

    ops: int
    keys: int = 256
    zipf_theta: float = 1.1
    read_ratio: float = 0.2
    global_scan_ratio: float = 0.0
    clients: int = 1_000_000
    rate: float = 4.0  #: ON-state arrival rate (ops per D)
    off_rate: float = 0.0  #: OFF-state arrival rate (ops per D)
    mean_on: float = 50.0  #: mean ON-state duration (D)
    mean_off: float = 0.0  #: mean OFF duration; 0 = never leaves ON

    def __post_init__(self) -> None:
        for name in ("rate", "off_rate", "mean_on", "mean_off", "zipf_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.zipf_theta < 0:
            raise ValueError(f"zipf_theta must be >= 0, got {self.zipf_theta}")
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.keys < 1:
            raise ValueError(f"keys must be >= 1, got {self.keys}")
        try:  # the Zipf CDF's largest term; every smaller rank fits if it does
            float(self.keys) ** self.zipf_theta
        except OverflowError:
            raise ValueError(
                f"zipf_theta {self.zipf_theta} overflows: {self.keys} ** zipf_theta "
                "exceeds a float"
            ) from None
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError(f"read_ratio must be in [0, 1], got {self.read_ratio}")
        if not 0.0 <= self.global_scan_ratio <= 1.0:
            raise ValueError(
                f"global_scan_ratio must be in [0, 1], got {self.global_scan_ratio}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.off_rate < 0 or self.mean_on <= 0 or self.mean_off < 0:
            raise ValueError("off_rate/mean_on/mean_off out of range")


class ZipfKeys:
    """Zipf(``theta``) sampler over ``keys`` ranked keys.

    The CDF is precomputed once (``O(keys)``) and each draw is one
    uniform plus a bisection — fast enough to generate millions of
    arrivals in seconds.  ``theta = 0`` is uniform; larger values
    concentrate traffic on the head keys (``k0000`` is the hottest).
    """

    __slots__ = ("names", "_cdf")

    def __init__(self, keys: int, theta: float) -> None:
        width = max(4, len(str(keys - 1)))
        self.names = [f"k{i:0{width}d}" for i in range(keys)]
        acc = 0.0
        cdf: list[float] = []
        for rank in range(1, keys + 1):
            acc += 1.0 / rank**theta
            cdf.append(acc)
        self._cdf = [c / acc for c in cdf]

    def draw(self, rng: SeededRng) -> str:
        return self.names[bisect_right(self._cdf, rng.random())]


def _mmpp_times(spec: WorkloadSpec, rng: SeededRng) -> Iterator[float]:
    """Arrival times of the on/off modulated Poisson process.

    State holding times and interarrivals are exponential; an arrival
    that would land past the current state's end is discarded and the
    clock jumps to the state boundary (the memoryless property makes
    this restart exact).  An OFF state with ``off_rate = 0`` simply
    advances the clock.
    """
    bursty = spec.mean_off > 0.0
    t = 0.0
    on = True
    state_end = t + (rng.expovariate(1.0 / spec.mean_on) if bursty else 0.0)
    while True:
        if not bursty:
            t += rng.expovariate(spec.rate)
            yield t
            continue
        rate = spec.rate if on else spec.off_rate
        if rate > 0.0:
            nxt = t + rng.expovariate(rate)
            if nxt < state_end:
                t = nxt
                yield t
                continue
        # no arrival before the state flips: jump to the boundary
        t = state_end
        on = not on
        mean = spec.mean_on if on else spec.mean_off
        state_end = t + rng.expovariate(1.0 / mean)


def generate_arrivals(spec: WorkloadSpec, seed: int) -> list[Arrival]:
    """The workload as a concrete arrival list — a pure function of
    ``(spec, seed)``.  Independent child streams drive times, keys,
    clients and the op mix, so changing one knob (e.g. ``read_ratio``)
    never perturbs the arrival clock (seed hygiene)."""
    rng = SeededRng(seed).child("shard-workload")
    t_rng = rng.child("times")
    key_rng = rng.child("keys")
    client_rng = rng.child("clients")
    mix_rng = rng.child("mix")
    zipf = ZipfKeys(spec.keys, spec.zipf_theta)
    times = _mmpp_times(spec, t_rng)
    out: list[Arrival] = []
    for index in range(spec.ops):
        t = next(times)
        client = client_rng.randint(0, spec.clients - 1)
        if mix_rng.random() < spec.read_ratio:
            if mix_rng.random() < spec.global_scan_ratio:
                out.append(Arrival(index, t, client, GLOBAL_SCAN, ""))
            else:
                out.append(Arrival(index, t, client, SCAN, zipf.draw(key_rng)))
        else:
            out.append(Arrival(index, t, client, UPDATE, zipf.draw(key_rng)))
    return out


__all__ = [
    "GLOBAL_SCAN",
    "SCAN",
    "UPDATE",
    "Arrival",
    "WorkloadSpec",
    "ZipfKeys",
    "generate_arrivals",
]

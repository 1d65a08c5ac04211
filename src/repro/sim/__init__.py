"""Deterministic discrete-event simulation kernel.

This package is the "outside observer" of the paper's timing model
(Sec. II-A): algorithms never read the clock, but the kernel timestamps
every invocation, response and delivery so that the harness can measure
operation latency in units of the maximum message delay ``D``.

The kernel is deliberately small and fully deterministic:

- events fire in (time, sequence-number) order — at one time, in push
  order — so two runs with the same seed produce byte-identical traces;
- a kernel is two members, ``now`` and ``queue.push_call``; the
  simulator adds one validated entry, ``schedule_call_at``;
- there is no wall-clock anywhere — "time" is a float owned by the kernel;
- randomness is funnelled through :class:`repro.sim.rng.SeededRng` so every
  experiment is replayable from its seed.
"""

from repro.sim.events import EventQueue
from repro.sim.fastpath import STATS, SubstrateStats
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import SeededRng, derive_seed

__all__ = [
    "EventQueue",
    "STATS",
    "SubstrateStats",
    "SimulationError",
    "Simulator",
    "SeededRng",
    "derive_seed",
]

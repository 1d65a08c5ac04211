"""A deterministic budget on the per-message send/deliver path.

Wall-clock benchmarks notice an extra frame on the delivery path only
through noise; a count of Python-level calls repeats exactly.  One fixed
jittered EQ-ASO episode (n = 7, f = 3, ``UniformDelay(0.1D..D)``, the
shape of the ledger's ``des_jitter_n21`` at a size tier-1 can afford) is
run under ``sys.setprofile`` and the Python function calls made while
the simulation runs are divided by the messages it delivered.

Recorded on CPython 3.11 (65 195 calls / 3 476 messages): **18.76**
calls per delivered message with the
typed handler table, the bound delay sampler and the single kernel loop
(PR 16); **25.16** at the commit before (``match`` ladders behind
``_handle_tag_message``, ``delay_for → sample → SeededRng.uniform →
Random.uniform``, ``_execute`` + ``__bool__`` per event,
``OpDriver.poll``).  The ceiling sits just above the current value: a
frame creeping back into the path costs about one call per message and
fails here.  (3.12 inlines comprehensions, so it can only count lower.)

The asyncio runtime has the same budget beside it: one fixed
``mean_delay=0`` episode (n = 5, f = 2, 5 clients × 12 ops — the shape
of the ledger's ``aio_closed_n5``), every Python call made while the
loop runs it — asyncio's own frames included — divided by the messages
sent.  Recorded on CPython 3.11: **17.35** (53 011 calls / 3 055
messages) with the loop-paced kernel under the shared ``Network``
(PR 18); **50.66** (153 750 / 3 035) at the commit before (a
``Queue.get`` future, a ``sleep(0)``, two ``async with lock`` round trips
and a client wake-up per message).  At zero delay the schedule is a
function of the seed, so this count repeats exactly too.
"""

import asyncio
import gc
import sys

from repro.core import EqAso, messages
from repro.net.delays import UniformDelay
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng

CEILING = 19.2  # calls per delivered message; see the module docstring
AIO_CEILING = 17.8  # calls per sent message on the asyncio runtime


def _episode():
    n, f = 7, 3
    rng = SeededRng(16)
    kinds = ["scan", "update"] * 21
    rng.child("mix").shuffle(kinds)
    cluster = Cluster(
        EqAso,
        n=n,
        f=f,
        delay_model=UniformDelay(1.0, rng.child("delay"), lo=0.1, hi=1.0),
    )
    handles = []
    for node in range(n):
        ops = [
            ("scan", ()) if kind == "scan" else ("update", (f"v{node}.{i}",))
            for i, kind in enumerate(kinds[node * 6 : node * 6 + 6])
        ]
        handles += cluster.chain_ops(node, ops)
    return cluster, handles


def _count_calls(run, arg) -> int:
    """Python-level calls made by ``run(arg)``."""
    # the one process-wide state the path reads: an intern miss runs the
    # dataclass ``__init__``, a hit does not, so start every count cold
    messages._intern.clear()
    # ... and finalizers of an earlier test's garbage (an event loop's
    # ``__del__``, say) must not run, and be counted, inside this one
    gc.collect()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run(arg)
    finally:
        sys.setprofile(previous)
    return calls


def _python_calls_per_message() -> tuple[int, int]:
    cluster, handles = _episode()
    calls = _count_calls(cluster.run_until_complete, handles)
    assert all(h.done for h in handles)
    return calls, cluster.network.messages_delivered


def test_calls_per_delivered_message_stay_under_the_ceiling():
    calls, delivered = _python_calls_per_message()
    assert delivered > 3000  # the episode is message-bound, as intended
    per_message = calls / delivered
    assert per_message <= CEILING, (
        f"{per_message:.2f} Python calls per delivered message "
        f"({calls} calls / {delivered} messages) exceeds {CEILING}"
    )


def test_the_count_repeats_exactly():
    assert _python_calls_per_message() == _python_calls_per_message()


# -- the asyncio runtime ---------------------------------------------------


def _aio_python_calls_per_message() -> tuple[int, int]:
    n, f = 5, 2
    kinds = ["scan", "update"] * 30
    SeededRng(18).child("mix").shuffle(kinds)
    clusters = []

    async def episode():
        cluster = AioCluster(EqAso, n, f, mean_delay=0.0, seed=18)
        clusters.append(cluster)
        await cluster.start()

        async def client(node):
            for i, kind in enumerate(kinds[node * 12 : node * 12 + 12]):
                args = () if kind == "scan" else (f"v{node}.{i}",)
                await cluster.call(node, kind, *args)

        await asyncio.gather(*(client(node) for node in range(n)))
        await cluster.shutdown()

    loop = asyncio.new_event_loop()
    try:
        # no ``wait_for`` around it: its timer would be counted too
        calls = _count_calls(loop.run_until_complete, episode())
    finally:
        loop.close()
    (cluster,) = clusters
    assert sum(op.complete for op in cluster.history.ops) == 60
    return calls, cluster.network.messages_sent


def test_aio_calls_per_sent_message_stay_under_the_ceiling():
    calls, sent = _aio_python_calls_per_message()
    assert sent > 2500
    per_message = calls / sent
    assert per_message <= AIO_CEILING, (
        f"{per_message:.2f} Python calls per sent message "
        f"({calls} calls / {sent} messages) exceeds {AIO_CEILING}"
    )


def test_the_aio_count_repeats_exactly():
    assert _aio_python_calls_per_message() == _aio_python_calls_per_message()

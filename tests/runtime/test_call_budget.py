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
"""

import sys

from repro.core import EqAso, messages
from repro.net.delays import UniformDelay
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng

CEILING = 19.2  # calls per delivered message; see the module docstring


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


def _python_calls_per_message() -> tuple[int, int]:
    cluster, handles = _episode()
    # the one process-wide state the path reads: an intern miss runs the
    # dataclass ``__init__``, a hit does not, so start every count cold
    messages._intern.clear()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        cluster.run_until_complete(handles)
    finally:
        sys.setprofile(previous)
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

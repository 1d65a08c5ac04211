"""A deterministic budget on the per-message send/deliver path.

Wall-clock benchmarks notice an extra frame on the delivery path only
through noise; a count of Python-level calls repeats exactly.  One fixed
jittered EQ-ASO episode (n = 7, f = 3, ``UniformDelay(0.1D..D)``, the
shape of the ledger's ``des_jitter_n21`` at a size tier-1 can afford) is
run under ``sys.setprofile`` and the Python function calls made while
the simulation runs are divided by the messages it delivered.  The
episodes and the counting live in ``tests/support/call_breakdown.py``;
``python -m tests.support.call_breakdown [des|aio]`` prints the count
per function, which is where a pass over this path starts.

Recorded on CPython 3.11 (45 847 calls / 3 476 messages): **13.19**
calls per delivered message.  The history of that number:

- **25.16** — ``match`` ladders behind ``_handle_tag_message``,
  ``delay_for → sample → SeededRng.uniform → Random.uniform``,
  ``_execute`` + ``__bool__`` per event, ``OpDriver.poll``;
- **18.76** (65 195 calls; PR 16) — the typed handler table, the bound
  delay sampler and the single kernel loop;
- **13.26** (PR 21) — the path stopped asking again what it already
  knew.  Per function, calls per delivered message, before → after:

  ====================================================  ======  =====
  ``CrashPlan.is_crashed`` (now ``dst in crashed``)       1.70      0
  ``ValueTs.__hash__`` (three probes per value → one)     1.02   0.35
  ``Event.__init__`` (now one list display per push)      1.02      0
  ``run_until_complete``'s ``settled()`` poll per event   1.01      0
  ``ViewVector.add`` ×2 → ``ViewVector.learn``            0.59   0.30
  ``ValueInterner.intern`` (twice per value → once)       0.59   0.30
  ``Simulator.now`` (a property → an attribute)           0.38      0
  ``EventQueue._advance`` (inlined into ``pop``)          0.11      0
  ``_MsgMeta.__call__`` (a forward re-sends the message)  0.36   0.32
  everything else                                        11.98  11.99
  ====================================================  ======  =====

- **13.19** — the per-node op FIFO replaced ``chain_ops``' per-link
  closures, callback and end-of-chain event (per op, not per message).

The ceiling sits just above the current value: a frame creeping back
into the path costs about one call per message and fails here.  (3.12
inlines comprehensions, so it can only count lower.)

The asyncio runtime has the same budget beside it: one fixed
``mean_delay=0`` episode (n = 5, f = 2, 5 clients × 12 ops — the shape
of the ledger's ``aio_closed_n5``), every Python call made while the
loop runs it — asyncio's own frames included — divided by the messages
sent.  Recorded on CPython 3.11: **13.66** (41 738 calls / 3 055
messages) now — 13.58 (41 495) before ``call()`` went through the
per-node op FIFO (an arrival, a pump, a guarded begin and an idle hook
per op); **17.35** (53 011) with the loop-paced kernel under the
shared ``Network`` (PR 18) — the same cuts through ``BaseCluster``:
``is_crashed`` 1.81 → 0, ``ValueTs.__hash__`` 0.89 → 0.31,
``ViewVector.add`` + ``intern`` 0.98 → 0.50, ``Event.__init__`` 0.44 →
0, ``EventQueue._advance`` 0.44 → 0; **50.66** (153 750 / 3 035) at
the commit before that (a ``Queue.get`` future, a ``sleep(0)``, two
``async with lock`` round trips and a client wake-up per message).  At
zero delay the schedule is a function of the seed, so this count
repeats exactly too.
"""

from tests.support.call_breakdown import aio_episode, des_episode

CEILING = 13.7  # calls per delivered message; see the module docstring
AIO_CEILING = 14.0  # calls per sent message on the asyncio runtime


def _python_calls_per_message() -> tuple[int, int]:
    calls, delivered = des_episode()
    return sum(calls.values()), delivered


def test_calls_per_delivered_message_stay_under_the_ceiling():
    calls, delivered = _python_calls_per_message()
    assert delivered > 3000  # the episode is message-bound, as intended
    per_message = calls / delivered
    assert per_message <= CEILING, (
        f"{per_message:.2f} Python calls per delivered message "
        f"({calls} calls / {delivered} messages) exceeds {CEILING}"
    )


def test_the_count_repeats_exactly():
    assert des_episode() == des_episode()


# -- the asyncio runtime ---------------------------------------------------


def _aio_python_calls_per_message() -> tuple[int, int]:
    calls, sent = aio_episode()
    return sum(calls.values()), sent


def test_aio_calls_per_sent_message_stay_under_the_ceiling():
    calls, sent = _aio_python_calls_per_message()
    assert sent > 2500
    per_message = calls / sent
    assert per_message <= AIO_CEILING, (
        f"{per_message:.2f} Python calls per sent message "
        f"({calls} calls / {sent} messages) exceeds {AIO_CEILING}"
    )


def test_the_aio_count_repeats_exactly():
    assert aio_episode() == aio_episode()

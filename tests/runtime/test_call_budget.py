"""A deterministic budget on the per-message send/deliver path.

Wall-clock benchmarks notice an extra frame on the delivery path only
through noise; a count of Python-level calls repeats exactly.  One fixed
jittered EQ-ASO episode (n = 7, f = 3, ``UniformDelay(0.1D..D)``, the
shape of the ledger's ``des_jitter_n21`` at a size tier-1 can afford) is
run under ``sys.setprofile`` and the Python function calls made while
the simulation runs are divided by the messages it delivered.  The
episodes and the counting live in ``tests/support/call_breakdown.py``;
``python -m tests.support.call_breakdown [des|aio|lockstep]`` prints the
count per function, which is where a pass over this path starts.

Recorded on CPython 3.11 (28 181 calls / 3 476 messages): **8.11**
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
  closures, callback and end-of-chain event (per op, not per message);
- **8.36** — one frame from the kernel to the handler: the delivery
  event is the call ``BaseCluster._deliver(src, dsts, payload,
  sent_at)``, which drops, counts and calls the handler-table entry
  itself; a quorum round's wait is tested as ``len(replies) >= need``.
  Per function, calls per message before → after, on the three pinned
  episodes (DES jitter / asyncio, per sent message / DES lockstep):

  ===================================================  =====================  ===================
  ``EventQueue.pop`` (inlined in ``Simulator._loop``)     1.01 / 0.44 / 0.62         0 / 0.44 / 0
  ``Network._arrive`` + ``_arrive_batch``                 1.00 / 0.42 / 0.59            0 / 0 / 0
  ``ProtocolNode.on_message`` (the table, directly)       1.00 / 1.00 / 1.00            0 / 0 / 0
  ``quorum_round``'s predicate lambda                     0.96 / 0.94 / 0.93            0 / 0 / 0
  ``UniformDelay.sample`` (drawn inline)                        0.86 / 0 / 0            0 / 0 / 0
  ``BaseCluster._deliver`` (one call per event)           1.00 / 1.00 / 1.00   1.00 / 0.41 / 0.59
  everything else                                         7.36 / 9.88 / 8.26   7.36 / 9.88 / 8.26
  total                                                13.19 / 13.66 / 12.39  8.36 / 10.73 / 8.85
  ===================================================  =====================  ===================

- **8.11** — an outbox entry is the plain tuple ``(payload, dst)`` or
  ``(payload, dests)`` that ``OpDriver.flush`` unpacks, not a
  ``_Send``/``_Broadcast`` dataclass whose generated ``__init__`` was a
  frame per send or broadcast; and one ``Network._post`` holds the
  delay, bound check, FIFO clamp and push for ``send``, ``broadcast``
  and ``reconnect`` (``Network._schedule`` is gone — a frame per send
  either way, and one more per broadcast).  Per function, same columns:

  ===================================================  =====================  ===================
  dataclass ``__init__`` (all classes)                    0.48 / 0.63 / 0.68   0.13 / 0.22 / 0.22
  ``Network._schedule``                                   0.25 / 0.27 / 0.32            0 / 0 / 0
  ``Network._post``                                             0 / 0 / 0    0.36 / 0.41 / 0.46
  everything else                                         7.63 / 9.83 / 7.85   7.62 / 9.83 / 7.85
  total                                                  8.36 / 10.73 / 8.85  8.11 / 10.46 / 8.53
  ===================================================  =====================  ===================

The ceiling sits just above the current value: a frame creeping back
into the path costs about one call per message and fails here.  (3.12
inlines comprehensions, so it can only count lower.)

The asyncio runtime has the same budget beside it: one fixed
``mean_delay=0`` episode (n = 5, f = 2, 5 clients × 12 ops — the shape
of the ledger's ``aio_closed_n5``), every Python call made while the
loop runs it — asyncio's own frames included — divided by the messages
sent.  Recorded on CPython 3.11: **10.46** (31 958 calls / 3 055
messages) now (the rows above); 10.73 (32 768) before the outbox
tuples; 13.66 (41 738) before that, 13.58
(41 495) before ``call()`` went through the
per-node op FIFO (an arrival, a pump, a guarded begin and an idle hook
per op); **17.35** (53 011) with the loop-paced kernel under the
shared ``Network`` — the same cuts through ``BaseCluster``:
``is_crashed`` 1.81 → 0, ``ValueTs.__hash__`` 0.89 → 0.31,
``ViewVector.add`` + ``intern`` 0.98 → 0.50, ``Event.__init__`` 0.44 →
0, ``EventQueue._advance`` 0.44 → 0; **50.66** (153 750 / 3 035) at
the commit before that (a ``Queue.get`` future, a ``sleep(0)``, two
``async with lock`` round trips and a client wake-up per message).  At
zero delay the schedule is a function of the seed, so this count
repeats exactly too.

The lockstep episode (``ConstantDelay(D)``, n = 5, f = 2, 80 % scans —
the shape of the ledger's ``des_scan_heavy``) pins the other delivery
shape: every broadcast is one batched delivery event, so its count is
per delivered message of a batch.  Recorded on CPython 3.11: **8.53**
(18 965 calls / 2 223 messages); 8.85 (19 675) before the outbox tuples;
12.39 (27 554) before the one-frame delivery.

Each ceiling is its recorded value + 0.4.
"""

from tests.support.call_breakdown import aio_episode, des_episode, lockstep_episode

CEILING = 8.51  # calls per delivered message; see the module docstring
AIO_CEILING = 10.86  # calls per sent message on the asyncio runtime
LOCKSTEP_CEILING = 8.93  # calls per delivered message, batched deliveries

#: the plumbing the delivery path no longer calls
GONE = (
    "EventQueue.pop",
    "Network._arrive",
    "ProtocolNode.on_message",
    "ProtocolNode.quorum_round.<locals>.<lambda>",
)


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


def test_the_kernel_calls_the_handler_through_one_frame():
    """The delivery event is ``BaseCluster._deliver`` itself, which calls
    the handler-table entry: no pop, network or dispatch frame between
    them, and no predicate call to test a quorum round's wait."""
    calls, delivered = des_episode()
    assert [name for name in GONE if name in calls] == []
    assert calls["BaseCluster._deliver"] == delivered  # one event each
    assert "UniformDelay.sample" not in calls  # drawn inline


# -- lockstep: the batched fan-out -----------------------------------------


def test_lockstep_calls_per_delivered_message_stay_under_the_ceiling():
    calls, delivered = lockstep_episode()
    assert delivered > 2000
    assert [name for name in GONE if name in calls] == []
    # a broadcast is one delivery event for all its remote destinations
    assert calls["BaseCluster._deliver"] < 0.7 * delivered
    per_message = sum(calls.values()) / delivered
    assert per_message <= LOCKSTEP_CEILING, (
        f"{per_message:.2f} Python calls per delivered message "
        f"({sum(calls.values())} calls / {delivered} messages) exceeds "
        f"{LOCKSTEP_CEILING}"
    )


def test_the_lockstep_count_repeats_exactly():
    assert lockstep_episode() == lockstep_episode()


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

"""A time-free scaling guard for the operation stream.

A crash-model DES run has no reason to ever build the frozenset a view
denotes: an UPDATE discards its renewal view, a SCAN extracts from it,
and everything a node stores (``goodLA`` records, ``good_views``, the
SSO's safe view) is a handle of its own interner.  So the run is made
with the handle's materialization point patched to raise, and its memory
must then grow linearly with the number of operations — when every
lattice operation copied everything written so far, the 2000-op peak was
9.5x the 500-op peak (measured with tracemalloc; 2.6x now, 4x is linear).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

from repro.core.eq_aso import EqAso
from repro.core.sso import SsoFastScan
from repro.core.views import ViewHandle
from repro.spec.order import order_check
from tests.support.stream_scale import run_stream

#: allowed peak(2000 ops) / peak(500 ops): linear growth is 4, with a
#: quarter of slack for allocator granularity across Python versions
ENVELOPE = 4 * 1.25


def _never_materialize():
    return mock.patch.object(
        ViewHandle,
        "_materialize",
        side_effect=AssertionError("a view was materialized in a plain DES run"),
    )


def _traced_peak(ops: int) -> int:
    tracemalloc.start()
    try:
        cluster = run_stream(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order_check(cluster.history, real_time=True).ok
    return peak


def test_eq_aso_stream_never_materializes_and_grows_linearly():
    with _never_materialize():
        small = _traced_peak(500)
        large = _traced_peak(2000)
    assert large <= ENVELOPE * small, (small, large, large / small)


def test_sso_fast_scan_stream_never_materializes():
    with _never_materialize():
        cluster = run_stream(500, factory=SsoFastScan)
    assert order_check(cluster.history, real_time=False).ok

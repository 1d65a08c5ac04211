"""Unit tests for the deterministic executor
(:mod:`repro.parallel.executor`), and the HDR bucketing property that lets
a ``--workers`` shard report equal the serial one."""

from __future__ import annotations

import pytest

from repro.obs.registry import HdrHistogram
from repro.parallel import WorkerCrash, run_tasks


# -- module-level workers: Pool.map pickles them by qualified name ------
def square(task: int) -> int:
    return task * task


def boom_on_odd(task: int) -> int:
    if task % 2:
        raise ValueError(f"task {task} exploded")
    return task


# -- result ordering ----------------------------------------------------
@pytest.mark.parametrize("workers", [1, 3])
def test_results_come_back_in_task_order(workers):
    assert run_tasks(square, range(7), workers=workers) == [
        i * i for i in range(7)
    ]


def test_empty_task_list_is_a_noop():
    assert run_tasks(square, [], workers=4) == []


def test_label_count_mismatch_is_rejected():
    with pytest.raises(ValueError, match="2 labels for 3 tasks"):
        run_tasks(square, [1, 2, 3], workers=1, labels=["a", "b"])


# -- failure semantics --------------------------------------------------
@pytest.mark.parametrize("workers", [1, 4])
def test_crash_names_the_lowest_indexed_failing_task(workers):
    tasks = [0, 2, 3, 5, 4]  # indices 2 and 3 raise
    labels = [f"unit-{t}" for t in tasks]
    with pytest.raises(WorkerCrash) as excinfo:
        run_tasks(boom_on_odd, tasks, workers=workers, labels=labels)
    assert excinfo.value.label == "unit-3"
    assert "ValueError: task 3 exploded" in excinfo.value.traceback_text


def test_crash_labels_default_to_task_indices():
    with pytest.raises(WorkerCrash) as excinfo:
        run_tasks(boom_on_odd, [0, 1], workers=1)
    assert excinfo.value.label == "1"


# -- HDR buckets do not depend on which shard came first ----------------
def test_hdr_histogram_buckets_ignore_observation_order():
    a, b = HdrHistogram("a"), HdrHistogram("b")
    a.observe_many((1.0, 2.0, 4.0, 8.0, 0.5))
    b.observe_many((8.0, 0.5, 1.0, 2.0, 4.0))
    assert a._buckets == b._buckets
    for hist in (a, b):
        assert hist.count == 5
        assert hist.minimum == 0.5
        assert hist.maximum == 8.0

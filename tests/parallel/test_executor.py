"""Unit tests for the deterministic executor
(:mod:`repro.parallel.executor`) and the HDR registry merge that makes a
``--workers`` shard report equal the serial one."""

from __future__ import annotations

import pytest

from repro.obs.registry import HdrHistogram, Registry
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


# -- Registry.merge on the HDR backend (shard reports) ------------------
def test_registry_merge_adds_counters_and_concatenates_histograms():
    a = Registry(histogram_factory=HdrHistogram)
    b = Registry(histogram_factory=HdrHistogram)
    a.counter("n").inc(2)
    b.counter("n").inc(3)
    b.counter("only_b").inc()
    for v in (1.0, 5.0):
        a.histogram("lat").observe(v)
    for v in (3.0, 2.0):
        b.histogram("lat").observe(v)
    a.merge(b)
    assert a.counters["n"].value == 5
    assert a.counters["only_b"].value == 1
    reference = HdrHistogram("lat")
    for v in (1.0, 5.0, 3.0, 2.0):
        reference.observe(v)
    assert a.histograms["lat"].summary() == reference.summary()
    assert a.histograms["lat"]._buckets == reference._buckets


def test_hdr_histogram_merge_adds_buckets():
    a, b = HdrHistogram("a"), HdrHistogram("b")
    for v in (1.0, 2.0, 4.0):
        a.observe(v)
    for v in (8.0, 0.5):
        b.observe(v)
    a.merge(b)
    assert a.count == 5
    assert a.minimum == 0.5
    assert a.maximum == 8.0

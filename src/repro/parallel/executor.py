"""Deterministic multiprocessing executor for embarrassingly parallel
seed sweeps (chaos campaigns, bench measurements).

**The determinism contract.**  A sweep is a list of *tasks*, each fully
described by picklable data that includes its own derived seed
(:func:`repro.sim.rng.derive_seed` makes the i-th unit's random stream a
pure function of ``(master_seed, ..., i)``, never of execution order).
Workers therefore compute the identical result for a task no matter
which process runs it or when, and the parent assembles results in task
order — so the merged output is byte-identical to a serial run, which
``tests/parallel`` assert literally.  No RNG state and no simulator
object ever crosses the process boundary: only the task descriptions go
out, and only plain result records come back.

**Failure.**  A task that raises is captured in the child (label plus
formatted traceback) and re-raised in the parent as :class:`WorkerCrash`
for the *lowest-indexed* failing task — again independent of worker
scheduling.  Remaining tasks still run to completion; a sweep's outcome
never depends on which worker happened to die first.

The pool uses the ``fork`` start method: workers inherit the parent's
imported modules (no re-import races) and module state patched in the
parent — a test's substituted collaborator — is the same in the child.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Callable, Sequence


class WorkerCrash(RuntimeError):
    """A sweep task raised in a worker; carries the child's traceback.

    ``label`` names the failing unit in sweep terms (algorithm, campaign
    index, seed) so the parent CLI can surface a one-line repro command.
    """

    def __init__(self, label: str, traceback_text: str) -> None:
        super().__init__(f"worker task [{label}] crashed:\n{traceback_text}")
        self.label = label
        self.traceback_text = traceback_text


def _invoke(worker: Callable[[Any], Any], label: str, task: Any) -> tuple[Any, ...]:
    """Run one task.

    Returns ``("ok", result)`` or ``("err", label, traceback_text)`` —
    exceptions are data here, so a pool worker never dies and the parent
    controls failure ordering.
    """
    try:
        return ("ok", worker(task))
    except Exception:
        return ("err", label, traceback.format_exc())


class _PoolTask:
    """Picklable closure: binds the worker function for ``Pool.map``."""

    __slots__ = ("worker",)

    def __init__(self, worker: Callable[[Any], Any]) -> None:
        self.worker = worker

    def __call__(self, item: tuple[str, Any]) -> tuple[Any, ...]:
        label, task = item
        return _invoke(self.worker, label, task)


def run_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int,
    labels: Sequence[str] | None = None,
) -> list[Any]:
    """Run ``worker(task)`` for every task; results in task order.

    Args:
        worker: a module-level (picklable) function of one task.
        tasks: picklable task descriptions, each carrying its own seed.
        workers: process count; ``<= 1`` runs in-process with identical
            semantics (same failure ordering).
        labels: per-task names for :class:`WorkerCrash` (default: the
            task index).

    Raises:
        WorkerCrash: for the lowest-indexed failing task, after every
            task has run.
    """
    items = list(tasks)
    names = [str(i) for i in range(len(items))] if labels is None else list(labels)
    if len(names) != len(items):
        raise ValueError(f"{len(names)} labels for {len(items)} tasks")
    if not items:
        return []
    if workers <= 1:
        outcomes = [
            _invoke(worker, label, task) for label, task in zip(names, items)
        ]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, len(items))) as pool:
            outcomes = pool.map(
                _PoolTask(worker), list(zip(names, items)), chunksize=1
            )
    for outcome in outcomes:
        if outcome[0] == "err":
            raise WorkerCrash(outcome[1], outcome[2])
    return [outcome[1] for outcome in outcomes]


__all__ = ["WorkerCrash", "run_tasks"]

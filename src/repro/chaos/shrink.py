"""Counterexample shrinking — delta debugging over chaos plans.

Given a failing plan, greedily apply structure-removing moves and keep
any reduction that still fails (any failure kind counts — a liveness
failure that simplifies into an atomicity failure is still a bug, and
accepting the switch shrinks further).  Moves, in order:

1. flatten the delay adversary to the lockstep constant-D schedule;
2. drop Byzantine behaviours, one node at a time;
3. drop crash specs one at a time; failure chains are also truncated
   from the head (a shorter chain is a strictly simpler adversary);
4. drop whole per-node op chains;
5. drop single ops (scanning each chain back-to-front);
6. normalize timing (zero gaps, then zero starts).

Every trial is a fresh deterministic execution of a candidate plan, so
the shrink itself is replayable: the same failing plan always shrinks to
the same minimal plan.  The execution budget bounds total work; on
exhaustion the best-so-far plan is returned (still failing, just maybe
not minimal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.chaos.plan import ChainCrashSpec, ChaosPlan, DelaySpec
from repro.chaos.runner import ExecutionResult, run_plan


@dataclass(slots=True)
class ShrinkResult:
    """Outcome of shrinking one failing plan."""

    plan: ChaosPlan  #: the minimal failing plan
    result: ExecutionResult  #: its (failing) execution
    executions: int  #: trials spent
    moves: list[str]  #: accepted reductions, in order


def _candidates(plan: ChaosPlan) -> Iterator[tuple[str, ChaosPlan]]:
    """All single-step reductions of ``plan``, most structural first."""
    if plan.delay.kind != "constant":
        yield "flatten-delay", replace(plan, delay=DelaySpec())
    for i, spec in enumerate(plan.byzantine):
        rest = plan.byzantine[:i] + plan.byzantine[i + 1 :]
        yield f"drop-byz:{spec.node}", replace(plan, byzantine=rest)
    for i, spec in enumerate(plan.crashes):
        rest = plan.crashes[:i] + plan.crashes[i + 1 :]
        yield f"drop-crash:{i}", replace(plan, crashes=rest)
        if isinstance(spec, ChainCrashSpec) and len(spec.chain) > 2:
            shorter = plan.crashes[:i] + (
                ChainCrashSpec(spec.chain[1:]),
            ) + plan.crashes[i + 1 :]
            yield f"truncate-chain:{i}", replace(plan, crashes=shorter)
    for i, chain in enumerate(plan.workload):
        rest = plan.workload[:i] + plan.workload[i + 1 :]
        yield f"drop-chain:{chain.node}", replace(plan, workload=rest)
    for i, chain in enumerate(plan.workload):
        if len(chain.ops) <= 1:
            continue  # dropping the last op == dropping the chain (above)
        for j in range(len(chain.ops) - 1, -1, -1):
            ops = chain.ops[:j] + chain.ops[j + 1 :]
            smaller = plan.workload[:i] + (
                replace(chain, ops=ops),
            ) + plan.workload[i + 1 :]
            yield f"drop-op:{chain.node}.{j}", replace(plan, workload=smaller)
    for i, chain in enumerate(plan.workload):
        if chain.gap != 0.0:
            flat = plan.workload[:i] + (
                replace(chain, gap=0.0),
            ) + plan.workload[i + 1 :]
            yield f"zero-gap:{chain.node}", replace(plan, workload=flat)
    for i, chain in enumerate(plan.workload):
        if chain.start != 0.0:
            flat = plan.workload[:i] + (
                replace(chain, start=0.0),
            ) + plan.workload[i + 1 :]
            yield f"zero-start:{chain.node}", replace(plan, workload=flat)


def shrink_plan(
    plan: ChaosPlan,
    failing: ExecutionResult,
    *,
    max_executions: int,
) -> ShrinkResult:
    """Greedily minimize ``plan`` while it keeps failing.

    ``failing`` is the original failing execution (so a zero-budget call
    still returns a valid result).  Runs to a fixpoint: one pass tries
    every candidate against the current plan; any accepted reduction
    restarts the pass, and the shrink ends when a full pass accepts
    nothing (or the budget runs out).
    """
    current = plan
    current_result = failing
    executions = 0
    moves: list[str] = []
    progress = True
    while progress and executions < max_executions:
        progress = False
        for move, candidate in _candidates(current):
            if executions >= max_executions:
                break
            trial = run_plan(candidate)
            executions += 1
            if trial.failure is not None:
                current = candidate
                current_result = trial
                moves.append(move)
                progress = True
                break  # restart candidate enumeration on the smaller plan
    return ShrinkResult(
        plan=current, result=current_result, executions=executions, moves=moves
    )


__all__ = ["ShrinkResult", "shrink_plan"]

"""Chaos campaigns: seed-swept adversarial schedules with online
atomicity checking and counterexample shrinking.

The standing robustness loop over the whole stack:

1. :mod:`repro.chaos.gen` draws random adversarial executions — crash
   plans mixing timed halts, Definition-11 mid-broadcast truncations and
   failure chains, three delay adversaries, Byzantine behaviours
   (including equivocation) where the algorithm supports them, and
   randomized concurrent UPDATE/SCAN workloads — as pure-data
   :class:`~repro.chaos.plan.ChaosPlan` values;
2. :mod:`repro.chaos.runner` executes a plan against any registered
   algorithm and checks the recorded history with the exact polynomial
   checkers (cross-validated against the brute-force reference on small
   histories);
3. :mod:`repro.chaos.shrink` delta-debugs a failing plan down to a
   minimal failing seed, and :mod:`repro.chaos.export` writes the
   replayable counterexample bundle (plan + history + obs trace);
4. :mod:`repro.chaos.campaign` sweeps derived seeds per algorithm and
   writes the campaign report (``report.json``).

CLI: ``python -m repro.chaos --algo all --seeds 25``  (see ``--help``).
The package re-exports nothing: import from the submodules.  The
whole-shard crash campaign is :mod:`repro.shard.chaos`.
"""

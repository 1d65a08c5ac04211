"""Experiment harness — regenerates every table and figure of the paper.

The experiments are the rows of :data:`repro.harness.registry.EXPERIMENTS`
(DESIGN.md §5, results in EXPERIMENTS.md); run
``python -m repro.harness [experiment ...]`` to print them.
"""

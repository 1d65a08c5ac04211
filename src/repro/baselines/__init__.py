"""Baseline snapshot-object algorithms — the other rows of Table I.

Each baseline is implemented from scratch against the same sans-io node
API as EQ-ASO, returns the same :class:`repro.core.tags.Snapshot` type,
records into the same history, and is validated by the same Theorem 1
checkers.  Their *measured* latency shapes reproduce the paper's
complexity table:

==============================  ==============  ==============
algorithm                       UPDATE          SCAN
==============================  ==============  ==============
:class:`DelporteAso` [19]       ``O(D)``        ``O(n·D)``
:class:`StoreCollectAso` [12]   ``O(n·D)``      ``O(n·D)``
:class:`ScdAso` [29]            ``O(k·D)``      ``O(k·D)``
:class:`LatticeAso` [41,42]     ``O(log n·D)``  ``O(log n·D)``
==============================  ==============  ==============

Post-2022 contenders (the head-to-head rows of the
``contender_latency`` bench; reconstructions, see each module's
docstring):

==============================  ==============  ==============
:class:`BfkAso` [BFK24]         ``O(D)``        ``O(c·D)``†
:class:`ImprRegisterAso` [16]   ``O(D)``        ``O(c·D)``
==============================  ==============  ==============

† the borrow targets scan storms, which no experiment here reaches
(EXPERIMENTS.md, Table I †).  Delporte, BFK and IMPR share one segment
array (:mod:`repro.baselines.register_array`).
"""

from repro.baselines.bfk import BfkAso
from repro.baselines.delporte import DelporteAso
from repro.baselines.impr import ImprRegisterAso
from repro.baselines.store_collect import StoreCollectAso, StoreCollectObject
from repro.baselines.scd_broadcast import ScdAso, ScdBroadcastNode
from repro.baselines.la_based import ClassifierLA, LatticeAso

__all__ = [
    "BfkAso",
    "DelporteAso",
    "ImprRegisterAso",
    "StoreCollectAso",
    "StoreCollectObject",
    "ScdAso",
    "ScdBroadcastNode",
    "ClassifierLA",
    "LatticeAso",
]

"""The plan loader against mutated JSON: every document either loads
into a plan that runs, or is rejected with one ``ValueError``."""

from __future__ import annotations

import copy
import json
from functools import reduce
from operator import getitem
from typing import Any, Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import run_plan

#: a valid plan that uses every field and every crash kind
VALID: dict[str, Any] = {
    "algo": "byz_aso",
    "n": 7,
    "f": 2,
    "seed": 3,
    "delay": {"kind": "targeted", "lo": 0.2, "slow_sources": [1, 2]},
    "crashes": [
        {"type": "timed", "node": 1, "time": 2.5},
        {"type": "bcast", "node": 2, "deliver_to": [3], "nth": 2},
        {"type": "chain", "chain": [3, 4, 5]},
    ],
    "workload": [
        {"node": 5, "ops": [["update", "a"], ["scan", None]], "start": 1.0, "gap": 0.5},
        {"node": 6, "ops": [["scan", None]]},
    ],
    "byzantine": [{"node": 0, "behaviour": "equivocator"}],
}

#: JSON values; numbers stay near the plan's node ids and times, so a
#: mutation can land inside the valid range as well as outside it
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.floats(-1.0, 9.0)
    | st.sampled_from(["", "x", "scan", "update", "chain", "uniform", "doomed", "silent"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc: Any, prefix: tuple = ()) -> Iterator[tuple]:
    if isinstance(doc, dict):
        items: Any = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


@st.composite
def mutated_plans(draw: Any) -> Any:
    """``VALID`` with one to three values replaced or keys deleted."""
    doc = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = reduce(getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return json.loads(json.dumps(doc))


def test_the_unmutated_plan_loads_round_trips_and_runs():
    plan = ChaosPlan.from_dict(VALID)
    assert ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    run_plan(plan)


@settings(max_examples=100, deadline=None)
@given(mutated_plans())
def test_a_mutated_plan_is_rejected_or_runs(doc):
    try:
        plan = ChaosPlan.from_dict(doc)
    except ValueError:
        return
    run_plan(plan)

"""Public API surface tests."""

import importlib

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_docstring_example():
    from repro import Cluster, EqAso

    cluster = Cluster(EqAso, n=5, f=2)
    handles = cluster.run_ops(
        [
            (0.0, 0, "update", ("hello",)),
            (5.0, 1, "scan", ()),
        ]
    )
    assert handles[1].result.values == ("hello", None, None, None, None)


def test_subpackages_importable():
    for mod in (
        "repro.sim",
        "repro.net",
        "repro.net.rbc",
        "repro.net.byzantine",
        "repro.runtime",
        "repro.runtime.aio",
        "repro.spec",
        "repro.core",
        "repro.baselines",
        "repro.harness",
        "repro.harness.table1",
        "repro.harness.figures",
        "repro.harness.scaling",
        "repro.harness.byzantine",
        "repro.harness.ablations",
    ):
        importlib.import_module(mod)


def test_module_docstrings_present():
    """Every public module documents itself (documentation deliverable)."""
    for mod in (
        "repro",
        "repro.sim.kernel",
        "repro.net.network",
        "repro.runtime.cluster",
        "repro.spec.order",
        "repro.core.eq_aso",
        "repro.core.sso",
        "repro.core.byz_aso",
        "repro.baselines.delporte",
        "repro.baselines.scd_broadcast",
    ):
        m = importlib.import_module(mod)
        assert m.__doc__ and len(m.__doc__) > 60, mod


def test_one_substrate_no_selection_surface():
    """There is one queue, one network send path, one view
    representation: nothing public selects an implementation."""
    import inspect

    import repro.sim
    import repro.sim.fastpath as fastpath
    from repro.net.network import Network
    from repro.sim.kernel import Simulator

    assert set(repro.sim.__all__) == {
        "EventQueue",
        "STATS",
        "SubstrateStats",
        "SimulationError",
        "Simulator",
        "SeededRng",
        "derive_seed",
    }
    assert fastpath.__all__ == ["STATS", "SubstrateStats"]
    assert list(inspect.signature(Simulator.__init__).parameters) == [
        "self",
        "max_steps",
    ]
    assert "fast" not in inspect.signature(Network.__init__).parameters
    net = Network.__dict__
    # one delivery function for single and batched deliveries
    assert {"send", "broadcast", "_arrive"} <= set(net)
    assert "_arrive_batch" not in net
    assert not [name for name in net if name.endswith(("_fast", "_slow"))]

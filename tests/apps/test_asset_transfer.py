"""Tests for the asset-transfer object, including property-based supply
conservation over random transfer workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import AssetTransfer, InsufficientFunds, Transfer
from repro.baselines import DelporteAso, ScdAso
from repro.core import EqAso
from repro.runtime.cluster import Cluster


def make_bank(initial, n=None, algo=EqAso):
    n = n or len(initial)
    cluster = Cluster(algo, n=n, f=(n - 1) // 2)
    return cluster, [AssetTransfer(cluster, i, initial) for i in range(n)]


def test_basic_transfer_moves_money():
    _, wallets = make_bank([100, 0, 0])
    wallets[0].transfer(1, 30)
    assert wallets[2].balances() == (70, 30, 0)


def test_overdraft_rejected():
    _, wallets = make_bank([10, 0, 0])
    with pytest.raises(InsufficientFunds):
        wallets[0].transfer(1, 11)
    assert wallets[0].balances() == (10, 0, 0)


def test_spend_received_money():
    _, wallets = make_bank([50, 0, 0])
    wallets[0].transfer(1, 50)
    wallets[1].transfer(2, 50)  # money arrived, can be re-spent
    assert wallets[0].balances() == (0, 0, 50)


def test_self_transfer_rejected():
    _, wallets = make_bank([10, 0, 0])
    with pytest.raises(ValueError):
        wallets[0].transfer(0, 1)


def test_transfer_record_validation():
    with pytest.raises(ValueError):
        Transfer(0, 1, 0, 1)  # zero amount
    with pytest.raises(ValueError):
        Transfer(0, 1, -5, 1)


def test_initial_balance_validation():
    cluster = Cluster(EqAso, n=3, f=1)
    with pytest.raises(ValueError):
        AssetTransfer(cluster, 0, [10, 20])  # wrong length
    with pytest.raises(ValueError):
        AssetTransfer(cluster, 0, [10, -1, 0])


def test_crashed_sender_cannot_double_spend():
    """A transfer that completed before the crash is durable; the crashed
    node's money does not reappear elsewhere."""
    from repro.net.faults import CrashAtTime, CrashPlan

    cluster = Cluster(
        EqAso, n=3, f=1, crash_plan=CrashPlan({0: CrashAtTime(100.0)})
    )
    wallets = [AssetTransfer(cluster, i, [40, 0, 0]) for i in range(3)]
    wallets[0].transfer(1, 25)
    cluster.run(until=101.0)
    assert wallets[2].balances() == (15, 25, 0)
    assert sum(wallets[2].balances()) == 40


@settings(max_examples=10, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # src
            st.integers(min_value=0, max_value=2),  # dst
            st.integers(min_value=1, max_value=60),  # amount
        ),
        max_size=8,
    )
)
def test_supply_conserved_and_no_overdraft(transfers):
    initial = [50, 30, 20]
    # the object is substrate-agnostic: any atomic snapshot will do
    for algo in (EqAso, DelporteAso, ScdAso):
        _, wallets = make_bank(initial, algo=algo)
        for src, dst, amount in transfers:
            if src == dst:
                continue
            try:
                wallets[src].transfer(dst, amount)
            except InsufficientFunds:
                pass
        balances = wallets[0].balances()
        assert sum(balances) == sum(initial), algo.__name__
        assert all(b >= 0 for b in balances), algo.__name__

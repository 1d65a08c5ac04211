"""Unit tests for delay models, and for the one place their draws are
checked: the network's send path (``Network.send`` / ``Network.broadcast``)."""

import math
import random  # lint: ignore[RL001] — the reference stream the flattened sampler must equal

import pytest

from repro.net.delays import AdversarialDelay, ConstantDelay, DelayModel, UniformDelay
from repro.net.faults import CrashPlan
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng


def _delivery_delay(model, src, dst, payload, *, via="send"):
    """Delay one message experiences through a real network."""
    sim = Simulator()
    arrivals = []
    net = Network(
        sim, 4, model, CrashPlan.none(), lambda d, s, p: arrivals.append(sim.now)
    )
    if via == "send":
        net.send(src, dst, payload)
    else:
        net.broadcast(src, payload, (dst,))
    sim.run()
    (delay,) = arrivals
    return delay


def test_constant_defaults_to_D():
    m = ConstantDelay(2.0)
    assert m.sample(0, 1, "msg", 0.0) == 2.0
    assert _delivery_delay(m, 0, 1, "msg") == 2.0


def test_constant_custom_delay():
    m = ConstantDelay(2.0, delay=0.5)
    assert m.sample(0, 1, "msg", 0.0) == 0.5
    assert _delivery_delay(m, 0, 1, "msg") == 0.5


def test_constant_out_of_range_rejected():
    with pytest.raises(ValueError):
        ConstantDelay(1.0, delay=1.5)
    with pytest.raises(ValueError):
        ConstantDelay(1.0, delay=-0.1)


def test_nonpositive_D_rejected():
    with pytest.raises(ValueError):
        ConstantDelay(0.0)


def test_self_messages_are_instant():
    never_asked = AdversarialDelay(1.0, lambda s, d, p, t: 1 / 0)
    for via in ("send", "broadcast"):
        assert _delivery_delay(ConstantDelay(1.0), 3, 3, "msg", via=via) == 0.0
        assert _delivery_delay(never_asked, 3, 3, "msg", via=via) == 0.0


def test_uniform_within_range():
    m = UniformDelay(1.0, SeededRng(1), lo=0.2, hi=0.8)
    for _ in range(200):
        d = m.sample(0, 1, None, 0.0)
        assert 0.2 <= d <= 0.8


@pytest.mark.parametrize("seed, lo, hi", [(1, 0.2, 0.8), (11, 0.1, 1.0), (2408, 0.0, 1.0)])
def test_uniform_draws_are_random_uniform_bit_for_bit(seed, lo, hi):
    """The flattened sampler is ``random.Random.uniform``'s own
    expression: same stream, same floats — which is what keeps every
    jittered fingerprint where it was."""
    m = UniformDelay(1.0, SeededRng(seed), lo=lo, hi=hi)
    reference = random.Random(seed)
    for _ in range(1000):
        assert m.sample(0, 1, None, 0.0) == reference.uniform(lo, hi)


def test_uniform_bad_range_rejected():
    with pytest.raises(ValueError):
        UniformDelay(1.0, SeededRng(1), lo=0.5, hi=0.2)
    with pytest.raises(ValueError):
        UniformDelay(1.0, SeededRng(1), lo=0.0, hi=2.0)


def test_adversarial_schedule_and_default():
    m = AdversarialDelay(
        1.0, lambda s, d, p, t: 0.25 if p == "slow" else None, default=0.75
    )
    assert _delivery_delay(m, 0, 1, "slow") == 0.25
    assert _delivery_delay(m, 0, 1, "other") == 0.75


def test_adversarial_out_of_bounds_detected():
    m = AdversarialDelay(1.0, lambda s, d, p, t: 5.0)
    with pytest.raises(ValueError, match="outside"):
        _delivery_delay(m, 0, 1, None)


@pytest.mark.parametrize("via", ["send", "broadcast"])
@pytest.mark.parametrize("bad", [-0.1, 1.0 + 1e-9, math.nan])
def test_every_out_of_range_draw_is_rejected_on_both_send_paths(via, bad):
    m = AdversarialDelay(1.0, lambda s, d, p, t: bad)
    with pytest.raises(ValueError, match="outside"):
        _delivery_delay(m, 0, 1, None, via=via)


def test_delay_model_enforces_bound_on_subclasses():
    class Bad(DelayModel):
        def sample(self, src, dst, payload, now):
            return self.D * 2

    for via in ("send", "broadcast"):
        with pytest.raises(ValueError):
            _delivery_delay(Bad(1.0), 0, 1, None, via=via)

import numpy as np
import pytest

from netentropy import channel
from netentropy.channel import ChannelParams

# the operating point used throughout the numerical experiments
PAPER_PARAMS = ChannelParams(r0=0.7, eta=2.0, nu=500.0, B=12e6)


@pytest.fixture
def paper_params():
    return PAPER_PARAMS


@pytest.fixture
def rng():
    return np.random.default_rng(20250807)


@pytest.fixture
def uniform_points(rng):
    """Test-local sampler: ``draw(domain, n)`` gives n uniform points of the
    domain from the ``rng`` fixture, through the library's point map."""
    def draw(domain, n):
        return domain.points_from_uniforms(rng.random(n), rng.random(n))
    return draw


@pytest.fixture
def pair_distances(uniform_points):
    """``draw(domain, n)``: distances of n independent pairs of uniform points."""
    def draw(domain, n):
        a = uniform_points(domain, n)
        b = uniform_points(domain, n)
        return np.linalg.norm(a - b, axis=1)
    return draw


@pytest.fixture
def broken_detailed_balance(monkeypatch):
    """Shift every off->on probability by 1e-6, off detailed balance."""
    real = channel.transition_probabilities

    def shifted(r, params):
        p01, p10 = real(r, params)
        return p01 + 1e-6, p10

    monkeypatch.setattr(channel, "transition_probabilities", shifted)

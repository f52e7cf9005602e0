"""Seeded randomized sweeps over the parameter space.

Every draw must satisfy the structural identities of the model: detailed
balance, row stochasticity, bound ordering, the per-edge sandwich and the
equality between the joint-consistent conditional entropy and the oracle's
second increment.
"""

import numpy as np
import pytest

from netentropy import channel, entropy, geometry
from netentropy.channel import ChannelParams


def random_params(rng):
    return ChannelParams(
        r0=float(rng.uniform(0.1, 2.0)),
        eta=float(rng.uniform(1.5, 6.0)),
        nu=float(10.0 ** rng.uniform(0.0, 3.0)),
        B=float(10.0 ** rng.uniform(6.0, 8.0)),
    )


@pytest.mark.parametrize("draw", range(20))
def test_random_draws_satisfy_model_identities(draw):
    rng = np.random.default_rng(9000 + draw)
    params = random_params(rng)
    dom = geometry.domain_from_name(
        geometry.DOMAIN_NAMES[int(rng.integers(3))])
    D = dom.diameter

    # detailed balance wherever no clamping applies
    r = rng.uniform(channel.R_MIN_FRACTION * D, D, size=64)
    p = channel.connection_probability(r, params)
    p01, p10 = channel.transition_probabilities(r, params)
    ok = p01 < 1.0 - channel.CLAMP_EPS
    assert np.all(np.abs((1 - p[ok]) * p01[ok] - p[ok] * p10[ok]) <= 1e-12)
    assert np.all((p01 >= 0) & (p01 <= 1) & (p10 >= 0) & (p10 <= 1))

    # bounds ordered, inside [0, 1], sandwiching the oracle increment
    b = entropy.entropy_rate_bounds(5, dom, params)
    assert 0.0 <= b.per_edge_lower <= b.per_edge_upper <= 1.0
    h4 = entropy.block_entropy_profile(dom, params, 4)[1][-1]
    assert b.per_edge_lower - 1e-6 <= h4 <= b.per_edge_upper + 1e-6

    # joint-consistent conditional entropy equals the t=2 increment
    _, h = entropy.block_entropy_profile(dom, params, 2)
    assert b.per_edge_joint_upper == pytest.approx(h[1], abs=1e-9)

    # averaged rows remain stochastic
    m = entropy.edge_moments(dom, params)
    for row in (m.p00 + m.p01, m.p10 + m.p11):
        assert row == pytest.approx(1.0, abs=1e-7)

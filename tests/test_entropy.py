"""Distance averages, entropy-rate bounds and the block-entropy oracle.

Golden values below were cross-validated against independent Monte Carlo
oracles (1e7 uniform point pairs, seed 777) during development; the recorded
quadrature/MC z-scores were all below 1.5.
"""

import math

import numpy as np
import pytest

from netentropy import channel, entropy, geometry
from netentropy.channel import ChannelParams
from netentropy.entropy import (
    EdgeMoments,
    binary_entropy_terms,
    block_entropy_oracle,
    block_entropy_profile,
    edge_moments,
    entropy_rate_bounds,
)
from netentropy.quadrature import QuadratureError, QuadratureSpec, integrate_piecewise

SQ = geometry.SQUARE

# square, r0=0.7, eta=2, nu=500 Hz, B=12 MBd
GOLDEN_P_ON = 0.578500933754          # MC 0.5786023 +- 8.1e-05
GOLDEN_P10_BAR = 7.779580933899e-05   # MC 7.777928e-05 +- 1.2e-08
GOLDEN_P01_BAR = 1.843611145986e-04   # MC 1.844040e-04 +- 1.8e-07
GOLDEN_LOWER = 1.061613528990e-03     # MC 1.061580e-03 +- 8.7e-08
GOLDEN_UPPER = 1.755324341892e-03
GOLDEN_H2 = 1.0817791269e-03

FROZEN = ChannelParams(r0=0.7, eta=2.0, nu=0.0, B=12e6)


class TestBinaryEntropyTerms:
    def test_uniform(self):
        assert binary_entropy_terms([0.5, 0.5]) == 1.0

    def test_degenerate(self):
        assert binary_entropy_terms([1.0]) == 0.0
        assert binary_entropy_terms([0.0]) == 0.0

    def test_hand_value(self):
        assert binary_entropy_terms([0.25, 0.75]) == pytest.approx(0.811278, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy_terms([1.1])
        with pytest.raises(ValueError):
            binary_entropy_terms([-0.2, 0.5])


class TestAveragedEdgeProbability:
    def test_everything_connected_limit(self):
        D = SQ.diameter
        params = ChannelParams(r0=1e3 * D, eta=2.0, nu=0.0, B=12e6)
        assert edge_moments(SQ, params).p_on == pytest.approx(1.0, abs=1e-5)

    def test_nothing_connected_limit(self):
        D = SQ.diameter
        params = ChannelParams(r0=1e-3 * D, eta=2.0, nu=0.0, B=12e6)
        assert edge_moments(SQ, params).p_on == pytest.approx(0.0, abs=1e-4)

    def test_golden_value(self, paper_params):
        assert edge_moments(SQ, paper_params).p_on == pytest.approx(
            GOLDEN_P_ON, abs=1e-9)

    def test_matches_monte_carlo(self, paper_params, rng):
        n = 1_000_000
        d = geometry.sample_distance(SQ, rng, size=n)
        sample = channel.connection_probability(d, paper_params)
        se = sample.std(ddof=1) / np.sqrt(n)
        assert abs(edge_moments(SQ, paper_params).p_on - sample.mean()) < 3 * se


class TestAveragedTransitionProbability:
    def test_frozen_chain(self):
        m = edge_moments(SQ, FROZEN)
        assert m.p11 == pytest.approx(1.0, abs=1e-8)
        assert m.p10 == 0.0
        assert m.p01 == 0.0

    def test_golden_values(self, paper_params):
        m = edge_moments(SQ, paper_params)
        assert m.p10 == pytest.approx(GOLDEN_P10_BAR, rel=1e-8)
        assert m.p01 == pytest.approx(GOLDEN_P01_BAR, rel=1e-8)

    def test_matches_monte_carlo(self, paper_params, rng):
        n = 1_000_000
        d = geometry.sample_distance(SQ, rng, size=n)
        sample = channel.transition_probabilities(d, paper_params)[1]
        se = sample.std(ddof=1) / np.sqrt(n)
        quad = edge_moments(SQ, paper_params).p10
        assert abs(quad - sample.mean()) < 3 * se

    def test_rows_sum_to_one(self, paper_params):
        for name in geometry.DOMAIN_NAMES:
            m = edge_moments(geometry.domain_from_name(name), paper_params)
            for row in (m.p00 + m.p01, m.p10 + m.p11):
                assert abs(row - 1.0) < 1e-8


class TestConditionalEntropies:
    def test_frozen_chain_is_deterministic(self):
        # zero up to the normalization error of the quadrature itself
        assert edge_moments(SQ, FROZEN).composition() == pytest.approx(0.0, abs=1e-8)
        assert edge_moments(SQ, FROZEN).lower == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rows_give_one_bit(self):
        # composition formula with all transition rows (0.5, 0.5)
        moments = EdgeMoments(0.4, 0.6, 0.5, 0.5, 0.5, 0.5, np.nan, np.nan, np.nan)
        assert moments.composition() == pytest.approx(1.0, rel=1e-14)

    def test_golden_values(self, paper_params):
        assert edge_moments(SQ, paper_params).composition() == pytest.approx(
            GOLDEN_UPPER, abs=1e-9)
        assert edge_moments(SQ, paper_params).lower == pytest.approx(
            GOLDEN_LOWER, abs=1e-9)

    def test_conditioning_reduces_entropy(self):
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            for eta in (2.0, 3.0, 4.0):
                for nu in (10.0, 500.0):
                    params = ChannelParams(0.7, eta, nu, 12e6)
                    m = edge_moments(dom, params)
                    assert m.lower <= m.composition() + 1e-12

    def test_hard_connection_shrinks_lower_bound(self):
        # as the connection function hardens the conditional uncertainty of a
        # link given its distance collapses
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            soft = edge_moments(dom, ChannelParams(0.7, 2.0, 500.0, 12e6)).lower
            hard = edge_moments(dom, ChannelParams(0.7, 8.0, 500.0, 12e6)).lower
            assert hard < soft

    def test_lower_matches_monte_carlo(self, paper_params, rng):
        n = 1_000_000
        d = geometry.sample_distance(SQ, rng, size=n)
        p = channel.connection_probability(d, paper_params)
        p01, p10 = channel.transition_probabilities(d, paper_params)

        def h2(q):
            out = np.zeros_like(q)
            m = (q > 0) & (q < 1)
            out[m] = -q[m] * np.log2(q[m]) - (1 - q[m]) * np.log2(1 - q[m])
            return out

        sample = (1 - p) * h2(p01) + p * h2(p10)
        se = sample.std(ddof=1) / np.sqrt(n)
        assert abs(edge_moments(SQ, paper_params).lower
                   - sample.mean()) < 3 * se

    def test_diagnostics_joint_equals_h2(self, paper_params):
        # the joint-consistent conditional entropy is exactly the oracle's h_2
        b = entropy_rate_bounds(50, SQ, paper_params)
        _, h = block_entropy_profile(SQ, paper_params, 2)
        assert b.per_edge_joint_upper == pytest.approx(h[1], abs=1e-12)
        assert b.per_edge_upper == pytest.approx(GOLDEN_UPPER, abs=1e-9)
        assert b.per_edge_lower < b.per_edge_joint_upper < b.per_edge_upper
        assert b.network_joint_upper == math.comb(50, 2) * b.per_edge_joint_upper


class TestEntropyRateBounds:
    def test_two_nodes_network_equals_edge(self, paper_params):
        b = entropy_rate_bounds(2, SQ, paper_params)
        assert b.network_lower == b.per_edge_lower
        assert b.network_upper == b.per_edge_upper

    def test_scaling_is_exact(self, paper_params):
        b50 = entropy_rate_bounds(50, SQ, paper_params)
        b100 = entropy_rate_bounds(100, SQ, paper_params)
        assert b50.network_upper == math.comb(50, 2) * b50.per_edge_upper
        assert b100.network_upper == math.comb(100, 2) * b100.per_edge_upper
        assert b100.network_upper / b50.network_upper == pytest.approx(
            4950.0 / 1225.0, rel=1e-14)

    def test_paper_point(self, paper_params):
        b = entropy_rate_bounds(50, SQ, paper_params)
        assert b.per_edge_lower == pytest.approx(GOLDEN_LOWER, abs=1e-9)
        assert b.per_edge_upper == pytest.approx(GOLDEN_UPPER, abs=1e-9)
        # fifty-node network dynamics at nu=500 Hz amount to a few bits
        assert 1.0 < b.network_lower < b.network_upper < 3.0

    def test_bounds_in_unit_interval(self):
        for eta in (2.0, 4.0):
            b = entropy_rate_bounds(2, SQ, ChannelParams(0.7, eta, 1000.0, 12e6))
            assert 0.0 <= b.per_edge_lower <= b.per_edge_upper <= 1.0

    def test_small_n_rejected(self, paper_params):
        with pytest.raises(ValueError):
            entropy_rate_bounds(1, SQ, paper_params)

    def test_vanishing_doppler_limit(self):
        for nu in (0.0, 1e-3):
            b = entropy_rate_bounds(2, SQ, ChannelParams(0.7, 2.0, nu, 12e6))
            assert b.per_edge_upper < 1e-5 or nu > 0.0
            if nu == 0.0:
                assert b.per_edge_lower == pytest.approx(0.0, abs=1e-12)
                assert b.per_edge_upper == pytest.approx(0.0, abs=1e-8)


class TestBlockEntropyOracle:
    def test_t1_is_marginal_entropy(self, paper_params):
        res = block_entropy_oracle(SQ, paper_params, 1)
        p_on = edge_moments(SQ, paper_params).p_on
        marginal = binary_entropy_terms([p_on, 1.0 - p_on])
        assert res.block_entropy == pytest.approx(marginal, abs=1e-8)
        assert res.conditional_increment == res.block_entropy

    def test_range_validation(self, paper_params):
        for t in (0, 13):
            with pytest.raises(ValueError):
                block_entropy_oracle(SQ, paper_params, t)

    def test_increments_non_increasing(self, paper_params):
        _, h = block_entropy_profile(SQ, paper_params, 12)
        assert np.all(np.diff(h) <= 1e-12)

    def test_frozen_chain(self):
        H, h = block_entropy_profile(SQ, FROZEN, 6)
        assert np.allclose(H, H[0], atol=1e-12)
        assert np.allclose(h[1:], 0.0, atol=1e-12)

    def test_profile_consistent_with_single_call(self, paper_params):
        H, h = block_entropy_profile(SQ, paper_params, 5)
        res = block_entropy_oracle(SQ, paper_params, 5)
        assert res.block_entropy == H[-1] and res.conditional_increment == h[-1]
        assert h[1] == pytest.approx(GOLDEN_H2, abs=1e-9)

    def test_sandwich_at_paper_point(self, paper_params):
        b = entropy_rate_bounds(2, SQ, paper_params)
        h8 = block_entropy_oracle(SQ, paper_params, 8).conditional_increment
        assert b.per_edge_lower - 1e-9 <= h8 <= b.per_edge_upper + 1e-9


def _enumerated_profile(domain, params, t_max, spec=QuadratureSpec()):
    """Reference oracle: one integrand component per on/off sequence.

    Returns (H, h, integrand calls).
    """
    bits = (np.arange(1 << t_max)[:, None] >> np.arange(t_max)[None, :]) & 1
    density = domain.distance_density()
    calls = 0

    def integrand(r):
        nonlocal calls
        calls += 1
        w = density.pdf(r)
        p = channel.connection_probability(r, params)
        p01, p10 = channel.transition_probabilities(r, params)
        probs = np.where(bits[:, 0, None] == 1, p[None, :], 1.0 - p[None, :])
        for u in range(1, t_max):
            prev = bits[:, u - 1, None]
            flip = np.where(prev == 0, p01[None, :], p10[None, :])
            stayed = bits[:, u, None] == prev
            probs *= np.where(stayed, 1.0 - flip, flip)
        return probs * w[None, :]

    level = np.maximum(integrate_piecewise(
        integrand, entropy.integration_breakpoints(domain, params), spec), 0.0)
    H = np.empty(t_max)
    for t in range(t_max, 0, -1):
        H[t - 1] = binary_entropy_terms(level)
        # marginalize the last step: the high bit of the sequence code
        level = level.reshape(2, -1).sum(axis=0)
    return H, np.diff(H, prepend=0.0), calls


def _counted_profile(monkeypatch, domain, params, t_max):
    """block_entropy_profile and the number of its integrand calls."""
    calls = 0

    def counted(f, *args, **kwargs):
        def g(r):
            nonlocal calls
            calls += 1
            return f(r)
        return integrate_piecewise(g, *args, **kwargs)

    monkeypatch.setattr(entropy, "integrate_piecewise", counted)
    H, h = block_entropy_profile(domain, params, t_max)
    monkeypatch.undo()
    return H, h, calls


ENUMERATION_CASES = [
    (name, ChannelParams(r0, eta, 500.0, 12e6))
    for name in geometry.DOMAIN_NAMES for eta in (2.0, 4.0) for r0 in (0.3, 1.1)
] + [
    ("square", FROZEN),
    # p01 and p10 both reach the clamp cap inside the square
    ("square", ChannelParams(0.7, 2.0, 500.0, 1e3)),
]


class TestClassOracle:
    @pytest.mark.parametrize("name,params", ENUMERATION_CASES, ids=[
        f"{name}-r0={p.r0}-eta={p.eta}-nu={p.nu:g}-B={p.B:g}"
        for name, p in ENUMERATION_CASES])
    def test_matches_sequence_enumeration(self, monkeypatch, name, params):
        dom = geometry.domain_from_name(name)
        for t_max in range(1, 13):
            H_ref, h_ref, calls_ref = _enumerated_profile(dom, params, t_max)
            H, h, calls = _counted_profile(monkeypatch, dom, params, t_max)
            # equal calls: the convergence test stopped at the same depth
            assert calls == calls_ref, t_max
            np.testing.assert_allclose(H, H_ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-13)

    def test_clamped_case_has_clamp_radii(self):
        params = ENUMERATION_CASES[-1][1]
        assert len(channel.clamp_radii(params, SQ.diameter)) == 2

    def test_multiplicities_count_every_sequence(self):
        for t in range(1, 31):
            classes = entropy._sequence_classes(t)
            assert int(classes[:, 3].sum()) == 2 ** t
            # each class once: (first, runs, zeros) are distinct
            assert len({tuple(c) for c in classes[:, :3].tolist()}) == len(classes)
        assert len(entropy._sequence_classes(12)) == 134

    def test_transition_counts_add_up(self):
        for t in range(1, 13):
            a, k, z, _, n01, n00, n10, n11 = entropy._sequence_classes(t).T
            assert np.all(np.stack([n01, n00, n10, n11]) >= 0)
            assert np.array_equal(n01 + n00 + n10 + n11, np.full(len(a), t - 1))
            assert np.array_equal(n01 + n10, k - 1)
            # zeros are followed by a stay or a 0->1 flip, except a last zero
            last = np.where(k % 2 == 1, a, 1 - a)
            assert np.array_equal(n00 + n01, z - (last == 0))

    def test_marginal_levels_keep_mass(self, paper_params):
        for t_max in range(1, 13):
            probs = entropy._class_probabilities(SQ, paper_params, t_max, QuadratureSpec())
            mass = entropy._sequence_classes(t_max)[:, 3] @ probs
            assert mass == pytest.approx(1.0, abs=1e-8)
            for t in range(t_max, 1, -1):
                same, flipped = entropy._extensions(t)
                probs = probs[same] + probs[flipped]
                shorter_mass = entropy._sequence_classes(t - 1)[:, 3] @ probs
                assert shorter_mass == pytest.approx(mass, rel=0, abs=1e-14)
                mass = shorter_mass


class TestQuadratureBehavior:
    def test_failure_propagates(self, paper_params):
        hopeless = QuadratureSpec(nodes_per_panel=8, rel_tolerance=1e-15, max_depth=1)
        with pytest.raises(QuadratureError):
            edge_moments(SQ, paper_params, hopeless)

    def test_node_doubling_stability(self, paper_params):
        base = entropy_rate_bounds(2, SQ, paper_params, QuadratureSpec(nodes_per_panel=16))
        dbl = entropy_rate_bounds(2, SQ, paper_params, QuadratureSpec(nodes_per_panel=32))
        assert abs(base.per_edge_lower - dbl.per_edge_lower) < 1e-6
        assert abs(base.per_edge_upper - dbl.per_edge_upper) < 1e-6

    def test_oracle_node_doubling_stability(self, paper_params):
        h16 = block_entropy_profile(SQ, paper_params, 8, QuadratureSpec(nodes_per_panel=16))[1]
        h32 = block_entropy_profile(SQ, paper_params, 8, QuadratureSpec(nodes_per_panel=32))[1]
        assert np.max(np.abs(h16 - h32)) < 1e-6

"""Distance averages, entropy-rate bounds and the block-entropy oracle.

Golden values below were cross-validated against independent Monte Carlo
oracles (1e7 uniform point pairs, seed 777) during development; the recorded
quadrature/MC z-scores were all below 1.5.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from netentropy import channel, entropy, geometry
from netentropy.channel import ChannelParams
from netentropy.entropy import (
    EdgeMoments,
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

# sha256 of the float64 fields of edge_moments(domain, ChannelParams(r0, eta,
# nu, B)) at the default spec, recorded with one integrand call per segment
# and refinement depth (numpy 2.4, x86-64).  Keys are (domain, r0, eta, nu,
# B).  The disk points refine to depth 4, eta = 19 puts the p01 clamp radius
# at 0.267, and B = 1 kHz clamps both p01 and p10 (four segments).
GOLDEN_EDGE_MOMENTS = {
    ("square", 0.7, 2.0, 500.0, 12e6):
        "23b452e6d6522b9c491009fd03596b348508bee45154720fb5d7fa630e89e264",
    ("disk", 0.7, 2.0, 500.0, 12e6):
        "ac3a15e5925d1c207b425752cade6c4d50f7c1898206f42333395561487b216f",
    ("triangle", 0.3, 4.0, 1000.0, 12e6):
        "9b1eb89921d2ce70e691399b78274c88b40fcd5b04a0c46f645f272f870d16f4",
    ("square", 0.7, 19.0, 500.0, 12e6):
        "f3d2e377f7238c61f3b9a104bd9a6e3ee31435df3cab77db720d17fefbc0626b",
    ("square", 0.7, 2.0, 500.0, 1e3):
        "08b7e900279a54a0e51f285ddb5e69f80ce86851eebf8837bc7888158092f4ce",
    ("disk", 1.1, 3.0, 10.0, 12e6):
        "c94c70d48f9c423c194f48fe6a0db7ee5f8d024e0159bab334114c15630f1e03",
}


class TestBinaryEntropyTerms:
    # h(q) = -q log2 q - (1 - q) log2 (1 - q), as the bounds integrate it
    def test_uniform(self):
        assert entropy._binary_entropy(np.array([0.5])).tolist() == [1.0]

    def test_degenerate(self):
        assert entropy._binary_entropy(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]

    def test_hand_value(self):
        assert entropy._binary_entropy(np.array([0.25]))[0] == pytest.approx(
            0.811278, abs=1e-6)

    def test_xlog2_equals_gather_form(self, rng):
        # the boolean-gather form the masked log replaced, as reference
        def gathered(q):
            out = np.zeros_like(q)
            pos = q > 0.0
            out[pos] = -q[pos] * np.log2(q[pos])
            return out

        edge = [0.0, 5e-324, 2.0 ** -53, 0.5, 1.0 - channel.CLAMP_EPS, 1.0]
        q = np.concatenate([edge, rng.random(1002), rng.random(200) ** 60])
        for arr in (q, q.reshape(-1, 8)):
            got, want = entropy._xlog2(arr), gathered(arr)
            # bit for bit, so the sign of every zero too
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.signbit(entropy._xlog2(q)[0])


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

    def test_matches_monte_carlo(self, paper_params, pair_distances):
        n = 1_000_000
        d = pair_distances(SQ, n)
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

    def test_matches_monte_carlo(self, paper_params, pair_distances):
        n = 1_000_000
        d = pair_distances(SQ, n)
        sample = channel.transition_probabilities(d, paper_params)[1]
        se = sample.std(ddof=1) / np.sqrt(n)
        quad = edge_moments(SQ, paper_params).p10
        assert abs(quad - sample.mean()) < 3 * se


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
        # entropy/conditioning-inequality of validate covers nu = 500 Hz
        for dom in geometry.DOMAINS:
            for eta in (2.0, 3.0, 4.0):
                m = edge_moments(dom, ChannelParams(0.7, eta, 10.0, 12e6))
                assert m.lower <= m.composition() + 1e-12

    def test_hard_connection_shrinks_lower_bound(self):
        # as the connection function hardens the conditional uncertainty of a
        # link given its distance collapses
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            soft = edge_moments(dom, ChannelParams(0.7, 2.0, 500.0, 12e6)).lower
            hard = edge_moments(dom, ChannelParams(0.7, 8.0, 500.0, 12e6)).lower
            assert hard < soft

    def test_lower_matches_monte_carlo(self, paper_params, pair_distances):
        n = 1_000_000
        d = pair_distances(SQ, n)
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
        # entropy/network-scaling of validate covers n = 50
        b50 = entropy_rate_bounds(50, SQ, paper_params)
        b100 = entropy_rate_bounds(100, SQ, paper_params)
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
        marginal = -p_on * np.log2(p_on) - (1.0 - p_on) * np.log2(1.0 - p_on)
        assert res.block_entropy == pytest.approx(marginal, abs=1e-8)
        assert res.conditional_increment == res.block_entropy

    def test_range_validation(self, paper_params):
        for t in (0, 13):
            with pytest.raises(ValueError):
                block_entropy_oracle(SQ, paper_params, t)

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
        H[t - 1] = float(entropy._xlog2(level).sum())
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


class TestBatchedPoints:
    """A batch of points shares its quadratures, and every point gets the
    numbers of its one-column quadrature bit for bit."""

    @pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
    @pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
    def test_batch_equals_single_points(self, name, eta, rng):
        dom = geometry.domain_from_name(name)
        # B = 1 kHz: nu = 0 has no clamp radius, small nu one, large nu two
        nu = np.concatenate([[0.0, 1.0, 500.0], 10.0 ** rng.uniform(-2.0, 4.0, 3)])
        params = ChannelParams(10.0 ** rng.uniform(-1.3, 0.2, len(nu)), eta, nu, 1e3)
        assert {len(r) for r in channel.clamp_radii(params, dom.diameter)} == {0, 1, 2}
        moments = edge_moments(dom, params)
        bounds = entropy_rate_bounds(50, dom, params)
        for j in range(len(nu)):
            point = params.at(j)
            assert moments[j] == edge_moments(dom, point)
            if isinstance(bounds[j], Exception):
                with pytest.raises(type(bounds[j])):
                    entropy_rate_bounds(50, dom, point)
            else:
                assert bounds[j] == entropy_rate_bounds(50, dom, point)

    def test_r0_grid_shares_one_quadrature(self, monkeypatch, rng):
        params = ChannelParams(np.sort(10.0 ** rng.uniform(-1.3, 0.15, 8)), 3.0, 500.0, 12e6)
        calls = []

        def counted(f, breakpoints, *args, **kwargs):
            calls.append(np.shape(breakpoints))
            return integrate_piecewise(f, breakpoints, *args, **kwargs)

        monkeypatch.setattr(entropy, "integrate_piecewise", counted)
        moments = edge_moments(geometry.DISK, params)
        monkeypatch.undo()
        assert calls == [(3, 8)]   # 0, the p01 clamp radius and D, for all 8 points
        assert moments == [edge_moments(geometry.DISK, params.at(j)) for j in range(8)]

    def test_batch_evaluates_only_open_columns(self, monkeypatch):
        # a seed-0 benchmark r0 grid: on the square at eta = 3 its points
        # converge at depths 6, 5 and 4 when run alone
        params = ChannelParams(
            np.array([0.0537241, 0.0885717, 0.15384, 0.192763, 0.366654,
                      0.584634, 0.758297, 1.28385]), 3.0, 500.0, 12e6)
        runs = []

        def counted(f, breakpoints, *args, **kwargs):
            runs.append([np.shape(breakpoints)[0] - 1, 0])

            def g(r):
                runs[-1][1] += np.size(r)
                return f(r)
            return integrate_piecewise(g, breakpoints, *args, **kwargs)

        monkeypatch.setattr(entropy, "integrate_piecewise", counted)
        batch = edge_moments(SQ, params)
        ((_, batch_nodes),) = runs
        runs.clear()
        alone = [edge_moments(SQ, params.at(j)) for j in range(8)]
        monkeypatch.undo()
        assert batch == alone
        depths = [math.log2(n / (s * 16) + 1) - 1 for s, n in runs]
        assert depths == [6, 6, 6, 5, 5, 5, 5, 4]
        # each point's nodes as if it ran alone, not the deepest point's 8 times
        assert batch_nodes == sum(s * 16 * (2 ** (d + 1) - 1)
                                  for (s, _), d in zip(runs, depths)) == 31_872

    def test_one_point_raises_and_a_batch_returns_errors(self, paper_params):
        hopeless = QuadratureSpec(nodes_per_panel=8, rel_tolerance=1e-15, max_depth=1)
        batch = ChannelParams([0.5, 0.7], 2.0, 500.0, 12e6)
        for fn, args in ((edge_moments, ()), (entropy_rate_bounds, (50,))):
            with pytest.raises(QuadratureError):
                fn(*args, SQ, paper_params, hopeless)
            results = fn(*args, SQ, batch, hopeless)
            assert len(results) == 2
            assert all(isinstance(r, QuadratureError) for r in results)
            # a batch of one is a list too, and holds the point's own result
            assert fn(*args, SQ, batch.at([1])) == [fn(*args, SQ, paper_params)]


class TestDopplerRatio:
    """The rates are nu/B times a function of x = (r/r0)**eta, so every result
    depends on nu and B only through nu/B."""

    @pytest.mark.parametrize("k", [1, -2, 10])
    @pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
    @pytest.mark.parametrize("r0, eta, nu, B", [
        (0.7, 2.0, 500.0, 1e3),
        (np.array([0.3, 0.7, 1.1, 0.5]), 3.0, np.array([0.0, 1.0, 30.0, 500.0]), 1e3),
    ], ids=["point", "nu-batch"])
    def test_power_of_two_scaling_changes_nothing(self, r0, eta, nu, B, name, k):
        # scaling nu and B by 2**k keeps every kernel operation exact, so the
        # numbers are identical, not only close (a factor 3 is not exact)
        dom = geometry.domain_from_name(name)
        params = ChannelParams(r0, eta, nu, B)
        scaled = ChannelParams(r0, eta, nu * 2.0 ** k, B * 2.0 ** k)
        assert channel.clamp_radii(scaled, dom.diameter) == channel.clamp_radii(params, dom.diameter)
        assert edge_moments(dom, scaled) == edge_moments(dom, params)
        want = dataclasses.asdict(channel.slow_fading_report(params, dom))
        for field, value in dataclasses.asdict(channel.slow_fading_report(scaled, dom)).items():
            assert np.array_equal(value, want[field]), field


class TestQuadratureBehavior:
    @pytest.mark.parametrize("point", sorted(GOLDEN_EDGE_MOMENTS))
    def test_edge_moments_digest(self, point):
        name, *params = point
        m = edge_moments(geometry.domain_from_name(name), ChannelParams(*params))
        fields = np.array(dataclasses.astuple(m), dtype=np.float64)
        assert hashlib.sha256(fields.tobytes()).hexdigest() == GOLDEN_EDGE_MOMENTS[point]

    def test_failure_propagates(self, paper_params):
        hopeless = QuadratureSpec(nodes_per_panel=8, rel_tolerance=1e-15, max_depth=1)
        with pytest.raises(QuadratureError):
            edge_moments(SQ, paper_params, hopeless)

    def test_oracle_node_doubling_stability(self, paper_params):
        h16 = block_entropy_profile(SQ, paper_params, 8, QuadratureSpec(nodes_per_panel=16))[1]
        h32 = block_entropy_profile(SQ, paper_params, 8, QuadratureSpec(nodes_per_panel=32))[1]
        assert np.max(np.abs(h16 - h32)) < 1e-6

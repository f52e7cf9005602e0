"""Rayleigh-fading link model: connection function, LCR, transition matrix."""

import numpy as np
import pytest
from scipy.optimize import brentq

from netentropy import channel, geometry
from netentropy.channel import (
    ChannelError,
    ChannelParams,
    LinkState,
    clamp_diagnostics,
    clamp_radii,
    connection_probability,
    level_crossing_rate,
    slow_fading_report,
    snr_connection_indicator,
    stationary_distribution,
    transition_matrix,
    transition_probabilities,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("kwargs", [
    dict(r0=0.0, eta=2, nu=500, B=12e6),
    dict(r0=0.7, eta=0.0, nu=500, B=12e6),
    dict(r0=0.7, eta=2, nu=-1.0, B=12e6),
    dict(r0=0.7, eta=2, nu=500, B=0.0),
    dict(r0=0.7, eta=2, nu=float("nan"), B=12e6),
    dict(r0=0.7, eta=2, nu=float("inf"), B=12e6),
    dict(r0=float("inf"), eta=2, nu=500, B=12e6),
    dict(r0=0.7, eta=float("inf"), nu=500, B=12e6),
    dict(r0=0.7, eta=2, nu=500, B=float("inf")),
])
def test_params_validation(kwargs):
    with pytest.raises(ChannelError):
        ChannelParams(**kwargs)


class TestConnectionProbability:
    def test_zero_distance(self, paper_params):
        assert connection_probability(0.0, paper_params) == 1.0

    def test_at_r0(self, paper_params):
        assert connection_probability(0.7, paper_params) == pytest.approx(
            np.exp(-1.0), rel=1e-14)

    def test_hand_value(self, paper_params):
        # exp(-(1/0.7)^2) = 0.1299226...
        assert connection_probability(1.0, paper_params) == pytest.approx(
            np.exp(-(1.0 / 0.7) ** 2), rel=1e-14)
        assert connection_probability(1.0, paper_params) == pytest.approx(0.129923, abs=1e-6)

    def test_negative_distance(self, paper_params):
        with pytest.raises(ChannelError):
            connection_probability(-0.1, paper_params)

    def test_monotone_in_r(self, paper_params):
        r = np.linspace(0.0, 2.0, 500)
        assert np.all(np.diff(connection_probability(r, paper_params)) < 0.0)

    def test_eta_sensitivity_flips_at_r0(self):
        # below r0 a harder exponent helps, beyond r0 it hurts
        for r, expect_increasing in ((0.4, True), (1.2, False)):
            values = [connection_probability(r, ChannelParams(0.7, eta, 500.0, 12e6))
                      for eta in (2.0, 3.0, 4.0, 5.0)]
            diffs = np.diff(values)
            assert np.all(diffs > 0.0) == expect_increasing


class TestLevelCrossingRate:
    def test_zero_distance(self, paper_params):
        assert level_crossing_rate(0.0, paper_params) == 0.0

    def test_hand_value(self, paper_params):
        # sqrt(2 pi) * 500 / e
        assert level_crossing_rate(0.7, paper_params) == pytest.approx(
            SQRT_2PI * 500.0 * np.exp(-1.0), rel=1e-14)

    def test_zero_doppler(self):
        params = ChannelParams(r0=0.7, eta=3.0, nu=0.0, B=12e6)
        r = np.linspace(0.0, 2.0, 50)
        assert np.all(level_crossing_rate(r, params) == 0.0)

    def test_linear_in_nu(self, paper_params):
        r = np.linspace(0.01, 2.0, 200)
        doubled = ChannelParams(0.7, 2.0, 1000.0, 12e6)
        assert np.allclose(level_crossing_rate(r, doubled),
                           2.0 * level_crossing_rate(r, paper_params), rtol=1e-14)

    def test_single_interior_maximum(self, paper_params):
        r = np.linspace(1e-4, 3.0, 5000)
        lcr = level_crossing_rate(r, paper_params)
        sign_changes = np.count_nonzero(np.diff(np.sign(np.diff(lcr))))
        assert sign_changes == 1
        assert lcr[0] < lcr.max() and lcr[-1] < lcr.max()

    def test_negative_distance(self, paper_params):
        with pytest.raises(ChannelError):
            level_crossing_rate(-1.0, paper_params)


class TestTransitionMatrix:
    def test_hand_values(self, paper_params):
        m = transition_matrix(0.7, paper_params)
        lcr = SQRT_2PI * 500.0 * np.exp(-1.0)
        assert m.p10 == pytest.approx(lcr / (np.exp(-1.0) * 12e6), rel=1e-12)
        assert m.p01 == pytest.approx(lcr / ((1 - np.exp(-1.0)) * 12e6), rel=1e-12)
        assert m.p10 == pytest.approx(1.0444e-4, abs=1e-8)
        assert m.p01 == pytest.approx(6.078e-5, abs=1e-8)

    def test_row_stochastic(self, paper_params):
        m = transition_matrix(0.9, paper_params)
        arr = m.as_array()
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-15)

    def test_frozen_chain(self):
        params = ChannelParams(r0=0.7, eta=2.0, nu=0.0, B=12e6)
        m = transition_matrix(0.5, params)
        assert m.p01 == 0.0 and m.p10 == 0.0

    def test_zero_distance_convention(self, paper_params):
        m = transition_matrix(0.0, paper_params)
        assert m.p01 == 0.0 and m.p10 == 0.0 and not m.clamped

    def test_clamping_recorded(self, paper_params):
        clamp_diagnostics.reset()
        m = transition_matrix(1e-6, paper_params)  # deep in the divergence region
        assert m.clamped
        assert m.p01 == 1.0 - channel.CLAMP_EPS
        assert clamp_diagnostics.events == 1

    def test_detailed_balance_and_stationarity(self, paper_params):
        D = geometry.SQUARE.diameter
        r = np.geomspace(channel.R_MIN_FRACTION * D, D, 300)
        p = connection_probability(r, paper_params)
        p01, p10 = transition_probabilities(r, paper_params)
        ok = p01 < 1.0 - channel.CLAMP_EPS
        assert np.max(np.abs((1 - p[ok]) * p01[ok] - p[ok] * p10[ok])) <= 1e-12
        for rv in (0.3, 0.7, 1.2):
            pi = stationary_distribution(transition_matrix(rv, paper_params))
            assert pi[1] == pytest.approx(connection_probability(rv, paper_params), abs=1e-12)


class TestStationaryDistribution:
    def test_symmetric(self):
        pi = stationary_distribution(channel.TransitionMatrix(p01=0.5, p10=0.5))
        assert pi == (0.5, 0.5)

    def test_paper_point(self):
        pi = stationary_distribution(channel.TransitionMatrix(p01=6.078e-5, p10=1.0444e-4))
        assert pi[0] == pytest.approx(0.6321, abs=2e-4)
        assert pi[1] == pytest.approx(0.3679, abs=2e-4)

    def test_absorbing_off(self):
        pi = stationary_distribution(channel.TransitionMatrix(p01=0.0, p10=0.3))
        assert pi == (1.0, 0.0)

    def test_frozen_requires_marginal(self):
        frozen = channel.TransitionMatrix(p01=0.0, p10=0.0)
        with pytest.raises(ChannelError, match="indeterminate"):
            stationary_distribution(frozen)
        assert stationary_distribution(frozen, marginal=0.25) == (0.75, 0.25)


class TestSlowFading:
    def test_paper_point_admissible(self, paper_params):
        assert slow_fading_report(paper_params, geometry.SQUARE).admissible

    def test_paper_range_admissible(self):
        for eta in (2.0, 3.5, 5.0):
            for nu in (1.0, 1000.0):
                for name in geometry.DOMAIN_NAMES:
                    rep = slow_fading_report(ChannelParams(0.7, eta, nu, 12e6),
                                             geometry.domain_from_name(name))
                    assert rep.admissible, (eta, nu, name)

    def test_zero_doppler(self):
        rep = slow_fading_report(ChannelParams(0.7, 2.0, 0.0, 12e6), geometry.SQUARE)
        assert rep.admissible and rep.max_p01 == 0.0 and rep.max_p10 == 0.0

    def test_fast_fading_flagged(self):
        params = ChannelParams(r0=0.7, eta=2.0, nu=1e6, B=1e3)
        # the on->off entry already breaks the approximation at r = r0
        p10_at_r0 = SQRT_2PI * 1e6 / 1e3
        assert p10_at_r0 > channel.THETA_SLOW
        rep = slow_fading_report(params, geometry.SQUARE)
        assert not rep.admissible
        assert rep.max_p10 >= p10_at_r0

    @pytest.mark.parametrize("params", [ChannelParams(0.7, 2.0, 500.0, 12e6),
                                        ChannelParams(0.3, 4.0, 1000.0, 12e6)])
    def test_scan_shares_the_rate_kernel(self, params):
        # below the cap the scanned maxima are the clamped rates bit for bit
        for name in geometry.DOMAIN_NAMES:
            rep = slow_fading_report(params, geometry.domain_from_name(name))
            assert rep.max_p01 == transition_probabilities(rep.argmax_p01, params)[0]
            assert rep.max_p10 == transition_probabilities(rep.argmax_p10, params)[1]


class TestClampRadii:
    def test_paper_params(self, paper_params):
        radii = clamp_radii(paper_params, geometry.SQUARE.diameter)
        assert len(radii) == 1
        p01, _ = transition_probabilities(radii[0] * (1 + 1e-9), paper_params)
        assert p01 == pytest.approx(1.0 - channel.CLAMP_EPS, rel=1e-6)

    def test_frozen(self):
        assert clamp_radii(ChannelParams(0.7, 2.0, 0.0, 12e6), 1.4) == []

    def test_p10_radius_closed_form(self):
        # B = 1 kHz: p01 and p10 both reach the cap inside the square
        params = ChannelParams(0.7, 2.0, 500.0, 1e3)
        hi = 1.0 - channel.CLAMP_EPS
        radii = clamp_radii(params, geometry.SQUARE.diameter)
        assert len(radii) == 2
        r10 = params.r0 * (hi * params.B / (SQRT_2PI * params.nu)) ** (2.0 / params.eta)
        assert r10 in radii
        root = brentq(lambda r: SQRT_2PI * params.nu * np.sqrt((r / params.r0) ** params.eta)
                      / params.B - hi, 1e-300, geometry.SQUARE.diameter,
                      xtol=1e-300, rtol=1e-15)
        assert r10 == pytest.approx(root, rel=1e-15, abs=0.0)
        assert transition_probabilities(r10 * (1 + 1e-12), params)[1] == hi
        assert transition_probabilities(r10 * (1 - 1e-12), params)[1] < hi


class TestSnrIndicator:
    def test_requires_positive_distance(self, paper_params, rng):
        with pytest.raises(ChannelError):
            snr_connection_indicator(0.0, paper_params, rng)

    def test_returns_link_state(self, paper_params, rng):
        state = snr_connection_indicator(0.7, paper_params, rng)
        assert state in (LinkState.OFF, LinkState.ON)

    def test_tiny_distance_almost_surely_on(self, paper_params, rng):
        draws = snr_connection_indicator(1e-6, paper_params, rng, size=2000)
        assert draws.mean() == 1.0

    def test_on_fraction_at_r0(self, paper_params, rng):
        n = 1_000_000
        frac = snr_connection_indicator(0.7, paper_params, rng, size=n).mean()
        p = np.exp(-1.0)
        assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n)

    def test_on_fraction_hand_value(self, paper_params, rng):
        n = 1_000_000
        frac = snr_connection_indicator(1.0, paper_params, rng, size=n).mean()
        p = np.exp(-(1.0 / 0.7) ** 2)  # 0.1299...
        assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n)

    def test_matches_connection_probability_on_grid(self, paper_params, rng):
        n = 1_000_000
        for r in np.linspace(0.1, 1.4, 10):
            p = connection_probability(r, paper_params)
            frac = snr_connection_indicator(r, paper_params, rng, size=n).mean()
            assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n), r

    def test_deterministic_under_seed(self, paper_params):
        a = snr_connection_indicator(0.7, paper_params, np.random.default_rng(5), size=100)
        b = snr_connection_indicator(0.7, paper_params, np.random.default_rng(5), size=100)
        assert np.array_equal(a, b)

"""Rayleigh-fading link model: connection function, LCR, transition matrix."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from netentropy import channel, cli, geometry, simulator
from netentropy.channel import (
    ChannelError,
    ChannelParams,
    clamp_radii,
    connection_probability,
    level_crossing_rate,
    link_probabilities,
    slow_fading_report,
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


@pytest.mark.parametrize("fn", [
    connection_probability, level_crossing_rate, transition_probabilities])
@pytest.mark.parametrize("r", [np.nan, np.array([0.1, np.nan, 0.5])],
                         ids=["scalar", "array"])
def test_nan_distance_rejected(fn, r, paper_params):
    with pytest.raises(ChannelError):
        fn(r, paper_params)


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
        # channel/connection-monotonicity covers [0, D]; this goes beyond D
        r = np.linspace(geometry.SQUARE.diameter, 2.0, 100)
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
        p01, p10 = transition_probabilities(0.7, paper_params)
        lcr = SQRT_2PI * 500.0 * np.exp(-1.0)
        assert p10 == pytest.approx(lcr / (np.exp(-1.0) * 12e6), rel=1e-12)
        assert p01 == pytest.approx(lcr / ((1 - np.exp(-1.0)) * 12e6), rel=1e-12)
        assert p10 == pytest.approx(1.0444e-4, abs=1e-8)
        assert p01 == pytest.approx(6.078e-5, abs=1e-8)

    def test_row_stochastic(self, paper_params):
        p01, p10 = transition_probabilities(0.9, paper_params)
        arr = np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-15)

    def test_frozen_chain(self):
        params = ChannelParams(r0=0.7, eta=2.0, nu=0.0, B=12e6)
        assert transition_probabilities(0.5, params) == (0.0, 0.0)

    def test_zero_distance_convention(self, paper_params):
        assert transition_probabilities(0.0, paper_params) == (0.0, 0.0)

    @pytest.mark.parametrize("r", [1e-18, 1e-30])
    def test_underflowed_power_clamps(self, r):
        # x = (r/r0)**eta underflows to 0 at r > 0, where p01 still diverges
        params = ChannelParams(r0=0.7, eta=19.0, nu=500.0, B=12e6)
        assert (r / params.r0) ** params.eta == 0.0
        hi = 1.0 - channel.CLAMP_EPS
        assert transition_probabilities(r, params) == (hi, 0.0)
        p01, _ = transition_probabilities(np.array([0.0, r, 1e-17]), params)
        assert p01.tolist() == [0.0, hi, hi]
        assert transition_probabilities(0.0, params) == (0.0, 0.0)
        frozen = ChannelParams(r0=0.7, eta=19.0, nu=0.0, B=12e6)
        assert transition_probabilities(r, frozen) == (0.0, 0.0)

    @pytest.mark.parametrize("r0, eta", [(1e-3, 120.0), (0.05, 300.0), (0.1, 400.0)])
    def test_overflowed_power_takes_its_limits(self, r0, eta):
        # x = (r/r0)**eta overflows at r = 1: p(r), the LCR and p01 vanish
        # there, without an overflow warning (warnings are errors here)
        params = ChannelParams(r0=r0, eta=eta, nu=500.0, B=12e6)
        with np.errstate(over="ignore"):
            assert np.float64(1.0 / r0) ** eta == np.inf
        hi = 1.0 - channel.CLAMP_EPS
        assert connection_probability(1.0, params) == 0.0
        assert level_crossing_rate(1.0, params) == 0.0
        assert transition_probabilities(1.0, params) == (0.0, hi)
        p01, p10 = transition_probabilities(np.array([1.0, 1.4]), params)
        assert p01.tolist() == [0.0, 0.0] and p10.tolist() == [hi, hi]
        frozen = ChannelParams(r0=r0, eta=eta, nu=0.0, B=12e6)
        assert transition_probabilities(1.0, frozen) == (0.0, 0.0)
        assert level_crossing_rate(1.0, frozen) == 0.0
        # the kernel takes a Python float as numpy does, not raising OverflowError
        _, p01, p10 = channel._unclamped_law(1.0, params)
        assert p01 == 0.0 and p10 > hi
        assert channel._unclamped_law(1.0, frozen)[1:] == (0.0, 0.0)

    def test_huge_nu_takes_its_limits(self, monkeypatch):
        # at nu = 1e300 the LCR's factor overflows where x is held at the
        # largest float; e**-x is 0 there, so p01 and the LCR take their
        # limit 0, and p10 its cap, with no warning of any kind
        params = ChannelParams(r0=1e-3, eta=120.0, nu=1e300, B=1e3)
        hi = 1.0 - channel.CLAMP_EPS
        seen = []
        real = simulator._thresholds

        def thresholds(p):
            seen.append(np.asarray(p))
            return real(p)

        monkeypatch.setattr(simulator, "_thresholds", thresholds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert link_probabilities(1.0, params) == (0.0, 0.0, hi)
            assert connection_probability(1.0, params) == 0.0
            assert level_crossing_rate(1.0, params) == 0.0
            p, p01, p10 = link_probabilities(np.array([1.0, 1e-3]), params)
            assert p01.tolist() == [0.0, hi] and p10.tolist() == [hi, hi]
            assert (level_crossing_rate(1e-3, params)
                    == pytest.approx(SQRT_2PI * 1e300 / np.e))
            report = slow_fading_report(params, geometry.SQUARE)
            assert not report.admissible and report.max_p10 == np.inf
            ens = simulator.simulate(simulator.SimConfig(
                n=4, t_steps=6, trials=2, seed=1, domain=geometry.SQUARE,
                params=params))
        assert seen and not any(np.isnan(p).any() for p in seen)
        assert not ens.states.any()

    def test_clamping_caps_p01(self, paper_params):
        # deep in the divergence region p01 is capped; p10 is far below the
        # cap and passes through as the kernel gives it
        p01, p10 = transition_probabilities(1e-6, paper_params)
        _, raw01, raw10 = channel._unclamped_law(1e-6, paper_params)
        assert raw01 > 1.0 - channel.CLAMP_EPS
        assert p01 == 1.0 - channel.CLAMP_EPS
        assert p10 == raw10

    def test_detailed_balance_and_stationarity(self, paper_params):
        # the on-probability of the chain's stationary law is p(r); on a
        # grid, detailed balance is channel/detailed-balance of validate
        for r in (0.3, 0.7, 1.2):
            p01, p10 = transition_probabilities(r, paper_params)
            assert p01 / (p01 + p10) == pytest.approx(
                connection_probability(r, paper_params), abs=1e-12)


# (r0, eta, nu, B): p01 clamped; p01 and p10 clamped; x underflowing at
# r = 1e-18; x overflowing at r = 1; two frozen chains
LAW_POINTS = [(0.7, 2.0, 500.0, 12e6), (0.7, 2.0, 500.0, 1e3), (0.7, 19.0, 500.0, 12e6),
              (0.05, 300.0, 500.0, 12e6), (0.7, 2.0, 0.0, 12e6), (0.7, 19.0, 0.0, 1e3)]


def law_distances(params, diameter):
    """0, an underflowed and an overflowed x, and the floats on both sides
    of each clamp radius of ``params``."""
    r = [0.0, 1e-30, 1e-18, 1e-6, 0.3, 1.0, diameter]
    for radius in clamp_radii(params, diameter):
        r += [np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf)]
    return np.array(r)


def reference_law(r, params):
    """Closed-form (p, p01, p10), each capped at 1 - CLAMP_EPS, written in
    the kernel's operation order so that it agrees bit for bit:
    x = (r/r0)**eta held at the largest float, p = e**-x,
    p10 = sqrt(2 pi) nu sqrt(x) / B and
    p01 = sqrt(2 pi) nu sqrt(x) p / (-expm1(-x) B).  p01 is 0 at r = 0, and
    +inf where x underflows at r > 0 (0 when nu = 0)."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        x = np.minimum((r / params.r0) ** params.eta, np.finfo(float).max)
    p = np.exp(-x)
    lcr = SQRT_2PI * params.nu * np.sqrt(x)
    p10 = lcr / params.B
    limit = np.where(r > 0.0, np.where(params.nu > 0.0, np.inf, 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p01 = np.where(x > 0.0, lcr * p / (-np.expm1(-x) * params.B), limit)
    hi = 1.0 - channel.CLAMP_EPS
    return p, np.minimum(p01, hi), np.minimum(p10, hi)


def fused_and_separate(r, params):
    """(p, p01, p10) of link_probabilities, then of connection_probability
    and transition_probabilities."""
    return [link_probabilities(r, params),
            (connection_probability(r, params), *transition_probabilities(r, params))]


class TestLinkProbabilities:
    """link_probabilities and the separate functions give the closed-form
    law bit for bit, the cap applied to both flips."""

    @pytest.mark.parametrize("r0, eta, nu, B", LAW_POINTS)
    def test_equals_separate_functions(self, r0, eta, nu, B):
        params = ChannelParams(r0, eta, nu, B)
        D = geometry.SQUARE.diameter
        r = law_distances(params, D)
        want = reference_law(r, params)
        for got in fused_and_separate(r, params):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        if nu > 0.0:
            assert (want[1] == 1.0 - channel.CLAMP_EPS).any()
        for one in (0.0, 1e-18, 1.0):
            want = [float(v) for v in reference_law(one, params)]
            for got in fused_and_separate(one, params):
                assert list(got) == want and all(isinstance(v, float) for v in got)

    @pytest.mark.parametrize("eta, B", [(2.0, 1e3), (19.0, 12e6), (300.0, 12e6)])
    def test_equals_separate_functions_over_points(self, eta, B):
        # (M, B) nodes, one column per point, each with its own radii
        params = ChannelParams([0.05, 0.3, 0.7, 1.1], eta, [500.0, 10.0, 0.0, 1e4], B)
        D = geometry.SQUARE.diameter
        cols = [law_distances(params.at(j), D) for j in range(4)]
        M = max(len(c) for c in cols)
        r = np.stack([np.pad(c, (0, M - len(c)), mode="edge") for c in cols], axis=1)
        want = reference_law(r, params)
        for got in fused_and_separate(r, params):
            for a, b in zip(got, want):
                assert a.shape == r.shape and np.array_equal(a, b)
        hi = 1.0 - channel.CLAMP_EPS
        assert (want[1] == hi).any() or (want[2] == hi).any()


class TestStationaryDistribution:
    def test_paper_point(self, paper_params):
        p01, p10 = transition_probabilities(0.7, paper_params)
        pi_on = p01 / (p01 + p10)
        assert 1.0 - pi_on == pytest.approx(0.6321, abs=2e-4)
        assert pi_on == pytest.approx(0.3679, abs=2e-4)


class TestSlowFading:
    def test_paper_point_admissible(self, paper_params):
        assert slow_fading_report(paper_params, geometry.SQUARE).admissible

    def test_paper_range_admissible(self):
        # channel/slow-fading covers the square at eta = 2 and 5
        for eta in (2.0, 3.5, 5.0):
            for nu in (1.0, 1000.0):
                for dom in geometry.DOMAINS:
                    if dom is geometry.SQUARE and eta != 3.5:
                        continue
                    rep = slow_fading_report(ChannelParams(0.7, eta, nu, 12e6), dom)
                    assert rep.admissible, (eta, nu, dom.name)

    def test_zero_doppler(self):
        rep = slow_fading_report(ChannelParams(0.7, 2.0, 0.0, 12e6), geometry.SQUARE)
        assert rep.admissible and rep.max_p01 == 0.0 and rep.max_p10 == 0.0

    def test_fast_fading_flagged(self):
        params = ChannelParams(r0=0.7, eta=2.0, nu=1e6, B=1e3)
        # the on->off entry already breaks the approximation at r = r0
        p10_at_r0 = SQRT_2PI * 1e6 / 1e3
        assert p10_at_r0 > channel.THETA_SLOW
        rep = slow_fading_report(params, geometry.SQUARE)
        assert rep.max_p10 >= p10_at_r0

    @pytest.mark.parametrize("params", [ChannelParams(0.7, 2.0, 500.0, 12e6),
                                        ChannelParams(0.3, 4.0, 1000.0, 12e6)])
    def test_scan_shares_the_rate_kernel(self, params):
        # below the cap the reported maxima are the clamped rates bit for bit
        for name in geometry.DOMAIN_NAMES:
            domain = geometry.domain_from_name(name)
            rep = slow_fading_report(params, domain)
            assert rep.max_p01 == transition_probabilities(rep.occupancy_radius, params)[0]
            assert rep.max_p10 == transition_probabilities(domain.diameter, params)[1]


def scan_reference(params, domain):
    """(occupancy radius, max p01, max p10) from the 2,048-point geometric
    scan of the unclamped rates that the admissibility report's two ends
    replaced: p01 on [occupancy radius, D], p10 on [R_MIN_FRACTION * D, D].
    Arrays for a batch, floats for one point."""
    pts, D = params.batch(), domain.diameter
    x_occ = -np.log1p(-channel.OCCUPANCY_FLOOR)
    lo = np.minimum(np.maximum(channel.R_MIN_FRACTION * D, pts.r0 * x_occ ** (1.0 / pts.eta)), D)
    grid01 = np.geomspace(lo, D, 2048)
    grid10 = np.geomspace(min(channel.R_MIN_FRACTION * D, D), D, 2048)[:, None]
    p01 = channel._unclamped_law(grid01, params.squeezed())[1].max(axis=0)
    p10 = channel._unclamped_law(grid10, params.squeezed())[2].max(axis=0)
    if not params.shape:
        return lo[0].item(), p01[0].item(), p10[0].item()
    return lo, p01, p10


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(r0=log_uniform(1e-3, 10.0), eta=st.floats(0.5, 12.0), nu=log_uniform(1.0, 1e5),
       B=log_uniform(1e3, 1e8), name=st.sampled_from(geometry.DOMAIN_NAMES),
       seed=st.integers(0, 2**32 - 1))
@example(r0=1e-3, eta=120.0, nu=1e5, B=1e3, name="square", seed=0)
@example(r0=0.1, eta=400.0, nu=1e6, B=1e3, name="disk", seed=1)
@example(r0=0.05, eta=400.0, nu=1.0, B=1e3, name="triangle", seed=2)
@example(r0=0.7, eta=2.0, nu=0.0, B=1e3, name="square", seed=3)
def test_report_ends_are_the_scan_maxima(r0, eta, nu, B, name, seed):
    params = ChannelParams(r0, eta, nu, B)
    domain = geometry.domain_from_name(name)
    rep = slow_fading_report(params, domain)
    lo, max_p01, max_p10 = scan_reference(params, domain)
    assert rep.occupancy_radius == lo
    assert rep.max_p01 == max_p01 and rep.max_p10 == max_p10
    assert rep.admissible == (max(max_p01, max_p10) <= channel.THETA_SLOW)
    # the monotonicity the ends rest on, on sorted random radii in (0, D)
    r = np.sort(np.random.default_rng(seed).uniform(0.0, domain.diameter, 64))
    _, p01, p10 = channel._unclamped_law(r, params)
    assert np.all(p01[1:] <= p01[:-1]) and np.all(p10[1:] >= p10[:-1])


def brentq_p01_radius(params, diameter):
    """brentq root of the unclamped p01 at the cap, bracketed where the
    kernel's x = (r/r0)**eta is 1e-300, far from underflow, or at r = 1e-300
    where that radius is smaller (eta < 1), with x above 1e-300 there."""
    hi = 1.0 - channel.CLAMP_EPS
    r_lo = max(params.r0 * 1e-300 ** (1.0 / params.eta), 1e-300)
    # across a bracket of some 300 decades at eta < 1, brentq can need about
    # 120 iterations, past its default limit of 100
    return brentq(lambda r: channel._unclamped_law(r, params)[1] - hi,
                  r_lo, diameter, xtol=1e-300, rtol=1e-15, maxiter=500)


def p01_radius_ulps(params):
    """Ulps of r the p01 radius may sit from brentq's: 8, or 16/eta below
    eta = 2.  At small x p01 goes as (r/r0)**(-eta/2), so a last-bit error in
    p01 moves its crossing by 2/eta times as many ulps in r."""
    return 8 * max(1.0, 2.0 / params.eta)


def assert_p01_radius(params, radius, diameter):
    """p01 root within a few ulps of brentq's, the cap crossed around it."""
    hi = 1.0 - channel.CLAMP_EPS
    ref = brentq_p01_radius(params, diameter)
    assert abs(radius - ref) <= p01_radius_ulps(params) * np.spacing(ref), (radius, ref)
    p01_above = channel._unclamped_law(radius * (1 + 1e-12), params)[1]
    p01_below = channel._unclamped_law(radius * (1 - 1e-12), params)[1]
    assert p01_above <= hi < p01_below


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(r0=log_uniform(1e-3, 10.0), eta=st.floats(0.5, 12.0), nu=log_uniform(1.0, 1e5),
       B=log_uniform(1e3, 1e8), name=st.sampled_from(geometry.DOMAIN_NAMES))
@example(r0=2.5, eta=1.1, nu=6.6, B=12e6, name="square")
def test_p01_radius_is_the_kernel_crossing(r0, eta, nu, B, name):
    params = ChannelParams(r0, eta, nu, B)
    D = geometry.domain_from_name(name).diameter
    hi = 1.0 - channel.CLAMP_EPS
    # p01 diverges at 0+, so it crosses the cap in (0, D) unless it is above
    # it at D
    assume(channel._unclamped_law(D, params)[1] <= hi)
    # the p01 radius, picked by the crossing: where p10 also clamps, its
    # radius can sort first; the two floats go in one call, as a scalar call
    # and an array call of the kernel can differ in the last bit
    crossing = [r for r in clamp_radii(params, D) if (channel._unclamped_law(
        np.array([np.nextafter(r, 0.0), r]), params)[1] > hi).tolist() == [True, False]]
    assert len(crossing) == 1
    ref = brentq_p01_radius(params, D)
    bound = p01_radius_ulps(params) * np.spacing(ref)
    assert abs(crossing[0] - ref) <= bound, (crossing[0], ref)


class TestClampRadii:
    @pytest.mark.parametrize("domain", geometry.DOMAINS, ids=geometry.DOMAIN_NAMES)
    @pytest.mark.parametrize("r0, eta, nu", [
        (0.05, 2.0, 500.0), (0.3, 2.0, 10.0), (0.7, 2.0, 500.0),
        (0.7, 4.0, 1000.0), (1.1, 3.0, 1.0), (2.5, 1.1, 6.6), (0.7, 12.0, 500.0),
    ])
    def test_p01_radius_matches_brentq(self, domain, r0, eta, nu):
        params = ChannelParams(r0, eta, nu, 12e6)
        radii = clamp_radii(params, domain.diameter)
        assert len(radii) == 1
        assert_p01_radius(params, radii[0], domain.diameter)

    @pytest.mark.parametrize("r0", [0.7, 1.0])
    def test_p01_radius_at_large_eta(self, r0):
        # (r/r0)**19 underflows below r ~ 1e-17 * r0: the old bracket there
        # read p01 = 0 and dropped the radius, though p01(0.2) is about 15
        params = ChannelParams(r0, 19.0, 500.0, 12e6)
        hi = 1.0 - channel.CLAMP_EPS
        assert channel._unclamped_law(0.2, params)[1] > hi
        radii = clamp_radii(params, geometry.SQUARE.diameter)
        assert len(radii) == 1
        assert_p01_radius(params, radii[0], geometry.SQUARE.diameter)

    def test_paper_params(self, paper_params):
        radii = clamp_radii(paper_params, geometry.SQUARE.diameter)
        assert len(radii) == 1
        p01, _ = transition_probabilities(radii[0] * (1 + 1e-9), paper_params)
        assert p01 == pytest.approx(1.0 - channel.CLAMP_EPS, rel=1e-6)

    def test_frozen(self):
        assert clamp_radii(ChannelParams(0.7, 2.0, 0.0, 12e6), 1.4) == []

    def test_p01_radius_underflowing_to_zero(self):
        # at the smallest subnormal r0, r0 * x01**(1/eta) is 0: the walk ends
        # there, and only the p10 radius is reported
        params = ChannelParams(5e-324, 1.0, 500.0, 12e6)
        radii = clamp_radii(params, 1.4)
        assert radii == scalar_clamp_radii(params, 1.4) and len(radii) == 1

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
        (r01,) = [r for r in radii if r != r10]
        assert_p01_radius(params, r01, geometry.SQUARE.diameter)


# where each round of the reference k-section cuts its bracket: 255 cuts
# reach adjacent floats in about eight rounds
KSECTION_STEPS = np.arange(1.0, 256.0) / 256.0


def scalar_clamp_radii(params, diameter):
    """Clamp radii of one point by a scalar k-section over the float64 bit
    patterns of r, one bracket at a time, from the radius where x is the
    smallest normal float: the reference the x solve and its walk to the
    kernel's crossing reproduce bit for bit."""
    if params.nu == 0.0:
        return []
    hi = 1.0 - channel.CLAMP_EPS
    r_lo = max(params.r0 * channel._TINY ** (1.0 / params.eta), channel._TINY)
    ends = np.array([r_lo, diameter])
    _, p01, p10 = channel._unclamped_law(ends, params)
    radii = []
    if r_lo < diameter and p01[0] > hi and p01[1] <= hi:
        lo, up = ends.view(np.int64).tolist()
        while up - lo > 1:
            bits = lo + ((up - lo) * KSECTION_STEPS).astype(np.int64)
            above = channel._unclamped_law(bits.view(np.float64), params)[1] > hi
            i = int(above.argmin())
            if above[i]:
                lo = int(bits[-1])
            else:
                up = int(bits[i])
                if i:
                    lo = int(bits[i - 1])
        radii.append(float(np.int64(up).view(np.float64)))
    if p10[1] > hi:
        radii.append(params.r0 * (hi * params.B / (SQRT_2PI * params.nu)) ** (2.0 / params.eta))
    return sorted(float(r) for r in radii if 0.0 < r < diameter)


def mixed_batch(rng, eta):
    """A batch of points holding 0, 1 and 2 clamp radii at B = 1 kHz: nu = 0
    has none, small nu only the p01 radius, large nu the p10 one as well."""
    nu = np.concatenate([[0.0, 1.0, 500.0], 10.0 ** rng.uniform(-2.0, 4.0, 5)])
    r0 = 10.0 ** rng.uniform(-1.3, 0.2, len(nu))
    return ChannelParams(r0, eta, nu, 1e3)


def default_sweep_batch(variable, eta):
    """The batch of one (domain, eta) of the default ``bounds-sweep`` over
    ``variable``: 40 points of r0 or nu, the other parameters at their
    defaults."""
    if variable == "r0":
        d_max = max(d.diameter for d in geometry.DOMAINS)
        return ChannelParams(np.geomspace(0.05, d_max, cli.DEFAULT_GRID_POINTS), eta, 500.0, 12e6)
    return ChannelParams(0.7, eta, np.geomspace(1.0, 1000.0, cli.DEFAULT_GRID_POINTS), 12e6)


# the mixed batches, then the 18 batches of the two default sweeps, with the
# radius counts each batch covers
RADII_BATCHES = [
    pytest.param(batch, eta, domain, counts, id=f"{eta}-{domain.name}" if batch == "mixed"
                 else f"{batch}-{eta}-{domain.name}")
    for batch, counts in (("mixed", {0, 1, 2}), ("r0", {1}), ("nu", {1}))
    for eta in (2.0, 3.0, 4.0) for domain in geometry.DOMAINS]


class TestBatchedPoints:
    """A batch of points (r0 and nu arrays) gives each point its own numbers."""

    @pytest.mark.parametrize("batch, eta, domain, counts", RADII_BATCHES)
    def test_radii_equal_scalar_ksection(self, batch, eta, domain, counts, rng):
        params = mixed_batch(rng, eta) if batch == "mixed" else default_sweep_batch(batch, eta)
        radii = clamp_radii(params, domain.diameter)
        want = [scalar_clamp_radii(params.at(j), domain.diameter)
                for j in range(len(params.r0))]
        assert radii == want
        assert {len(r) for r in want} == counts

    @pytest.mark.parametrize("domain", geometry.DOMAINS, ids=geometry.DOMAIN_NAMES)
    def test_admissibility_equals_point_reports(self, domain, rng):
        params = ChannelParams(10.0 ** rng.uniform(-1.5, 0.3, 9), 3.0,
                               10.0 ** rng.uniform(-1.0, 6.0, 9), 1e5)
        rep = slow_fading_report(params, domain)
        assert 0 < np.count_nonzero(rep.admissible) < 9
        for j in range(9):
            point = slow_fading_report(params.at(j), domain)
            for name, value in dataclasses.asdict(point).items():
                assert np.ndim(getattr(rep, name)) == (name != "threshold")
                assert value == (getattr(rep, name) if name == "threshold"
                                 else getattr(rep, name)[j]), name
            # the reported maxima are the kernel's over the replaced scan
            assert (point.occupancy_radius, point.max_p01, point.max_p10) \
                == scan_reference(params.at(j), domain)

    def test_rates_broadcast_over_points(self, rng):
        params = mixed_batch(rng, 3.0)
        r = np.linspace(0.0, 1.4, 50)[:, None]
        p01, p10 = transition_probabilities(r, params)
        assert p01.shape == (50, len(params.r0))
        for j in range(len(params.r0)):
            one = transition_probabilities(r[:, 0], params.at(j))
            assert np.array_equal(p01[:, j], one[0]) and np.array_equal(p10[:, j], one[1])
            assert np.array_equal(connection_probability(r, params)[:, j],
                                  connection_probability(r[:, 0], params.at(j)))

    @pytest.mark.parametrize("kwargs", [
        dict(r0=[0.5, 0.7], eta=2.0, nu=[1.0, 2.0, 3.0], B=12e6),
        dict(r0=[[0.5, 0.7]], eta=2.0, nu=500.0, B=12e6),
        dict(r0=0.7, eta=[2.0, 3.0], nu=500.0, B=12e6),
        dict(r0=0.7, eta=2.0, nu=500.0, B=[1e6, 2e6]),
        dict(r0=[0.5, 0.0], eta=2.0, nu=500.0, B=12e6),
        dict(r0=0.7, eta=2.0, nu=[500.0, -1.0], B=12e6),
        dict(r0=[0.5, np.nan], eta=2.0, nu=500.0, B=12e6),
    ])
    def test_batch_validation(self, kwargs):
        with pytest.raises(ChannelError):
            ChannelParams(**kwargs)

    def test_batch_arrays_are_read_only_copies(self):
        r0 = np.array([0.5, 0.7])
        params = ChannelParams(r0, 2.0, 500.0, 12e6)
        r0[0] = 9.0
        assert params.r0.tolist() == [0.5, 0.7] and params.nu.tolist() == [500.0, 500.0]
        assert params.shape == (2,) and params.at(1) == ChannelParams(0.7, 2.0, 500.0, 12e6)
        with pytest.raises(ValueError):
            params.r0[0] = 1.0

    def test_views_match_checked_points(self):
        # batch(), at() and squeezed() skip the checks their source passed;
        # they must still give what a checked construction gives
        params = ChannelParams(np.array([0.5, 0.7, 0.9]), 2.0, 500.0, 12e6)
        one = ChannelParams(0.7, 2.0, 500.0, 12e6)
        views = {"batch": (one.batch(), ChannelParams([0.7], 2.0, [500.0], 12e6)),
                 "at int": (params.at(1), one),
                 "at list": (params.at([2, 0]), ChannelParams([0.9, 0.5], 2.0, 500.0, 12e6)),
                 "at mask": (params.at(np.array([False, True, True])),
                             ChannelParams([0.7, 0.9], 2.0, 500.0, 12e6)),
                 "at slice": (params.at(slice(1, None)),
                              ChannelParams([0.7, 0.9], 2.0, 500.0, 12e6)),
                 "squeezed": (params.at([1]).squeezed(), one)}
        for name, (view, checked) in views.items():
            assert type(view) is ChannelParams, name
            for field in ("r0", "eta", "nu", "B"):
                got, want = getattr(view, field), getattr(checked, field)
                assert np.shape(got) == np.shape(want), (name, field)
                assert np.array_equal(got, want), (name, field)
                if np.ndim(got):
                    assert got.dtype == float and not got.flags.writeable, (name, field)
        with pytest.raises(ChannelError):
            params.at([])


def snr_on_fraction(r, params, rng, n):
    """On-fraction of n exponential SNR draws of mean (r/r0)**-eta at threshold 1."""
    return np.mean(rng.exponential((r / params.r0) ** -params.eta, n) >= 1.0)


class TestSnrIndicator:
    def test_tiny_distance_almost_surely_on(self, paper_params, rng):
        assert snr_on_fraction(1e-6, paper_params, rng, 2000) == 1.0

    def test_on_fraction_at_r0(self, paper_params, rng):
        n = 1_000_000
        frac = snr_on_fraction(0.7, paper_params, rng, n)
        p = np.exp(-1.0)
        assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n)

    def test_on_fraction_hand_value(self, paper_params, rng):
        n = 1_000_000
        frac = snr_on_fraction(1.0, paper_params, rng, n)
        p = np.exp(-(1.0 / 0.7) ** 2)  # 0.1299...
        assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n)

    def test_matches_connection_probability_on_grid(self, paper_params, rng):
        n = 1_000_000
        for r in np.linspace(0.1, 1.4, 10):
            p = connection_probability(r, paper_params)
            frac = snr_on_fraction(r, paper_params, rng, n)
            assert abs(frac - p) < 3.0 * np.sqrt(p * (1 - p) / n), r

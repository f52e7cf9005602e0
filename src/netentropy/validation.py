"""Self-check registry behind the ``validate`` CLI subcommand.

Each check is registered in :data:`CHECKS`, in the order ``validate`` prints
them, under the name it prints, and returns a :class:`CheckResult`.
``fast`` runs reduced grids and sample counts (a few seconds), ``full`` the
complete grids.  The test suite runs every registered check at ``full``, so
each invariant is written once, here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import channel, entropy, geometry, simulator
from .channel import ChannelParams
from .quadrature import QuadratureSpec, integrate_piecewise

PAPER_PARAMS = ChannelParams(r0=0.7, eta=2.0, nu=500.0, B=12e6)
TIGHT_SPEC = QuadratureSpec(nodes_per_panel=24, rel_tolerance=1e-11, max_depth=16)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


CHECKS: List[Callable[[str], CheckResult]] = []


def _check(name: str):
    """Register a check returning (passed, detail) as one printed ``name``."""
    def register(fn):
        @functools.wraps(fn)
        def check(level: str) -> CheckResult:
            passed, detail = fn(level)
            return CheckResult(name=name, passed=bool(passed), detail=detail)
        check.name = name
        CHECKS.append(check)
        return check
    return register


@_check("geometry/density-normalization")
def check_density_normalization(level: str):
    worst = 0.0
    for dom in geometry.DOMAINS:
        dens = dom.distance_density()
        val = integrate_piecewise(dens.pdf, dens.breakpoints, TIGHT_SPEC)
        worst = max(worst, abs(val - 1.0))
    return worst <= 1e-9, f"max |integral - 1| = {worst:.2e} (limit 1e-09)"


@_check("geometry/density-endpoints")
def check_density_endpoints(level: str):
    worst = 0.0
    for dom in geometry.DOMAINS:
        dens = dom.distance_density()
        worst = max(worst, abs(dens.pdf(0.0)), abs(dens.pdf(dom.diameter)))
    return worst <= 1e-9, f"max |f_R| at support ends = {worst:.2e}"


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with df degrees of freedom, in closed form.

    With h = x/2, even df gives the finite Poisson sum of e**-h h**k / k!
    over k = 0, 1 .. df/2 - 1.  Odd df gives Abramowitz & Stegun 26.4.4:
    erfc(sqrt h) plus sqrt(2/pi) e**-h x**k / (1 * 3 * .. * 2k) over
    k = 1/2, 3/2 .. df/2 - 1, which is the same term with Gamma(k + 1) for
    k!.  Each term is formed from its logarithm, so none overflows or
    underflows before the sum.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    k = df % 2 / 2.0
    while k < df / 2.0:
        total += math.exp(k * math.log(h) - h - math.lgamma(k + 1.0))
        k += 1.0
    return total


@_check("geometry/distance-histogram")
def check_distance_histogram(level: str):
    n = 1_000_000 if level == "full" else 200_000
    bins = 200 if level == "full" else 50
    worst_p = 1.0
    for dom in geometry.DOMAINS:
        cfg = simulator.SimConfig(n=2, t_steps=1, trials=n, seed=20240801,
                                  domain=dom, params=PAPER_PARAMS)
        d = simulator.sample_positions(cfg)[1][:, 0]
        edges = np.linspace(0.0, dom.diameter, bins + 1)
        observed, _ = np.histogram(d, bins=edges)
        expected = dom.distance_density().interval_probabilities(edges) * n
        keep = expected > 5
        stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        pval = _chi2_sf(stat, int(np.count_nonzero(keep)) - 1)
        worst_p = min(worst_p, pval)
    return worst_p > 0.01, f"min chi-square p-value = {worst_p:.4f} (limit 0.01)"


@_check("channel/detailed-balance")
def check_detailed_balance(level: str):
    worst = 0.0
    for eta in (2.0, 3.0, 4.0):
        params = ChannelParams(r0=0.7, eta=eta, nu=500.0, B=12e6)
        D = geometry.SQUARE.diameter
        r = np.geomspace(channel.R_MIN_FRACTION * D, D, 200)
        p = channel.connection_probability(r, params)
        p01, p10 = channel.transition_probabilities(r, params)
        unclamped = p01 < 1.0 - channel.CLAMP_EPS
        worst = max(worst, float(np.max(np.abs(
            (1.0 - p[unclamped]) * p01[unclamped] - p[unclamped] * p10[unclamped]))))
    return worst <= 1e-12, f"max |(1-p) p01 - p p10| = {worst:.2e} (limit 1e-12)"


@_check("channel/connection-monotonicity")
def check_connection_monotonicity(level: str):
    r = np.linspace(0.0, geometry.SQUARE.diameter, 400)
    ok = True
    for eta in (2.0, 3.0, 4.0, 5.0):
        params = ChannelParams(r0=0.7, eta=eta, nu=500.0, B=12e6)
        p = channel.connection_probability(r, params)
        ok &= bool(np.all(np.diff(p) < 0.0))
    # derivative in eta flips sign at r = r0
    lo = channel.connection_probability(0.5, ChannelParams(0.7, 2.0, 500.0, 12e6))
    lo2 = channel.connection_probability(0.5, ChannelParams(0.7, 3.0, 500.0, 12e6))
    hi = channel.connection_probability(1.0, ChannelParams(0.7, 2.0, 500.0, 12e6))
    hi2 = channel.connection_probability(1.0, ChannelParams(0.7, 3.0, 500.0, 12e6))
    ok &= lo2 > lo and hi2 < hi
    return ok, "p(r) decreasing; eta-sensitivity flips sign at r0"


@_check("channel/lcr-shape")
def check_lcr_shape(level: str):
    params = PAPER_PARAMS
    r = np.linspace(1e-4, geometry.SQUARE.diameter, 2000)
    lcr = channel.level_crossing_rate(r, params)
    d = np.diff(lcr)
    sign_changes = int(np.count_nonzero(np.diff(np.sign(d)) != 0))
    doubled = channel.level_crossing_rate(
        r, ChannelParams(params.r0, params.eta, 2 * params.nu, params.B))
    linear = float(np.max(np.abs(doubled - 2 * lcr)))
    ok = sign_changes == 1 and linear <= 1e-9 * np.max(lcr)
    return ok, (
        f"interior maxima = {sign_changes} (want 1); |LCR(2nu)-2LCR(nu)| = {linear:.2e}")


@_check("channel/slow-fading")
def check_slow_fading(level: str):
    ok = True
    for eta in (2.0, 5.0):
        for nu in (1.0, 1000.0):
            rep = channel.slow_fading_report(
                ChannelParams(0.7, eta, nu, 12e6), geometry.SQUARE)
            ok &= rep.admissible
    bad = channel.slow_fading_report(ChannelParams(0.7, 2.0, 1e6, 1e3), geometry.SQUARE)
    ok &= not bad.admissible
    return ok, ("paper range admissible, extreme Doppler flagged" if ok
                else "admissibility flags wrong")


@_check("entropy/averaged-row-sums")
def check_averaged_row_sums(level: str):
    worst = 0.0
    domains = geometry.DOMAINS if level == "full" else (geometry.SQUARE,)
    for dom in domains:
        m = entropy.edge_moments(dom, PAPER_PARAMS)
        for row in (m.p00 + m.p01, m.p10 + m.p11):
            worst = max(worst, abs(row - 1.0))
    return worst <= 1e-8, f"max |row sum - 1| = {worst:.2e} (limit 1e-08)"


@_check("entropy/conditioning-inequality")
def check_conditioning_inequality(level: str):
    etas = (2.0, 3.0, 4.0) if level == "full" else (2.0,)
    worst = -np.inf
    for dom in geometry.DOMAINS:
        for eta in etas:
            params = ChannelParams(0.7, eta, 500.0, 12e6)
            b = entropy.entropy_rate_bounds(2, dom, params)
            worst = max(worst, b.per_edge_lower - b.per_edge_upper)
    return worst <= 1e-12, f"max (lower - upper) = {worst:.2e}"


@_check("entropy/block-entropy-monotone")
def check_block_entropy_monotone(level: str):
    t_max = 12 if level == "full" else 8
    _, h = entropy.block_entropy_profile(geometry.SQUARE, PAPER_PARAMS, t_max)
    worst = float(np.max(np.diff(h)))
    return worst <= 1e-12, f"max h_(t+1) - h_t = {worst:.2e} over t=1..{t_max}"


@_check("entropy/sandwich")
def check_sandwich(level: str):
    if level == "full":
        domains = geometry.DOMAINS
        r0s, nus, etas = (0.3, 0.7, 1.1), (10.0, 100.0, 500.0, 1000.0), (2.0, 3.0, 4.0)
    else:
        domains, r0s, nus, etas = (geometry.SQUARE,), (0.7,), (500.0,), (2.0,)
    worst = -np.inf
    for dom in domains:
        for r0 in r0s:
            for nu in nus:
                for eta in etas:
                    params = ChannelParams(r0, eta, nu, 12e6)
                    b = entropy.entropy_rate_bounds(2, dom, params)
                    h8 = entropy.block_entropy_oracle(dom, params, 8).conditional_increment
                    worst = max(worst, b.per_edge_lower - h8, h8 - b.per_edge_upper)
    return worst <= 1e-6, f"max bound violation = {worst:.2e} (slack 1e-06)"


@_check("entropy/quadrature-stability")
def check_quadrature_stability(level: str):
    base = QuadratureSpec(nodes_per_panel=16)
    double = QuadratureSpec(nodes_per_panel=32)
    b1 = entropy.entropy_rate_bounds(2, geometry.SQUARE, PAPER_PARAMS, base)
    b2 = entropy.entropy_rate_bounds(2, geometry.SQUARE, PAPER_PARAMS, double)
    drift = max(abs(b1.per_edge_lower - b2.per_edge_lower),
                abs(b1.per_edge_upper - b2.per_edge_upper))
    return drift <= 1e-6, f"doubling nodes shifts bounds by {drift:.2e} bits (limit 1e-06)"


@_check("entropy/network-scaling")
def check_network_scaling(level: str):
    b50 = entropy.entropy_rate_bounds(50, geometry.SQUARE, PAPER_PARAMS)
    ok = (b50.network_upper == math.comb(50, 2) * b50.per_edge_upper
          and b50.network_lower == math.comb(50, 2) * b50.per_edge_lower)
    return ok, "network bounds are exactly C(n,2) times per-edge values"


@_check("simulator/determinism")
def check_simulator_determinism(level: str):
    ok = True
    for dom in geometry.DOMAINS:
        cfg = simulator.SimConfig(n=5, t_steps=10, trials=20, seed=123,
                                  domain=dom, params=PAPER_PARAMS)
        a = simulator.simulate(cfg)
        b = simulator.simulate(cfg)
        ok &= all(np.array_equal(x, y) for x, y in (
            (a.positions, b.positions), (a.distances, b.distances), (a.states, b.states)))
    return ok, (
        "identical config gives bit-identical ensembles" if ok else "seeded run diverged")


@_check("simulator/snapshot-shape")
def check_snapshot_shape(level: str):
    cfg = simulator.SimConfig(n=7, t_steps=4, trials=3, seed=5,
                              domain=geometry.TRIANGLE, params=PAPER_PARAMS)
    ens = simulator.simulate(cfg)
    ok = True
    for trial in range(cfg.trials):
        for step in range(cfg.t_steps):
            adj = ens.snapshot(trial, step)
            ok &= np.array_equal(adj, adj.T) and not np.any(np.diag(adj))
    return ok, "snapshots symmetric with zero diagonal"


@_check("simulator/stationarity")
def check_simulator_stationarity(level: str):
    trials = 3000 if level == "full" else 800
    cfg = simulator.SimConfig(n=8, t_steps=10, trials=trials, seed=77,
                              domain=geometry.SQUARE,
                              params=ChannelParams(0.7, 2.0, 20000.0, 1e6))
    ok = simulator.stationarity_check(simulator.simulate(cfg)).passed
    drifted = simulator.stationarity_check(
        simulator.simulate(cfg, initial_state="all_off")).passed
    return ok and not drifted, "stationary start flat, all-off start flagged"


@_check("simulator/edge-density")
def check_edge_density(level: str):
    trials = 40_000 if level == "full" else 8_000
    cfg = simulator.SimConfig(n=2, t_steps=4, trials=trials, seed=2024,
                              domain=geometry.SQUARE, params=PAPER_PARAMS)
    ens = simulator.simulate(cfg)
    p_bar = entropy.edge_moments(geometry.SQUARE, PAPER_PARAMS).p_on
    density = float(ens.states.mean())
    se = np.sqrt(p_bar * (1 - p_bar) / ens.states.size)
    z = abs(density - p_bar) / se
    # the paired-window correlation inflates the plain binomial error a bit
    return z <= 5.0, f"pooled edge density off by {z:.2f} binomial sigma (limit 5)"



def run_checks(level: str = "fast") -> List[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    return [check(level) for check in CHECKS]

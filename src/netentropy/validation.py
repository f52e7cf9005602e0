"""Self-check suites behind the ``validate`` CLI subcommand.

Each check returns a :class:`CheckResult`; ``fast`` runs reduced grids and
sample counts (well under a minute), ``full`` the complete grids from the
module invariants.  ``inject_fault`` deliberately perturbs a named check so
the harness itself can be shown to catch regressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import channel, entropy, geometry, simulator
from .channel import ChannelParams
from .quadrature import QuadratureSpec, integrate_piecewise

PAPER_PARAMS = ChannelParams(r0=0.7, eta=2.0, nu=500.0, B=12e6)
TIGHT_SPEC = QuadratureSpec(nodes_per_panel=24, rel_tolerance=1e-11, max_depth=16)

FAULTS = ("detailed-balance",)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_density_normalization(level: str) -> CheckResult:
    worst = 0.0
    for dom in geometry.DOMAINS:
        dens = dom.distance_density()
        val = integrate_piecewise(dens.pdf, dens.breakpoints, TIGHT_SPEC)
        worst = max(worst, abs(val - 1.0))
    return _result("geometry/density-normalization", worst <= 1e-9,
                   f"max |integral - 1| = {worst:.2e} (limit 1e-09)")


def check_density_endpoints(level: str) -> CheckResult:
    worst = 0.0
    for dom in geometry.DOMAINS:
        dens = dom.distance_density()
        worst = max(worst, abs(dens.pdf(0.0)), abs(dens.pdf(dom.diameter)))
    return _result("geometry/density-endpoints", worst <= 1e-9,
                   f"max |f_R| at support ends = {worst:.2e}")


def check_distance_histogram(level: str) -> CheckResult:
    from scipy.stats import chi2
    n = 1_000_000 if level == "full" else 200_000
    bins = 200 if level == "full" else 50
    worst_p = 1.0
    rng = np.random.default_rng(20240801)
    for dom in geometry.DOMAINS:
        d = geometry.sample_distance(dom, rng, size=n)
        edges = np.linspace(0.0, dom.diameter, bins + 1)
        observed, _ = np.histogram(d, bins=edges)
        cdf = dom.distance_density().cdf(edges)
        expected = np.diff(cdf) * n
        keep = expected > 5
        stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        pval = float(chi2.sf(stat, np.count_nonzero(keep) - 1))
        worst_p = min(worst_p, pval)
    return _result("geometry/distance-histogram", worst_p > 0.01,
                   f"min chi-square p-value = {worst_p:.4f} (limit 0.01)")


def check_sampling_reproducibility(level: str) -> CheckResult:
    ok = True
    for dom in geometry.DOMAINS:
        a = dom.sample_points(np.random.default_rng(99), 64)
        b = dom.sample_points(np.random.default_rng(99), 64)
        ok &= np.array_equal(a, b)
    return _result("geometry/sampling-reproducibility", ok,
                   "identical seeds give identical samples" if ok else "seeded sampling diverged")


def check_detailed_balance(level: str, perturbation: float = 0.0) -> CheckResult:
    worst = 0.0
    for eta in (2.0, 3.0, 4.0):
        params = ChannelParams(r0=0.7, eta=eta, nu=500.0, B=12e6)
        D = geometry.SQUARE.diameter
        r = np.geomspace(channel.R_MIN_FRACTION * D, D, 200)
        p = channel.connection_probability(r, params)
        p01, p10 = channel.transition_probabilities(r, params)
        p01 = p01 + perturbation
        unclamped = p01 < 1.0 - channel.CLAMP_EPS
        worst = max(worst, float(np.max(np.abs(
            (1.0 - p[unclamped]) * p01[unclamped] - p[unclamped] * p10[unclamped]))))
    return _result("channel/detailed-balance", worst <= 1e-12,
                   f"max |(1-p) p01 - p p10| = {worst:.2e} (limit 1e-12)")


def check_connection_monotonicity(level: str) -> CheckResult:
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
    return _result("channel/connection-monotonicity", ok,
                   "p(r) decreasing; eta-sensitivity flips sign at r0")


def check_lcr_shape(level: str) -> CheckResult:
    params = PAPER_PARAMS
    r = np.linspace(1e-4, geometry.SQUARE.diameter, 2000)
    lcr = channel.level_crossing_rate(r, params)
    d = np.diff(lcr)
    sign_changes = int(np.count_nonzero(np.diff(np.sign(d)) != 0))
    doubled = channel.level_crossing_rate(
        r, ChannelParams(params.r0, params.eta, 2 * params.nu, params.B))
    linear = float(np.max(np.abs(doubled - 2 * lcr)))
    ok = sign_changes == 1 and linear <= 1e-9 * np.max(lcr)
    return _result("channel/lcr-shape", ok,
                   f"interior maxima = {sign_changes} (want 1); |LCR(2nu)-2LCR(nu)| = {linear:.2e}")


def check_slow_fading(level: str) -> CheckResult:
    ok = True
    for eta in (2.0, 5.0):
        for nu in (1.0, 1000.0):
            rep = channel.slow_fading_report(
                ChannelParams(0.7, eta, nu, 12e6), geometry.SQUARE)
            ok &= rep.admissible
    bad = channel.slow_fading_report(ChannelParams(0.7, 2.0, 1e6, 1e3), geometry.SQUARE)
    ok &= not bad.admissible
    return _result("channel/slow-fading", ok,
                   "paper range admissible, extreme Doppler flagged" if ok
                   else "admissibility flags wrong")


def check_averaged_row_sums(level: str) -> CheckResult:
    worst = 0.0
    domains = geometry.DOMAINS if level == "full" else (geometry.SQUARE,)
    for dom in domains:
        m = entropy.edge_moments(dom, PAPER_PARAMS)
        for row in (m.p00 + m.p01, m.p10 + m.p11):
            worst = max(worst, abs(row - 1.0))
    return _result("entropy/averaged-row-sums", worst <= 1e-8,
                   f"max |row sum - 1| = {worst:.2e} (limit 1e-08)")


def check_conditioning_inequality(level: str) -> CheckResult:
    etas = (2.0, 3.0, 4.0) if level == "full" else (2.0,)
    worst = -np.inf
    for dom in geometry.DOMAINS:
        for eta in etas:
            params = ChannelParams(0.7, eta, 500.0, 12e6)
            b = entropy.entropy_rate_bounds(2, dom, params)
            worst = max(worst, b.per_edge_lower - b.per_edge_upper)
    return _result("entropy/conditioning-inequality", worst <= 1e-12,
                   f"max (lower - upper) = {worst:.2e}")


def check_block_entropy_monotone(level: str) -> CheckResult:
    t_max = 12 if level == "full" else 8
    _, h = entropy.block_entropy_profile(geometry.SQUARE, PAPER_PARAMS, t_max)
    worst = float(np.max(np.diff(h)))
    return _result("entropy/block-entropy-monotone", worst <= 1e-12,
                   f"max h_(t+1) - h_t = {worst:.2e} over t=1..{t_max}")


def check_sandwich(level: str) -> CheckResult:
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
    return _result("entropy/sandwich", worst <= 1e-6,
                   f"max bound violation = {worst:.2e} (slack 1e-06)")


def check_quadrature_stability(level: str) -> CheckResult:
    base = QuadratureSpec(nodes_per_panel=16)
    double = QuadratureSpec(nodes_per_panel=32)
    b1 = entropy.entropy_rate_bounds(2, geometry.SQUARE, PAPER_PARAMS, base)
    b2 = entropy.entropy_rate_bounds(2, geometry.SQUARE, PAPER_PARAMS, double)
    drift = max(abs(b1.per_edge_lower - b2.per_edge_lower),
                abs(b1.per_edge_upper - b2.per_edge_upper))
    return _result("entropy/quadrature-stability", drift <= 1e-6,
                   f"doubling nodes shifts bounds by {drift:.2e} bits (limit 1e-06)")


def check_network_scaling(level: str) -> CheckResult:
    b50 = entropy.entropy_rate_bounds(50, geometry.SQUARE, PAPER_PARAMS)
    ok = (b50.network_upper == math.comb(50, 2) * b50.per_edge_upper
          and b50.network_lower == math.comb(50, 2) * b50.per_edge_lower)
    return _result("entropy/network-scaling", ok,
                   "network bounds are exactly C(n,2) times per-edge values")


def check_simulator_determinism(level: str) -> CheckResult:
    cfg = simulator.SimConfig(n=5, t_steps=10, trials=20, seed=123,
                              domain=geometry.SQUARE, params=PAPER_PARAMS)
    a = simulator.simulate(cfg)
    b = simulator.simulate(cfg)
    ok = (np.array_equal(a.states, b.states)
          and np.array_equal(a.positions, b.positions))
    return _result("simulator/determinism", ok,
                   "identical config gives bit-identical ensembles" if ok else "seeded run diverged")


def check_snapshot_shape(level: str) -> CheckResult:
    cfg = simulator.SimConfig(n=7, t_steps=4, trials=3, seed=5,
                              domain=geometry.TRIANGLE, params=PAPER_PARAMS)
    ens = simulator.simulate(cfg)
    ok = True
    for trial in range(cfg.trials):
        for step in range(cfg.t_steps):
            adj = ens.snapshot(trial, step)
            ok &= np.array_equal(adj, adj.T) and not np.any(np.diag(adj))
    return _result("simulator/snapshot-shape", ok, "snapshots symmetric with zero diagonal")


def check_simulator_stationarity(level: str) -> CheckResult:
    trials = 3000 if level == "full" else 800
    cfg = simulator.SimConfig(n=8, t_steps=10, trials=trials, seed=77,
                              domain=geometry.SQUARE,
                              params=ChannelParams(0.7, 2.0, 20000.0, 1e6))
    ok = simulator.stationarity_check(simulator.simulate(cfg)).passed
    drifted = simulator.stationarity_check(
        simulator.simulate(cfg, initial_state="all_off")).passed
    return _result("simulator/stationarity", ok and not drifted,
                   "stationary start flat, all-off start flagged")


def check_simulator_convergence(level: str) -> CheckResult:
    trials = 40_000 if level == "full" else 8_000
    cfg = simulator.SimConfig(n=2, t_steps=4, trials=trials, seed=2024,
                              domain=geometry.SQUARE, params=PAPER_PARAMS)
    ens = simulator.simulate(cfg)
    p_bar = entropy.edge_moments(geometry.SQUARE, PAPER_PARAMS).p_on
    density = float(ens.states.mean())
    se = np.sqrt(p_bar * (1 - p_bar) / ens.states.size)
    z = abs(density - p_bar) / se
    # the paired-window correlation inflates the plain binomial error a bit
    return _result("simulator/edge-density", z <= 5.0,
                   f"pooled edge density off by {z:.2f} binomial sigma (limit 5)")


CHECKS = [
    check_density_normalization,
    check_density_endpoints,
    check_distance_histogram,
    check_sampling_reproducibility,
    check_detailed_balance,
    check_connection_monotonicity,
    check_lcr_shape,
    check_slow_fading,
    check_averaged_row_sums,
    check_conditioning_inequality,
    check_block_entropy_monotone,
    check_sandwich,
    check_quadrature_stability,
    check_network_scaling,
    check_simulator_determinism,
    check_snapshot_shape,
    check_simulator_stationarity,
    check_simulator_convergence,
]


def run_checks(level: str = "fast", inject_fault: Optional[str] = None) -> List[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; expected one of {FAULTS}")
    results = []
    for check in CHECKS:
        if check is check_detailed_balance and inject_fault == "detailed-balance":
            results.append(check_detailed_balance(level, perturbation=1e-6))
        else:
            results.append(check(level))
    return results

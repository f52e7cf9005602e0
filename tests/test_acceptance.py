"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line with its measured margin.

Criterion grids and tolerances are fixed here, not tuned at runtime:
  1. sandwich on the 3x3x4x3 grid, slack 1e-6 bits + quadrature tolerance
  2. connection-range trend reproduction (nu = 500 Hz, n = 50)
  3. Doppler trend reproduction (r0 = 0.7)
  4. geometry sensitivity on H(X2|X1): square-disk closer than
     square-triangle in >= 90%, with h_8 <= H(X2|X1) <= upper
  5. simulator vs oracle equivalence at >= 1e6 trials, 3 sigma + bias
  6. exact algebraic identities
  7. byte-identical seeded CLI runs
"""

import math
import time
import warnings
from typing import NamedTuple

import numpy as np

from netentropy import channel, cli, entropy, geometry, simulator
from netentropy.channel import ChannelParams
from netentropy.quadrature import QuadratureSpec, DEFAULT_SPEC

R0_GRID = (0.3, 0.7, 1.1)
NU_GRID = (10.0, 100.0, 500.0, 1000.0)
ETA_GRID = (2.0, 3.0, 4.0)
SYMBOL_RATE = 12e6

SANDWICH_SLACK = 1e-6 + DEFAULT_SPEC.rel_tolerance

_grid_cache = {}


class GridPoint(NamedTuple):
    lower: float
    upper: float
    h8: float
    joint_upper: float


def criterion_grid():
    """Bounds, H(X2|X1) and the t=8 oracle increment on the criterion-1 grid."""
    if not _grid_cache:
        t0 = time.perf_counter()
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            for r0 in R0_GRID:
                for nu in NU_GRID:
                    for eta in ETA_GRID:
                        params = ChannelParams(r0, eta, nu, SYMBOL_RATE)
                        b = entropy.entropy_rate_bounds(2, dom, params)
                        _, h = entropy.block_entropy_profile(dom, params, 8)
                        _grid_cache[(name, r0, nu, eta)] = GridPoint(
                            b.per_edge_lower, b.per_edge_upper,
                            h[-1], b.per_edge_joint_upper)
        _grid_cache["elapsed"] = time.perf_counter() - t0
    return _grid_cache


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_sandwich():
    grid = criterion_grid()
    worst = -np.inf
    for key, point in grid.items():
        if key == "elapsed":
            continue
        worst = max(worst, point.lower - point.h8, point.h8 - point.upper)
    elapsed = grid["elapsed"]
    passed = worst <= SANDWICH_SLACK and elapsed < 300.0
    report(1, passed,
           f"max sandwich violation {worst:.3e} (slack {SANDWICH_SLACK:.1e}) "
           f"over 108 grid points in {elapsed:.1f}s")
    assert worst <= SANDWICH_SLACK
    assert elapsed < 300.0


def test_criterion_2_connection_range_trends():
    t0 = time.perf_counter()
    n = 50
    shape_ok = True
    vanish_ok = True
    tail_ok = True
    for name in geometry.DOMAIN_NAMES:
        dom = geometry.domain_from_name(name)
        r0_grid = np.geomspace(0.05, dom.diameter, 40)
        for eta in ETA_GRID:
            lowers, uppers = [], []
            for r0 in r0_grid:
                b = entropy.entropy_rate_bounds(
                    n, dom, ChannelParams(r0, eta, 500.0, SYMBOL_RATE))
                lowers.append(b.per_edge_lower)
                uppers.append(b.per_edge_upper)
            near_zero = entropy.entropy_rate_bounds(
                n, dom, ChannelParams(0.005, eta, 500.0, SYMBOL_RATE))
            frozen = entropy.entropy_rate_bounds(
                n, dom, ChannelParams(20.0 * dom.diameter, eta, 500.0, SYMBOL_RATE))
            for curve, limit in ((np.array(lowers), near_zero.per_edge_lower),
                                 (np.array(uppers), near_zero.per_edge_upper)):
                peak = curve.max()
                k = int(curve.argmax())
                rising = np.all(np.diff(curve[:k + 1]) >= -1e-12 * peak)
                falling = np.all(np.diff(curve[k:]) <= 1e-12 * peak)
                shape_ok &= bool(rising and falling)
                vanish_ok &= limit < 0.02 * peak
            tail_ok &= frozen.per_edge_upper < 0.1 * max(uppers)
            tail_ok &= frozen.per_edge_upper < uppers[-1]
            tail_ok &= frozen.per_edge_lower < lowers[-1]
    gap_grows = True
    for name in geometry.DOMAIN_NAMES:
        dom = geometry.domain_from_name(name)
        gaps = []
        for eta in ETA_GRID:
            b = entropy.entropy_rate_bounds(
                n, dom, ChannelParams(0.7, eta, 500.0, SYMBOL_RATE))
            gaps.append(b.per_edge_upper - b.per_edge_lower)
        gap_grows &= gaps[0] < gaps[1] < gaps[2]
    elapsed = time.perf_counter() - t0
    passed = shape_ok and vanish_ok and tail_ok and gap_grows and elapsed < 120.0
    report(2, passed,
           f"single-peaked={shape_ok} vanish(r0->0)={vanish_ok} "
           f"frozen-tail={tail_ok} gap-grows-in-eta={gap_grows} in {elapsed:.1f}s")
    assert shape_ok and vanish_ok and tail_ok and gap_grows
    assert elapsed < 120.0


def test_criterion_3_doppler_trends():
    t0 = time.perf_counter()
    nu_grid = np.geomspace(1.0, 1000.0, 40)
    monotone = True
    bounded = True
    for name in geometry.DOMAIN_NAMES:
        dom = geometry.domain_from_name(name)
        for eta in ETA_GRID:
            uppers = []
            for nu in nu_grid:
                b = entropy.entropy_rate_bounds(
                    50, dom, ChannelParams(0.7, eta, nu, SYMBOL_RATE))
                uppers.append(b.per_edge_upper)
                bounded &= 0.0 <= b.per_edge_lower <= b.per_edge_upper < 1.0
            monotone &= bool(np.all(np.diff(uppers) > 0.0))
    elapsed = time.perf_counter() - t0
    passed = monotone and bounded and elapsed < 120.0
    report(3, passed,
           f"upper strictly increasing in nu={monotone}, "
           f"bounds below 1 bit/edge/step={bounded} in {elapsed:.1f}s")
    assert monotone and bounded
    assert elapsed < 120.0


def geometry_margins(grid, field):
    """|V_sq - V_tri| - |V_sq - V_disk| of one GridPoint field at each
    (r0, nu, eta), with whether square-disk is strictly the closer pair."""
    margins = {}
    for r0 in R0_GRID:
        for nu in NU_GRID:
            for eta in ETA_GRID:
                sq, dk, tr = (getattr(grid[(name, r0, nu, eta)], field)
                              for name in ("square", "disk", "triangle"))
                margins[(r0, nu, eta)] = (abs(sq - dk) < abs(sq - tr),
                                          abs(sq - tr) - abs(sq - dk))
    return margins


def test_criterion_4_geometry_sensitivity():
    # Judged on the upper bound H(X2|X1) (per_edge_joint_upper).
    # per_edge_upper, the averaged composition, lies above it by more than
    # the spread between domains at r0=0.3, eta=2, where it orders the
    # domains the other way (32/36); that count is reported, not gated.
    grid = criterion_grid()
    worst_order = max(
        max(p.h8 - p.joint_upper, p.joint_upper - p.upper)
        for key, p in grid.items() if key != "elapsed")
    joint = geometry_margins(grid, "joint_upper")
    closer = sum(ok for ok, _ in joint.values())
    total = len(joint)
    fraction = closer / total
    tightest = min(joint, key=lambda k: joint[k][1])
    composition = geometry_margins(grid, "upper")
    misses = ", ".join(
        f"(r0={r0}, nu={nu:g}, eta={eta:g}) {margin:.1e}"
        for (r0, nu, eta), (ok, margin) in composition.items() if not ok)
    comp_closer = sum(ok for ok, _ in composition.values())
    passed = fraction >= 0.90 and worst_order <= SANDWICH_SLACK
    report(4, passed,
           f"on H(X2|X1) square-disk closer than square-triangle at "
           f"{closer}/{total} grid points ({100 * fraction:.1f}%, need >= 90%), "
           f"smallest margin {joint[tightest][1]:.1e} bits at "
           f"r0={tightest[0]}, nu={tightest[1]:g}, eta={tightest[2]:g}; "
           f"h_8 <= H(X2|X1) <= upper worst violation {worst_order:.1e} "
           f"(slack {SANDWICH_SLACK:.1e}); averaged composition "
           f"per_edge_upper {comp_closer}/{total}, margins where it fails: "
           f"{misses or 'none'}")
    assert worst_order <= SANDWICH_SLACK, (
        f"h_8 <= H(X2|X1) <= per_edge_upper violated by {worst_order:.3e} "
        f"bits (slack {SANDWICH_SLACK:.1e})")
    assert fraction >= 0.90, (
        f"geometry-sensitivity fraction {fraction:.3f} of H(X2|X1) below "
        f"0.90; smallest margin {joint[tightest][1]:.3e} bits at "
        f"(r0, nu, eta) = {tightest}")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    params = ChannelParams(0.7, 2.0, 500.0, SYMBOL_RATE)
    dom = geometry.SQUARE
    cfg = simulator.SimConfig(n=2, t_steps=4, trials=1_000_000, seed=20250808,
                              domain=dom, params=params)
    ens = simulator.simulate(cfg)

    oracle_H, _ = entropy.block_entropy_profile(dom, params, 4)
    entropy_ok = True
    worst_z = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in (1, 2, 3, 4):
            est = simulator.empirical_block_entropy(ens, t)
            margin = 3.0 * est.stderr + est.bias_correction
            dev = abs(est.miller_madow - float(oracle_H[t - 1]))
            entropy_ok &= dev <= margin
            worst_z = max(worst_z, dev / est.stderr)

    freq = simulator.empirical_transition_frequencies(ens)
    trans_ok = True
    m = entropy.edge_moments(dom, params)
    averaged = ((m.p00, m.p01), (m.p10, m.p11))
    for a in (0, 1):
        for b in (0, 1):
            target = averaged[a][b]
            trans_ok &= abs(freq.matrix[a, b] - target) <= 3.0 * freq.stderr[a, b]
    elapsed = time.perf_counter() - t0
    passed = entropy_ok and trans_ok and elapsed < 600.0
    report(5, passed,
           f"block entropies t=1..4 within 3 sigma + bias (worst z={worst_z:.2f}), "
           f"transition matrix within 3 sigma={trans_ok}, "
           f"1e6 trials in {elapsed:.0f}s")
    assert entropy_ok and trans_ok
    assert elapsed < 600.0


def test_criterion_6_exact_algebra():
    # detailed balance at unclamped radii
    worst_balance = 0.0
    D = geometry.SQUARE.diameter
    for eta in ETA_GRID:
        params = ChannelParams(0.7, eta, 500.0, SYMBOL_RATE)
        r = np.geomspace(channel.R_MIN_FRACTION * D, D, 500)
        p = channel.connection_probability(r, params)
        p01, p10 = channel.transition_probabilities(r, params)
        ok = p01 < 1.0 - channel.CLAMP_EPS
        worst_balance = max(worst_balance, float(np.max(
            np.abs((1 - p[ok]) * p01[ok] - p[ok] * p10[ok]))))

    # exact C(n,2) scaling
    params = ChannelParams(0.7, 2.0, 500.0, SYMBOL_RATE)
    scaling_exact = True
    for n in (2, 50, 100):
        b = entropy.entropy_rate_bounds(n, geometry.SQUARE, params)
        scaling_exact &= b.network_lower == math.comb(n, 2) * b.per_edge_lower
        scaling_exact &= b.network_upper == math.comb(n, 2) * b.per_edge_upper

    # density normalization to 1e-9
    tight = QuadratureSpec(nodes_per_panel=24, rel_tolerance=1e-11, max_depth=16)
    worst_norm = 0.0
    for name in geometry.DOMAIN_NAMES:
        dens = geometry.domain_from_name(name).distance_density()
        from netentropy.quadrature import integrate_piecewise
        worst_norm = max(worst_norm, abs(
            integrate_piecewise(dens.pdf, dens.breakpoints, tight) - 1.0))

    # h_t non-increasing for t = 1..12
    _, h = entropy.block_entropy_profile(geometry.SQUARE, params, 12)
    worst_step = float(np.max(np.diff(h)))

    passed = (worst_balance <= 1e-12 and scaling_exact
              and worst_norm <= 1e-9 and worst_step <= 1e-12)
    report(6, passed,
           f"detailed balance {worst_balance:.1e} (<=1e-12), "
           f"C(n,2) scaling exact={scaling_exact}, "
           f"density norm {worst_norm:.1e} (<=1e-9), "
           f"max h_t increase {worst_step:.1e} (<=1e-12)")
    assert worst_balance <= 1e-12
    assert scaling_exact
    assert worst_norm <= 1e-9
    assert worst_step <= 1e-12


def test_criterion_7_determinism(tmp_path):
    sim_args = ["simulate", "--nodes", "6", "--steps", "8", "--trials", "40",
                "--seed", "5150", "--eta", "2"]
    for tag in ("a", "b"):
        code = cli.main(sim_args + ["--out", str(tmp_path / f"{tag}.csv"),
                                    "--summary", str(tmp_path / f"{tag}.sum.csv")])
        assert code == 0
    sim_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    sum_same = (tmp_path / "a.sum.csv").read_bytes() == (tmp_path / "b.sum.csv").read_bytes()

    sweep_args = ["bounds-sweep", "--grid", "0.3,0.7,1.1", "--eta", "2,3",
                  "--domain", "square,triangle", "--nu", "500"]
    for tag in ("c", "d"):
        code = cli.main(sweep_args + ["--out", str(tmp_path / f"{tag}.csv")])
        assert code == 0
    sweep_same = (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()

    passed = sim_same and sum_same and sweep_same
    report(7, passed,
           f"simulate byte-identical={sim_same and sum_same}, "
           f"bounds-sweep byte-identical={sweep_same}")
    assert sim_same and sum_same and sweep_same

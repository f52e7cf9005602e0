"""Domain geometry, uniform point maps and pair-distance densities."""

import numpy as np
import pytest

from netentropy import geometry
from netentropy.geometry import DomainError, domain_from_name
from netentropy.quadrature import QuadratureSpec, integrate_piecewise, max_columns

TIGHT = QuadratureSpec(nodes_per_panel=24, rel_tolerance=1e-11, max_depth=16)

# means of the pair distance, validated against 1e7-pair Monte Carlo
MEAN_DISTANCE = {
    "square": 0.521405433165,
    "disk": 0.510825591823,
    "triangle": 0.554363720748,
}
DIAMETER = {
    "square": np.sqrt(2.0),
    "disk": 2.0 / np.sqrt(np.pi),
    "triangle": 2.0 / 3.0 ** 0.25,
}


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_diameter(name):
    assert domain_from_name(name).diameter == pytest.approx(DIAMETER[name], rel=1e-14)


def test_unknown_domain_rejected():
    with pytest.raises(DomainError):
        domain_from_name("hexagon")


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_sampled_points_inside_domain(name, uniform_points, domain_contains):
    dom = domain_from_name(name)
    pts = uniform_points(dom, 20_000)
    assert np.all(domain_contains(dom, pts))


def test_square_point_support(uniform_points):
    p = uniform_points(geometry.SQUARE, 1)[0]
    assert p.shape == (2,)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_disk_point_support(uniform_points):
    pts = uniform_points(geometry.DISK, 5_000)
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 / np.sqrt(np.pi) + 1e-12)


def test_triangle_centroid(uniform_points):
    # sample mean within 3 sigma of the analytic centroid
    pts = uniform_points(geometry.TRIANGLE, 1_000_000)
    side = 2.0 / 3.0 ** 0.25
    centroid = np.array([side / 2.0, np.sqrt(3.0) / 2.0 * side / 3.0])
    se = pts.std(axis=0, ddof=1) / np.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0) - centroid) < 3.0 * se)


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_density_normalized(name):
    dens = domain_from_name(name).distance_density()
    assert abs(integrate_piecewise(dens.pdf, dens.breakpoints, TIGHT) - 1.0) < 1e-9


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_density_zero_at_support_ends(name):
    # exactly zero at r = 0; geometry/density-endpoints of validate bounds
    # both ends by 1e-9
    assert domain_from_name(name).distance_density().pdf(0.0) == 0.0


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_density_nonnegative_and_zero_outside(name):
    dom = domain_from_name(name)
    dens = dom.distance_density()
    r = np.linspace(0.0, dom.diameter, 4001)
    assert np.all(dens.pdf(r) >= 0.0)
    assert dens.pdf(dom.diameter * 1.5) == 0.0


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_density_mean(name):
    dens = domain_from_name(name).distance_density()
    mean = integrate_piecewise(lambda r: r * dens.pdf(r), dens.breakpoints, TIGHT)
    assert mean == pytest.approx(MEAN_DISTANCE[name], abs=1e-9)


def simpson_cdf(dom, r):
    """Test-local reference CDF of the pair distance: composite Simpson
    integration of f_R on 20,001 points, interpolated linearly."""
    grid = np.linspace(0.0, dom.diameter, 20001)
    dens = dom.distance_density()
    vals = dens.pdf(grid)
    mids = dens.pdf(0.5 * (grid[1:] + grid[:-1]))
    step = grid[1] - grid[0]
    simpson = np.zeros_like(grid)
    simpson[1:] = np.cumsum(step / 6.0 * (vals[:-1] + 4.0 * mids + vals[1:]))
    return np.interp(r, grid, np.clip(simpson, 0.0, 1.0))


def bin_edges(dom, grid):
    """1,000 bins, more than one quadrature call holds: ``uniform`` puts
    every kink strictly inside a bin, ``kink-edge`` puts every kink on an
    edge (the disk has none, so its two grids are the same)."""
    if grid == "uniform":
        return np.linspace(0.0, dom.diameter, 1001)
    ends = (0.0, *dom.kinks, dom.diameter)
    bins = 1000 // (len(ends) - 1)
    return np.concatenate([np.linspace(a, b, bins + 1)[:-1]
                           for a, b in zip(ends[:-1], ends[1:])] + [[dom.diameter]])


@pytest.mark.parametrize("grid", ["uniform", "kink-edge"])
@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_interval_probabilities_match_density_integral(name, grid):
    # the bin probabilities give validate's expected histogram counts
    dom = domain_from_name(name)
    dens = dom.distance_density()
    edges = bin_edges(dom, grid)
    assert len(edges) - 1 > max_columns()
    for k in dom.kinks:
        on_edge = np.any(edges == k)
        assert on_edge if grid == "kink-edge" else not on_edge
    prob = dens.interval_probabilities(edges)
    assert prob.shape == (len(edges) - 1,)
    assert np.all(prob >= 0.0)
    assert abs(prob.sum() - 1.0) <= 1e-12
    cumulative = np.cumsum(prob)
    for r, c in zip(edges[1:], cumulative):
        kinks = [k for k in dom.kinks if k < r]
        exact = integrate_piecewise(dens.pdf, [0.0, *kinks, r], TIGHT)
        assert abs(c - exact) <= 1e-10


@pytest.mark.parametrize("edges", [[0.0, 0.5, 0.5, 1.0], [0.5, 0.2], [0.3], [-0.1, 0.5],
                                   [0.0, 2.0]])
def test_interval_probabilities_reject_bad_edges(edges):
    with pytest.raises(ValueError):
        geometry.SQUARE.distance_density().interval_probabilities(edges)


def test_distance_pdf_square_values():
    # first branch is 2r(r^2 - 4r + pi)
    r = 0.5
    assert geometry.SQUARE.distance_density().pdf(r) == pytest.approx(
        2 * r * (r ** 2 - 4 * r + np.pi), rel=1e-14)


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_sample_distance_support(name, pair_distances):
    dom = domain_from_name(name)
    d = pair_distances(dom, 10_000)
    assert np.all((d >= 0.0) & (d <= dom.diameter))


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_sample_distance_ks(name, pair_distances):
    # KS statistic against the Simpson reference CDF, 1% critical value
    dom = domain_from_name(name)
    n = 1_000_000
    d = np.sort(pair_distances(dom, n))
    cdf = simpson_cdf(dom, d)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks < 1.6276 / np.sqrt(n)


@pytest.mark.parametrize("name", geometry.DOMAIN_NAMES)
def test_histogram_matches_density(name, pair_distances):
    # 1e6 samples, 200 bins, chi-square p-value above 0.01
    from scipy.stats import chi2
    dom = domain_from_name(name)
    n, bins = 1_000_000, 200
    d = pair_distances(dom, n)
    edges = np.linspace(0.0, dom.diameter, bins + 1)
    observed, _ = np.histogram(d, bins=edges)
    expected = dom.distance_density().interval_probabilities(edges) * n
    keep = expected > 5
    stat = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    pval = chi2.sf(stat, np.count_nonzero(keep) - 1)
    assert pval > 0.01


def test_triangle_sample_mean(pair_distances):
    d = pair_distances(geometry.TRIANGLE, 1_000_000)
    se = d.std(ddof=1) / np.sqrt(d.size)
    assert abs(d.mean() - MEAN_DISTANCE["triangle"]) < 3.0 * se


import numpy as np
import pytest

from netentropy import channel, geometry, simulator
from netentropy.channel import ChannelParams
from netentropy.simulator import SimConfig, SimulationError, TrajectoryEnsemble

# the operating point used throughout the numerical experiments
PAPER_PARAMS = ChannelParams(r0=0.7, eta=2.0, nu=500.0, B=12e6)

_DISK_RADIUS = 0.5 * geometry.DISK.diameter
_TRI_SIDE = geometry.TRIANGLE.diameter
# ends of a longest chord of each domain
LONGEST_CHORD = {
    "square": ((0.0, 0.0), (1.0, 1.0)),
    "disk": ((-_DISK_RADIUS, 0.0), (_DISK_RADIUS, 0.0)),
    "triangle": ((0.0, 0.0), (_TRI_SIDE, 0.0)),
}
# counter-clockwise, so inside points lie left of every edge
_TRI_VERTICES = np.array(
    [[0.0, 0.0], [_TRI_SIDE, 0.0], [0.5 * _TRI_SIDE, 0.5 * np.sqrt(3.0) * _TRI_SIDE]])
# membership slack at the boundary, in coordinate units
_CONTAINS_TOL = 1e-12


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


@pytest.fixture
def domain_contains():
    """Test-local membership test: ``contains(domain, points)`` tells which
    of an (..., 2) array of coordinates lie in the domain, to within
    _CONTAINS_TOL of its boundary."""
    def contains(domain, points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        tol = _CONTAINS_TOL
        if domain.name == "square":
            return (x >= -tol) & (x <= 1 + tol) & (y >= -tol) & (y <= 1 + tol)
        if domain.name == "disk":
            return x ** 2 + y ** 2 <= _DISK_RADIUS ** 2 + tol
        # half-plane tests against the three triangle edges
        inside = np.ones(np.shape(x), dtype=bool)
        for k in range(3):
            a = _TRI_VERTICES[k]
            b = _TRI_VERTICES[(k + 1) % 3]
            inside &= (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= -tol
        return inside
    return contains


@pytest.fixture
def pinned_distance_ensemble():
    """Test-local two-node ensemble: ``pinned(domain, r, params, t_steps,
    trials, seed)`` places both nodes at exact distance ``r``, centered on a
    longest chord of the domain (LONGEST_CHORD), so any r <= diameter fits.
    Edge evolution uses the library's keyed streams of :func:`simulate` (edge
    lane 0) in its chunks; positions consume no randomness."""
    def pinned(domain, r, params, t_steps, trials, seed):
        D = domain.diameter
        if not 0.0 < r <= D:
            raise SimulationError(f"pinned distance must be in (0, {D}], got {r}")
        a, b = np.array(LONGEST_CHORD[domain.name])
        mid = 0.5 * (a + b)
        unit = (b - a) / np.linalg.norm(b - a)
        pos = np.stack([mid - 0.5 * r * unit, mid + 0.5 * r * unit])

        p_on = channel.connection_probability(r, params)
        p01, p10 = channel.transition_probabilities(r, params)
        states = np.empty((trials, t_steps, 1), dtype=bool)
        for chunk in simulator._chunks(trials, simulator._blocks(t_steps)):
            states[chunk] = simulator._step_chains(seed, chunk, slice(0, 1),
                                                   slice(0, t_steps), p_on, p01, p10,
                                                   "stationary")
        return TrajectoryEnsemble(
            config=SimConfig(n=2, t_steps=t_steps, trials=trials, seed=seed,
                             domain=domain, params=params),
            initial_state="stationary",
            positions=np.broadcast_to(pos, (trials, 2, 2)).copy(),
            distances=np.full((trials, 1), float(r)),
            states=states)
    return pinned

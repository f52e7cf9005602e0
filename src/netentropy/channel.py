"""Rayleigh-fading link model: connection probability, level crossing rate
and the distance-conditioned two-state (on/off) Markov transition matrix.

A link at pair distance r is on with probability exp(-(r/r0)**eta).  Moving
scatterers flip the link state at the fading level crossing rate; dividing
that rate by the symbols per second spent in a state gives the per-step
transition probabilities of a two-state Markov chain.  The division breaks
down as r -> 0 where the off state has vanishing probability, so transition
entries are clamped into [0, 1 - CLAMP_EPS]; :func:`clamp_radii` gives the
radii where they meet the cap.

The link law is written once, in the kernel ``_unclamped_law``: the
unclamped p, p01 and p10 from one x = (r/r0)**eta and one e**-x.  The clamp
radii and the admissibility report read it unclamped.
:func:`link_probabilities` caps its flip probabilities; the integrands of
the distance averages and the simulator's tiles take the whole law from it,
:func:`transition_probabilities` is its flip part and
:func:`connection_probability` its p.

p10 grows as sqrt(x) and p01 as g(x) = sqrt(x)/(e**x - 1), where g' has the
sign of (e**x - 1)/2 - x e**x, negative as 1 - e**-x < x < 2x: p01 strictly
falls in r, p10 strictly rises.  Both depend on nu and B only through nu/B,
and on r only through x, so the p01 clamp radius is one root in x per nu,
solved by Newton's method on the kernel in x; the module needs only numpy.

:class:`ChannelParams` may hold a batch of points: r0 and nu as 1-D arrays,
which broadcast against the trailing axis of a distance array, while eta and
B stay scalar.  Every function here then evaluates all points at once, each
exactly as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain

SQRT_2PI = np.sqrt(2.0 * np.pi)

# transition entries live in [0, 1 - CLAMP_EPS]
CLAMP_EPS = 1e-12
# admissibility threshold for the slow-fading approximation
THETA_SLOW = 0.1
# radii below r_min are excluded from detailed-balance assertions and checks
R_MIN_FRACTION = 1e-6
# the off->on entry is only checked where the off state has occupancy
# at least OCCUPANCY_FLOOR (the approximation diverges as occupancy -> 0)
OCCUPANCY_FLOOR = 1e-5
# largest float64: x = (r/r0)**eta is held at or below it
_HUGE = np.finfo(float).max
# smallest normal float64: the lower bracket of the p01 clamp radius in x
_TINY = np.finfo(float).tiny


class ChannelError(ValueError):
    """Invalid channel parameter or out-of-domain argument."""


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of every link.

    r0   : typical connection range (distance units of the unit-area domain)
    eta  : path loss exponent, > 0
    nu   : maximum Doppler frequency in Hz, >= 0 (shared by all links)
    B    : transmission rate in symbols per second, > 0

    r0 and nu may also be 1-D arrays, a batch of points: either one may be
    an array, and both are then stored as read-only float arrays of the
    batch's length.
    """

    r0: float
    eta: float
    nu: float
    B: float

    def __post_init__(self):
        if np.ndim(self.eta) or np.ndim(self.B):
            raise ChannelError("eta and B must be scalars")
        if np.ndim(self.r0) or np.ndim(self.nu):
            self._store_batch()
            # a batch is valid if its extremes are (NaN is its own extreme)
            r0 = (self.r0.min(), self.r0.max())
            nu = (self.nu.min(), self.nu.max())
        else:
            r0, nu = (self.r0,), (self.nu,)
        for name, values in (("r0", r0), ("eta", (self.eta,)), ("nu", nu), ("B", (self.B,))):
            for value in values:
                if not math.isfinite(value):
                    raise ChannelError(f"{name} must be finite, got {value}")
        if not min(r0) > 0:
            raise ChannelError(f"r0 must be > 0, got {min(r0)}")
        if not self.eta > 0:
            raise ChannelError(f"eta must be > 0, got {self.eta}")
        if min(nu) < 0:
            raise ChannelError(f"nu must be >= 0, got {min(nu)}")
        if not self.B > 0:
            raise ChannelError(f"B must be > 0, got {self.B}")

    def _store_batch(self):
        """Store r0 and nu as read-only float arrays of the batch's length."""
        try:
            r0, nu = np.broadcast_arrays(np.array(self.r0, dtype=float),
                                         np.array(self.nu, dtype=float))
        except ValueError:
            r0 = nu = np.empty((0, 0))
        if r0.ndim != 1 or not r0.size:
            raise ChannelError(
                "r0 and nu must be scalars or non-empty 1-D arrays of one length")
        for name, value in (("r0", r0), ("nu", nu)):
            value = value.copy()
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple:
        """Batch shape: () for one point, (n,) for a batch of n points."""
        return np.shape(self.r0)

    @classmethod
    def _view(cls, r0, eta, nu, B) -> "ChannelParams":
        """Parameters of points of validated ones, made without running
        :meth:`__post_init__` again; array r0 and nu are made read-only."""
        view = object.__new__(cls)
        for name, value in (("r0", r0), ("eta", eta), ("nu", nu), ("B", B)):
            if np.ndim(value):
                value.flags.writeable = False
            object.__setattr__(view, name, value)
        return view

    def batch(self) -> "ChannelParams":
        """These parameters as a batch: themselves, or a batch of one point."""
        if self.shape:
            return self
        return ChannelParams._view(np.array([self.r0], dtype=float), self.eta,
                                   np.array([self.nu], dtype=float), self.B)

    def at(self, index) -> "ChannelParams":
        """The points of the batch that ``index`` selects; an integer gives
        one point."""
        points = self.batch()
        r0, nu = points.r0[index], points.nu[index]
        if not np.size(r0):
            raise ChannelError("the index selects no point")
        return ChannelParams._view(r0, self.eta, nu, self.B)

    def squeezed(self) -> "ChannelParams":
        """A batch of one point as that point; one point or a longer batch as
        it is.

        Both broadcast alike against (..., 1) nodes, but numpy runs an
        (M, 1) by (1,) operation as M inner loops of length 1, and an
        (M, 1) by scalar one as a single loop.
        """
        return self.at(0) if self.shape == (1,) else self


def _check_r(r) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(arr >= 0.0):
        raise ChannelError("pair distance must be >= 0")
    return arr


def _shape_back(r, params: ChannelParams, out: np.ndarray):
    return out if np.ndim(r) or params.shape else float(out[0])


def _x(r, params: ChannelParams):
    """x = (r/r0)**eta, held at the largest float where the power overflows,
    so that e**-x factors take their limit 0 there, not inf * 0 = NaN.  A
    float r is taken as a numpy one, whose power overflows to inf where a
    Python float's raises."""
    with np.errstate(over="ignore"):
        return np.minimum((np.asarray(r, dtype=float) / params.r0) ** params.eta, _HUGE)


def connection_probability(r, params: ChannelParams):
    """Probability exp(-(r/r0)**eta) that a link at distance r is on: the p
    of :func:`link_probabilities`."""
    return link_probabilities(r, params)[0]


def level_crossing_rate(r, params: ChannelParams):
    """Threshold crossing rate of the fading SNR at distance r, in Hz."""
    x = _x(_check_r(r), params)
    return _shape_back(r, params, _lcr_factor(x, params) * np.exp(-x))


def _lcr_factor(x, params: ChannelParams):
    """The LCR without its exp(-x) factor: sqrt(2 pi) nu sqrt(x)."""
    return SQRT_2PI * params.nu * np.sqrt(x)


def _unclamped_law(r, params: ChannelParams):
    """Unclamped (p, p01, p10) at distance r, a float or an array, from one
    x = (r/r0)**eta and one e**-x.

    p10 = LCR / (p * B), where the exp(-x) of the LCR cancels against p,
    and p01 = LCR / ((1 - p) * B).  At r == 0 exactly, p01 is 0 by
    convention (the off state is unreachable there).  At r > 0 p01 diverges
    like 1/sqrt(x) as x -> 0, so where x underflows to 0 it is +inf (0 for
    a frozen chain, nu == 0); where x overflows p and p01 are 0.
    """
    x = _x(r, params)
    p = np.exp(-x)
    lcr = _lcr_factor(x, params)
    # p01 = lcr e^-x / ((1 - e^-x) B); -expm1(-x) = 1 - e^-x
    denom = -np.expm1(-x)
    limit = np.where(r > 0.0, np.where(params.nu > 0.0, np.inf, 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p01 = np.where(denom > 0.0, lcr * p / (denom * params.B), limit)
    return p, p01, lcr / params.B


def link_probabilities(r, params: ChannelParams):
    """(p, p01, p10) at distance r: the law of :func:`_unclamped_law` with
    both flip probabilities capped at 1 - CLAMP_EPS."""
    p, p01, p10 = _unclamped_law(_check_r(r), params)
    hi = 1.0 - CLAMP_EPS
    return tuple(_shape_back(r, params, v) for v in (p, np.minimum(p01, hi), np.minimum(p10, hi)))


def transition_probabilities(r, params: ChannelParams):
    """Clamped flip probabilities (p01, p10) vectorized over distance: the
    flip part of :func:`link_probabilities`."""
    return link_probabilities(r, params)[1:]


def clamp_radii(params: ChannelParams, diameter: float):
    """Radii in (0, diameter) where a transition entry crosses the clamp cap.

    The unclamped p01 is strictly decreasing in r and p10 strictly
    increasing, so each contributes at most one crossing.  These radii are
    kinks of the clamped model and must be quadrature breakpoints.  p10
    grows as (r/r0)**(eta/2), so its crossing has a closed form.  p01 depends
    on r only through x = (r/r0)**eta, so its crossing x01 is solved once per
    distinct nu (see :func:`_p01_cap_x`) and mapped to r0 * x01**(1/eta).
    From there each radius walks over neighbouring floats to the kernel's own
    crossing: the float r where p01 is not above the cap, while it is above
    it at the float below r.  Both floats of a point go in one kernel call.
    A crossing whose x01 :func:`_p01_cap_x` does not bracket is not reported.

    Returns the sorted radii of one point, or for a batch one such list per
    point.
    """
    pts = params.batch()
    hi = 1.0 - CLAMP_EPS
    law = params.squeezed()
    _, p01, p10 = _unclamped_law(np.full(pts.shape, float(diameter)), law)
    nu, of_nu = np.unique(pts.nu, return_inverse=True)
    r01 = pts.r0 * _p01_cap_x(nu, pts.B)[of_nu] ** (1.0 / pts.eta)
    # p01 diverges at 0+: it crosses the cap below D unless it is above it there
    r01 = np.where(p01 <= hi, r01, np.nan)
    while True:
        pair = np.stack([np.nextafter(r01, 0.0), r01])
        above = _unclamped_law(pair, law)[1] > hi
        # step up while p01 is above the cap at r, down while it is not at the
        # float below; p01 is 0 at r == 0 by convention, so a walk ends there
        up, down = above[1], ~above[0] & (r01 > 0.0)
        if not (up | down).any():
            break
        r01 = np.where(up, np.nextafter(r01, np.inf), np.where(down, pair[0], r01))
    radii = []
    for j in range(len(r01)):
        point = [r01[j]]
        if p10[j] > hi:
            # the closed form per point, in the scalar arithmetic of one point
            point.append(pts.r0[j] * (hi * pts.B / (SQRT_2PI * pts.nu[j]))
                         ** (2.0 / pts.eta))
        radii.append(sorted(float(r) for r in point if 0.0 < r < diameter))
    return radii if params.shape else radii[0]


def _p01_cap_x(nu: np.ndarray, B: float) -> np.ndarray:
    """x where the unclamped p01 drops to the cap, for each Doppler frequency
    of ``nu`` at symbol rate B.  The root is bracketed by the smallest normal
    float and the x where e**-x is that float; NaN where p01 does not cross
    the cap in the bracket, as for a frozen chain (nu == 0).

    The residual log(p01/cap) falls in u = log x, with slope
    1/2 - x/(1 - e**-x), and is concave.  So Newton steps in u, held in the
    bracket, fall onto the root from the small-x root
    (sqrt(2 pi) nu / (cap B))**2, where p01 is below the cap as
    e**x - 1 > x.  A step d leaves an error below d**2/2, so the root is
    found to half an ulp once a step is below 2**-26.
    """
    hi = 1.0 - CLAMP_EPS
    lo, up = _TINY, -np.log(_TINY)
    # r0 = eta = 1: the kernel in x
    p01 = _unclamped_law(np.array([[lo], [up]]), ChannelParams._view(1.0, 1.0, nu, B))[1]
    root = (p01[0] > hi) & (p01[1] <= hi)
    law = ChannelParams._view(1.0, 1.0, nu[root], B)
    x = np.minimum(SQRT_2PI * law.nu / (hi * B), np.sqrt(up)) ** 2
    step = np.inf
    while not (np.abs(step) <= 2.0 ** -26).all():
        step = np.log(_unclamped_law(x, law)[1] / hi) / (x / -np.expm1(-x) - 0.5)
        x = np.clip(x * np.exp(step), lo, up)
    x01 = np.full(nu.shape, np.nan)
    x01[root] = x
    return x01


@dataclass(frozen=True)
class SlowFadingReport:
    """Admissibility of the slow-fading approximation over a domain; for a
    batch of points each field but ``threshold`` is an array with one entry
    per point.  As p01 falls and p10 rises in r (see the module docstring),
    max_p01 is p01 at ``occupancy_radius`` and max_p10 is p10 at the
    diameter: the maxima over the intervals each entry is checked on."""

    max_p01: float
    max_p10: float
    occupancy_radius: float
    threshold: float
    admissible: bool


def slow_fading_report(params: ChannelParams, domain: Domain) -> SlowFadingReport:
    """Check the unclamped transition probabilities on [0, D] for admissibility.

    Both entries must stay at or below THETA_SLOW.  The off->on entry is
    checked only from the occupancy radius, where 1 - p(r) = OCCUPANCY_FLOOR
    (held in [R_MIN_FRACTION * D, D]): below it the approximation diverges
    while describing transitions out of a state the edge essentially never
    occupies.  One kernel call evaluates both ends of every point.
    """
    pts = params.batch()
    D = domain.diameter
    r_occ = pts.r0 * (-np.log1p(-OCCUPANCY_FLOOR)) ** (1.0 / pts.eta)
    r_occ = np.minimum(np.maximum(R_MIN_FRACTION * D, r_occ), D)
    _, p01, p10 = _unclamped_law(np.stack([r_occ, np.full_like(r_occ, D)]),
                                 params.squeezed())
    fields = dict(
        max_p01=p01[0],
        max_p10=p10[1],
        occupancy_radius=r_occ,
        admissible=(p01[0] <= THETA_SLOW) & (p10[1] <= THETA_SLOW),
    )
    if not params.shape:
        fields = {name: value[0].item() for name, value in fields.items()}
    return SlowFadingReport(threshold=THETA_SLOW, **fields)

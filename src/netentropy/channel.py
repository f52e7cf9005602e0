"""Rayleigh-fading link model: connection probability, level crossing rate
and the distance-conditioned two-state (on/off) Markov transition matrix.

A link at pair distance r is on with probability exp(-(r/r0)**eta).  Moving
scatterers flip the link state at the fading level crossing rate; dividing
that rate by the symbols per second spent in a state gives the per-step
transition probabilities of a two-state Markov chain.  The division breaks
down as r -> 0 where the off state has vanishing probability, so transition
entries are clamped into [0, 1 - CLAMP_EPS] and every clamping event is
counted in :data:`clamp_diagnostics`.

The unclamped flip probabilities are written once: p01 in ``_unclamped_p01``
at a given x = (r/r0)**eta and e**-x, and p10 in ``_p10`` from the LCR
factor.  ``_unclamped_rates`` evaluates both at r for the clamped rates, the
clamp radii and the admissibility report; the p01 clamp-radius solve reads
p01 alone.  The
integrands of the distance averages take the whole link law at once from
:func:`link_probabilities`: p, p01 and p10 from one x and one e**-x per node,
equal bit for bit to :func:`connection_probability` and
:func:`transition_probabilities`.  p10 grows as sqrt(x) and p01 as
g(x) = sqrt(x)/(e**x - 1), where g' has the sign of (e**x - 1)/2 - x e**x,
negative as 1 - e**-x < x < 2x: p01 strictly falls in r, p10 strictly rises.
The p01 clamp radius is found on the kernel by an in-repo bracketed solve,
a k-section over float64 bit patterns, so the module needs only numpy.

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
# where each round of the p01 clamp radius solve cuts its bracket: 255 cuts
# reach adjacent floats in about eight rounds, as fast as a scipy brentq
_KSECTION_STEPS = (np.arange(1.0, 256.0) / 256.0)[:, None]
# offsets of a cut's two ends from the first pattern not above the cap
_CELL = np.array([[-1], [0]])


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


@dataclass
class ClampDiagnostics:
    """Counts how often transition entries had to be clamped."""

    events: int = 0

    def record(self, count: int):
        self.events += int(count)

    def reset(self):
        self.events = 0


clamp_diagnostics = ClampDiagnostics()


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
    """Probability exp(-(r/r0)**eta) that a link at distance r is on."""
    return _shape_back(r, params, np.exp(-_x(_check_r(r), params)))


def level_crossing_rate(r, params: ChannelParams):
    """Threshold crossing rate of the fading SNR at distance r, in Hz."""
    x = _x(_check_r(r), params)
    return _shape_back(r, params, _lcr_factor(x, params) * np.exp(-x))


def _lcr_factor(x, params: ChannelParams):
    """The LCR without its exp(-x) factor: sqrt(2 pi) nu sqrt(x)."""
    return SQRT_2PI * params.nu * np.sqrt(x)


def _unclamped_rates(r, params: ChannelParams):
    """Unclamped flip probabilities (p01, p10) at distance r, a float or an
    array.

    p10 = LCR / (p * B) and p01 = LCR / ((1 - p) * B).  At r == 0 exactly,
    p01 is 0 by convention (the off state is unreachable there).  At r > 0
    p01 diverges like 1/sqrt(x) as x -> 0, so where x = (r/r0)**eta
    underflows to 0 it is +inf (0 for a frozen chain, nu == 0); where it
    overflows p01 is 0.
    """
    x = _x(r, params)
    p01, lcr = _unclamped_p01(r, x, np.exp(-x), params)
    return p01, _p10(lcr, params)


def _unclamped_p01(r, x, on, params: ChannelParams):
    """The p01 of :func:`_unclamped_rates` at x = _x(r, params) and
    on = e**-x, and the :func:`_lcr_factor` from which p10 follows."""
    lcr = _lcr_factor(x, params)
    # p01 = lcr e^-x / ((1 - e^-x) B); -expm1(-x) = 1 - e^-x
    denom = -np.expm1(-x)
    limit = np.where(r > 0.0, np.where(params.nu > 0.0, np.inf, 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p01 = np.where(denom > 0.0, lcr * on / (denom * params.B), limit)
    return p01, lcr


def _p10(lcr, params: ChannelParams):
    """The unclamped p10 from the :func:`_lcr_factor`: the exp(-x) of the
    LCR cancels against the on probability."""
    return lcr / params.B


def _clamped(p01, p10):
    """``p01`` and ``p10`` clamped into [0, 1 - CLAMP_EPS], each clamped
    entry counted in clamp_diagnostics."""
    hi = 1.0 - CLAMP_EPS
    n_clamped = int(np.count_nonzero(p01 > hi) + np.count_nonzero(p10 > hi))
    if n_clamped:
        clamp_diagnostics.record(n_clamped)
        p01 = np.minimum(p01, hi)
        p10 = np.minimum(p10, hi)
    return p01, p10


def transition_probabilities(r, params: ChannelParams):
    """Clamped flip probabilities (p01, p10) vectorized over distance.

    The unclamped entries of :func:`_unclamped_rates`, clamped into
    [0, 1 - CLAMP_EPS].  Clamping events go to clamp_diagnostics.
    """
    p01, p10 = _clamped(*_unclamped_rates(_check_r(r), params))
    return _shape_back(r, params, p01), _shape_back(r, params, p10)


def link_probabilities(r, params: ChannelParams):
    """(p, p01, p10) at distance r: :func:`connection_probability` and
    :func:`transition_probabilities`, bit for bit, from one x = (r/r0)**eta
    and one e**-x per distance.  Clamping events go to clamp_diagnostics,
    as there."""
    arr = _check_r(r)
    x = _x(arr, params)
    on = np.exp(-x)
    p01, lcr = _unclamped_p01(arr, x, on, params)
    p01, p10 = _clamped(p01, _p10(lcr, params))
    return tuple(_shape_back(r, params, v) for v in (on, p01, p10))


def clamp_radii(params: ChannelParams, diameter: float):
    """Radii in (0, diameter) where a transition entry crosses the clamp cap.

    The unclamped p01 is strictly decreasing in r and p10 strictly
    increasing, so each contributes at most one crossing.  These radii are
    kinks of the clamped model and must be quadrature breakpoints.  p10
    grows as (r/r0)**(eta/2), so its crossing has a closed form.  The p01
    crossing is solved on the rate kernel by k-section over the float64 bit
    patterns of r (see :func:`_p01_cap_radius`).  Its lower bracket is the
    radius where x = (r/r0)**eta is the smallest normal float, so the kernel
    never sees the x == 0 of an underflowed power; a crossing below it, where
    x is not representable, is not reported.

    Returns the sorted radii of one point, or for a batch one such list per
    point; the batch's k-sections run in lockstep, each on its own bracket.
    """
    pts = params.batch()
    hi = 1.0 - CLAMP_EPS
    r_lo = np.maximum(pts.r0 * _TINY ** (1.0 / pts.eta), _TINY)
    ends = np.stack([r_lo, np.full_like(r_lo, diameter)])
    # both rates are 0 for a frozen chain (nu == 0): it has no radius
    p01, p10 = _unclamped_rates(ends, params.squeezed())
    r01 = np.full(len(r_lo), np.nan)
    # p01 diverges at 0+: the bracket holds unless p01 is below cap throughout
    solve = (r_lo < diameter) & (p01[0] > hi) & (p01[1] <= hi)
    if solve.any():
        r01[solve] = _p01_cap_radius(pts.at(solve).squeezed(), ends[:, solve])
    radii = []
    for j in range(len(r_lo)):
        point = [r01[j]]
        if p10[1, j] > hi:
            # the closed form per point, in the scalar arithmetic of one point
            point.append(pts.r0[j] * (hi * pts.B / (SQRT_2PI * pts.nu[j]))
                         ** (2.0 / pts.eta))
        radii.append(sorted(float(r) for r in point if 0.0 < r < diameter))
    return radii if params.shape else radii[0]


def _p01_cap_radius(params: ChannelParams, ends: np.ndarray) -> np.ndarray:
    """Float r where the unclamped p01 drops to the cap, between ``ends``,
    for each point of ``params``, a batch or one point.

    ``ends`` (2, n) holds two positive radii per point, p01 above the cap at
    the first and not at the second.  Positive floats are ordered like their
    bit patterns as integers, so each round evaluates the kernel at 255
    patterns evenly spaced in each point's bracket, between its two ends,
    and keeps the cell where p01 first drops to the cap.  A point stops at
    adjacent floats: p01 is above the cap at the float below its r and not
    above it at r.  A point that has stopped keeps its bracket while the
    others go on: its 255 patterns are all its lower end.
    """
    hi = 1.0 - CLAMP_EPS
    ends = ends.view(np.int64)
    cols = np.arange(ends.shape[1])
    bits = np.empty((len(_KSECTION_STEPS) + 2, len(cols)), dtype=np.int64)
    width = ends[1] - ends[0]
    while (width > 1).any():
        bits[[0, -1]] = ends
        bits[1:-1] = ends[0] + (width * _KSECTION_STEPS).astype(np.int64)
        # the first pattern where p01 is not above the cap: never the lower
        # end, where it is, and at the latest the upper end, where it is not
        r = bits.view(np.float64)
        x = _x(r, params)
        i = (_unclamped_p01(r, x, np.exp(-x), params)[0] > hi).argmin(axis=0)
        ends = bits[i + _CELL, cols]
        width = ends[1] - ends[0]
    return ends[1].view(np.float64)


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
    p01, p10 = _unclamped_rates(np.stack([r_occ, np.full_like(r_occ, D)]),
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

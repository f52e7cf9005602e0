"""Rayleigh-fading link model: connection probability, level crossing rate
and the distance-conditioned two-state (on/off) Markov transition matrix.

A link at pair distance r is on with probability exp(-(r/r0)**eta).  Moving
scatterers flip the link state at the fading level crossing rate; dividing
that rate by the symbols per second spent in a state gives the per-step
transition probabilities of a two-state Markov chain.  The division breaks
down as r -> 0 where the off state has vanishing probability, so transition
entries are clamped into [0, 1 - CLAMP_EPS] and every clamping event is
counted in :data:`clamp_diagnostics`.

The unclamped flip probabilities are written once, in ``_unclamped_rates``,
which the clamped rates, the clamp radii and the admissibility scan all read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .geometry import Domain

SQRT_2PI = np.sqrt(2.0 * np.pi)

# transition entries live in [0, 1 - CLAMP_EPS]
CLAMP_EPS = 1e-12
# admissibility threshold for the slow-fading approximation
THETA_SLOW = 0.1
# radii below r_min are excluded from detailed-balance assertions and scans
R_MIN_FRACTION = 1e-6
# the off->on entry is only scanned where the off state has occupancy
# at least OCCUPANCY_FLOOR (the approximation diverges as occupancy -> 0)
OCCUPANCY_FLOOR = 1e-5


class ChannelError(ValueError):
    """Invalid channel parameter or out-of-domain argument."""


class LinkState(enum.IntEnum):
    OFF = 0
    ON = 1


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of every link.

    r0   : typical connection range (distance units of the unit-area domain)
    eta  : path loss exponent, > 0
    nu   : maximum Doppler frequency in Hz, >= 0 (shared by all links)
    B    : transmission rate in symbols per second, > 0
    """

    r0: float
    eta: float
    nu: float
    B: float

    def __post_init__(self):
        for name in ("r0", "eta", "nu", "B"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ChannelError(f"{name} must be finite, got {value}")
        if not self.r0 > 0:
            raise ChannelError(f"r0 must be > 0, got {self.r0}")
        if not self.eta > 0:
            raise ChannelError(f"eta must be > 0, got {self.eta}")
        if self.nu < 0:
            raise ChannelError(f"nu must be >= 0, got {self.nu}")
        if not self.B > 0:
            raise ChannelError(f"B must be > 0, got {self.B}")


@dataclass
class ClampDiagnostics:
    """Counts how often transition entries had to be clamped."""

    events: int = 0

    def record(self, count: int):
        self.events += int(count)

    def reset(self):
        self.events = 0


clamp_diagnostics = ClampDiagnostics()


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 2x2 matrix of one edge's on/off chain at fixed distance."""

    p01: float  # off -> on
    p10: float  # on -> off
    clamped: bool = False

    @property
    def p00(self) -> float:
        return 1.0 - self.p01

    @property
    def p11(self) -> float:
        return 1.0 - self.p10

    def as_array(self) -> np.ndarray:
        return np.array([[self.p00, self.p01], [self.p10, self.p11]])


def _check_r(r) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0.0):
        raise ChannelError("pair distance must be >= 0")
    return arr


def _shape_back(r, out: np.ndarray):
    return out if np.ndim(r) else float(out[0])


def connection_probability(r, params: ChannelParams):
    """Probability exp(-(r/r0)**eta) that a link at distance r is on."""
    arr = _check_r(r)
    return _shape_back(r, np.exp(-((arr / params.r0) ** params.eta)))


def level_crossing_rate(r, params: ChannelParams):
    """Threshold crossing rate of the fading SNR at distance r, in Hz."""
    arr = _check_r(r)
    x = (arr / params.r0) ** params.eta
    return _shape_back(r, SQRT_2PI * np.sqrt(x) * params.nu * np.exp(-x))


def _unclamped_rates(r, params: ChannelParams):
    """Unclamped flip probabilities (p01, p10) at distance r.

    p10 = LCR / (p * B) and p01 = LCR / ((1 - p) * B).  At r == 0 exactly,
    p01 is 0 by convention (the off state is unreachable there).  ``r`` is
    used as the caller holds it, a float for root finding or an array.
    """
    x = (r / params.r0) ** params.eta
    sqrt_x = np.sqrt(x)
    # p10: the exp(-x) of the LCR cancels against the on probability
    p10 = SQRT_2PI * params.nu * sqrt_x / params.B
    # p01 = sqrt(2 pi) nu sqrt(x) e^-x / ((1 - e^-x) B); -expm1(-x) = 1 - e^-x
    denom = -np.expm1(-x)
    with np.errstate(divide="ignore", invalid="ignore"):
        p01 = np.where(
            denom > 0.0,
            SQRT_2PI * params.nu * sqrt_x * np.exp(-x) / (denom * params.B),
            0.0,
        )
    return p01, p10


def transition_probabilities(r, params: ChannelParams):
    """Clamped flip probabilities (p01, p10) vectorized over distance.

    The unclamped entries of :func:`_unclamped_rates`, clamped into
    [0, 1 - CLAMP_EPS].  Clamping events go to clamp_diagnostics.
    """
    p01, p10 = _unclamped_rates(_check_r(r), params)
    hi = 1.0 - CLAMP_EPS
    n_clamped = int(np.count_nonzero(p01 > hi) + np.count_nonzero(p10 > hi))
    if n_clamped:
        clamp_diagnostics.record(n_clamped)
        p01 = np.minimum(p01, hi)
        p10 = np.minimum(p10, hi)
    return _shape_back(r, p01), _shape_back(r, p10)


def transition_matrix(r: float, params: ChannelParams) -> TransitionMatrix:
    """Two-state transition matrix of a link at scalar distance r."""
    before = clamp_diagnostics.events
    p01, p10 = transition_probabilities(float(r), params)
    return TransitionMatrix(p01=p01, p10=p10, clamped=clamp_diagnostics.events > before)


def stationary_distribution(m: TransitionMatrix, marginal: float | None = None):
    """Solve pi P = pi for the two-state chain; returns (pi_off, pi_on).

    A frozen chain (p01 == p10 == 0) has no unique stationary law; the caller
    must then supply the on-probability ``marginal`` or an error is raised.
    """
    if m.p01 == 0.0 and m.p10 == 0.0:
        if marginal is None:
            raise ChannelError(
                "indeterminate stationary distribution of a frozen chain; "
                "supply the on-probability marginal"
            )
        return (1.0 - marginal, marginal)
    pi_on = m.p01 / (m.p01 + m.p10)
    return (1.0 - pi_on, pi_on)


def snr_connection_indicator(r: float, params: ChannelParams,
                             rng: np.random.Generator, size=None):
    """Sample the link indicator by thresholding an exponential SNR draw.

    The mean SNR is (r/r0)**-eta with the threshold normalized to 1, so the
    on-frequency over many draws converges to connection_probability(r).
    Returns a LinkState for ``size=None``, else an int8 array of 0/1.
    """
    r = float(r)
    if r <= 0.0:
        raise ChannelError("snr_connection_indicator requires r > 0")
    mean_snr = (r / params.r0) ** (-params.eta)
    gamma = rng.exponential(scale=mean_snr, size=size)
    if size is None:
        return LinkState.ON if gamma >= 1.0 else LinkState.OFF
    return (gamma >= 1.0).astype(np.int8)


def clamp_radii(params: ChannelParams, diameter: float):
    """Radii in (0, diameter) where a transition entry crosses the clamp cap.

    The unclamped p01 is strictly decreasing in r and p10 strictly
    increasing, so each contributes at most one crossing.  These radii are
    kinks of the clamped model and must be quadrature breakpoints.  p10
    grows as (r/r0)**(eta/2), so its crossing has a closed form.
    """
    if params.nu == 0.0:
        return []
    hi = 1.0 - CLAMP_EPS
    radii = []

    def unclamped_p01(r):
        return _unclamped_rates(r, params)[0]

    if unclamped_p01(diameter) < hi:
        # divergence at 0+ guarantees a bracket unless already below cap
        r_lo = diameter * 1e-18
        if unclamped_p01(r_lo) > hi:
            radii.append(brentq(lambda r: unclamped_p01(r) - hi, r_lo, diameter, xtol=1e-300, rtol=1e-15))
    if _unclamped_rates(diameter, params)[1] > hi:
        radii.append(params.r0 * (hi * params.B / (SQRT_2PI * params.nu)) ** (2.0 / params.eta))
    return sorted(r for r in radii if 0.0 < r < diameter)


@dataclass(frozen=True)
class SlowFadingReport:
    """Admissibility scan of the slow-fading approximation over a domain."""

    max_p01: float
    argmax_p01: float
    max_p10: float
    argmax_p10: float
    scan_lo_p01: float
    scan_lo_p10: float
    threshold: float
    admissible: bool


def slow_fading_report(params: ChannelParams, domain: Domain,
                       n_scan: int = 2048) -> SlowFadingReport:
    """Scan unclamped transition probabilities over [0, D] for admissibility.

    Both entries must stay at or below THETA_SLOW.  The off->on entry is
    scanned only where the off state has occupancy >= OCCUPANCY_FLOOR: below
    that radius the approximation diverges while describing transitions out
    of a state the edge essentially never occupies.
    """
    D = domain.diameter
    r_min = R_MIN_FRACTION * D
    # occupancy floor radius: 1 - p(r) = OCCUPANCY_FLOOR
    x_occ = -np.log1p(-OCCUPANCY_FLOOR)
    r_occ = params.r0 * x_occ ** (1.0 / params.eta)
    lo_p01 = min(max(r_min, r_occ), D)
    lo_p10 = min(r_min, D)

    if params.nu == 0.0:
        return SlowFadingReport(0.0, lo_p01, 0.0, lo_p10, lo_p01, lo_p10,
                                THETA_SLOW, True)

    grid01 = np.geomspace(lo_p01, D, n_scan)
    grid10 = np.geomspace(lo_p10, D, n_scan)
    p01 = _unclamped_rates(grid01, params)[0]
    p10 = _unclamped_rates(grid10, params)[1]
    i01 = int(np.argmax(p01))
    i10 = int(np.argmax(p10))
    return SlowFadingReport(
        max_p01=float(p01[i01]),
        argmax_p01=float(grid01[i01]),
        max_p10=float(p10[i10]),
        argmax_p10=float(grid10[i10]),
        scan_lo_p01=float(lo_p01),
        scan_lo_p10=float(lo_p10),
        threshold=THETA_SLOW,
        admissible=bool(p01[i01] <= THETA_SLOW and p10[i10] <= THETA_SLOW),
    )

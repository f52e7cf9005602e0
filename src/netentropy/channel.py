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
The p01 clamp radius is found on that kernel by an in-repo bracketed solve,
a k-section over float64 bit patterns, so the module needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# geometric grid points per entry of the admissibility scan
_N_SCAN = 2048
# smallest normal float64: the lower bracket of the p01 clamp radius in x
_TINY = np.finfo(float).tiny
# where each round of the p01 clamp radius solve cuts its bracket: 255 cuts
# reach adjacent floats in about eight rounds, as fast as a scipy brentq
_KSECTION_STEPS = np.arange(1.0, 256.0) / 256.0


class ChannelError(ValueError):
    """Invalid channel parameter or out-of-domain argument."""


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


def _check_r(r) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(arr >= 0.0):
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
    p01 is 0 by convention (the off state is unreachable there).  At r > 0
    p01 diverges like 1/sqrt(x) as x -> 0, so where x = (r/r0)**eta
    underflows to 0 it is +inf (0 for a frozen chain, nu == 0).  ``r`` is
    used as the caller holds it, a float for root finding or an array.
    """
    x = (r / params.r0) ** params.eta
    sqrt_x = np.sqrt(x)
    # p10: the exp(-x) of the LCR cancels against the on probability
    p10 = SQRT_2PI * params.nu * sqrt_x / params.B
    # p01 = sqrt(2 pi) nu sqrt(x) e^-x / ((1 - e^-x) B); -expm1(-x) = 1 - e^-x
    denom = -np.expm1(-x)
    limit = np.where(r > 0.0, np.inf if params.nu > 0.0 else 0.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p01 = np.where(
            denom > 0.0,
            SQRT_2PI * params.nu * sqrt_x * np.exp(-x) / (denom * params.B),
            limit,
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
    """
    if params.nu == 0.0:
        return []
    hi = 1.0 - CLAMP_EPS
    r_lo = max(params.r0 * _TINY ** (1.0 / params.eta), _TINY)
    ends = np.array([r_lo, diameter])
    p01, p10 = _unclamped_rates(ends, params)
    radii = []
    # p01 diverges at 0+: the bracket holds unless p01 is below cap throughout
    if r_lo < diameter and p01[0] > hi and p01[1] <= hi:
        radii.append(_p01_cap_radius(params, ends))
    if p10[1] > hi:
        radii.append(params.r0 * (hi * params.B / (SQRT_2PI * params.nu)) ** (2.0 / params.eta))
    return sorted(r for r in radii if 0.0 < r < diameter)


def _p01_cap_radius(params: ChannelParams, ends: np.ndarray) -> float:
    """Float r where the unclamped p01 drops to the cap, between ``ends``.

    ``ends`` holds two positive radii, p01 above the cap at the first and not
    at the second.  Positive floats are ordered like their bit patterns as
    integers, so each round evaluates the kernel at 255 patterns evenly
    spaced in the bracket and keeps the cell where p01 first drops to the
    cap.  The rounds stop at adjacent floats: p01 is above the cap at the
    float below the returned r and not above it at r.
    """
    hi = 1.0 - CLAMP_EPS
    lo, up = ends.view(np.int64).tolist()
    while up - lo > 1:
        bits = lo + ((up - lo) * _KSECTION_STEPS).astype(np.int64)
        above = _unclamped_rates(bits.view(np.float64), params)[0] > hi
        i = int(above.argmin())
        if above[i]:
            lo = int(bits[-1])
        else:
            up = int(bits[i])
            if i:
                lo = int(bits[i - 1])
    return float(np.int64(up).view(np.float64))


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


def slow_fading_report(params: ChannelParams, domain: Domain) -> SlowFadingReport:
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

    grid01 = np.geomspace(lo_p01, D, _N_SCAN)
    grid10 = np.geomspace(lo_p10, D, _N_SCAN)
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

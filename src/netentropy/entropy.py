"""Distance-averaged edge statistics, entropy-rate bounds and the exact
single-edge block-entropy oracle.

Everything here is a piecewise Gauss-Legendre integral against the
pair-distance density f_R of the domain.  Integration panels are split at
the density kinks and at the radii where the transition-probability clamp
engages, so every integrand is smooth inside each panel.

Entropies are in bits per time step throughout.

The bounds of a batch of points (r0 or nu arrays, see
:class:`~netentropy.channel.ChannelParams`) share their quadratures: the
points with the same number of breakpoints are integrated together, one
column each, a point leaving its batch once its column converges, and every
point gets the numbers it would get alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import ChannelParams
from .geometry import Domain
from .quadrature import (DEFAULT_SPEC, QuadratureError, QuadratureSpec,
                         integrate_piecewise, max_columns)

MAX_ORACLE_STEPS = 12


def _xlog2(q: np.ndarray) -> np.ndarray:
    """-q log2 q, 0 where q is 0.  The log is preset to -0.0 where q is 0,
    so that (-q) * log is +0.0 there."""
    return -q * np.log2(q, where=q > 0.0, out=np.full_like(q, -0.0))


def _binary_entropy(q: np.ndarray) -> np.ndarray:
    return _xlog2(q) + _xlog2(1.0 - q)


def integration_breakpoints(domain: Domain, params: ChannelParams):
    """Density kinks plus transition-clamp boundaries, strictly increasing;
    for a batch of points, one such list per point."""
    kinks = domain.distance_density().breakpoints
    radii = channel.clamp_radii(params, domain.diameter)
    if not params.shape:
        return sorted({*kinks, *radii})
    return [sorted({*kinks, *point}) for point in radii]


@dataclass(frozen=True)
class EdgeMoments:
    """Every first-order distance average of one edge, from one quadrature.

    p_on and p_off are the averaged marginal; p01, p00, p10 and p11 the
    separately averaged transition entries, the integrals of the clamped
    conditionals p_ab(r) (not the conditionals of the averaged joint);
    lower is H(X2|X1,R), the integral of the conditional entropy with the
    pair distance known; joint01 and joint10 are the averaged joint
    probabilities P(X1 = 0, X2 = 1) and P(X1 = 1, X2 = 0).
    """

    p_on: float
    p_off: float
    p01: float
    p00: float
    p10: float
    p11: float
    lower: float
    joint01: float
    joint10: float

    def composition(self) -> float:
        """The averaged composition sum_a P(a) H(P(.|a)), the upper bound."""
        # weight each averaged row's entropy terms by the averaged marginal
        return self.p_off * float(np.sum(_xlog2(np.array([self.p00, self.p01])))) \
            + self.p_on * float(np.sum(_xlog2(np.array([self.p10, self.p11]))))

    def joint_conditional(self) -> float:
        """H(X2|X1) of the averaged joint law P(X1 = a, X2 = b)."""
        joint = np.array([
            [self.p_off - self.joint01, self.joint01],   # (0,0), (0,1)
            [self.joint10, self.p_on - self.joint10],    # (1,0), (1,1)
        ])
        marginal = joint.sum(axis=1)
        h = 0.0
        for a in (0, 1):
            for b in (0, 1):
                if joint[a, b] > 0.0:
                    h -= joint[a, b] * math.log2(joint[a, b] / marginal[a])
        return float(h)


def _moment_integrand(domain: Domain, params: ChannelParams):
    """The stacked :class:`EdgeMoments` integrands at nodes r, whose trailing
    axis runs over the points of a batch ``params``, and the ``columns``
    callback of :func:`integrate_piecewise` that narrows them to the points
    a batch still integrates."""
    density = domain.distance_density()
    live = params.squeezed()

    def integrand(r):
        w = density.pdf(r)
        p, p01, p10 = channel.link_probabilities(r, live)
        off = 1.0 - p
        lower = off * _binary_entropy(p01) + p * _binary_entropy(p10)
        terms = (p, off, p01, 1.0 - p01, p10, 1.0 - p10, lower, off * p01, p * p10)
        # each term times w, written straight into the stacked result
        out = np.empty((len(terms), *w.shape))
        for k, term in enumerate(terms):
            np.multiply(term, w, out=out[k])
        return out

    def columns(active):
        nonlocal live
        live = params.at(active).squeezed()

    return integrand, columns


def _per_point(params: ChannelParams, results: list):
    """``results``, one per point of ``params.batch()``, in the shape of
    ``params``: the list for a batch; for one point its result, or its
    error raised."""
    if params.shape:
        return results
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def edge_moments(domain: Domain, params: ChannelParams,
                 spec: QuadratureSpec = DEFAULT_SPEC, breakpoints=None):
    """Integrate every :class:`EdgeMoments` field against f_R in one stacked
    quadrature, shared by the points of a batch with the same number of
    breakpoints, at most :func:`~netentropy.quadrature.max_columns` at a time.

    ``breakpoints`` are those :func:`integration_breakpoints` returns for
    ``domain`` and ``params``, solved here when not given.

    One point returns its EdgeMoments or raises the :class:`QuadratureError`
    of a refinement that did not converge; a batch returns one entry per
    point, its EdgeMoments or its QuadratureError.
    """
    points = params.batch()
    if breakpoints is None:
        breakpoints = integration_breakpoints(domain, params)
    if not params.shape:
        breakpoints = [breakpoints]
    by_count = {}
    for j, pts in enumerate(breakpoints):
        by_count.setdefault(len(pts), []).append(j)
    width = max_columns(spec)
    out = [None] * len(breakpoints)
    for members in by_count.values():
        for start in range(0, len(members), width):
            cols = members[start:start + width]
            pts = np.array([breakpoints[j] for j in cols]).T
            group = params if len(cols) == len(out) else points.at(cols)
            integrand, columns = _moment_integrand(domain, group)
            try:
                values = integrate_piecewise(integrand, pts, spec, columns=columns)
                error, converged = None, np.ones(len(cols), dtype=bool)
            except QuadratureError as exc:
                values, error, converged = exc.result, exc, exc.converged
            for k, j in enumerate(cols):
                out[j] = EdgeMoments(*values[:, k].tolist()) if converged[k] else error
    return _per_point(params, out)


@dataclass(frozen=True)
class EntropyRateBounds:
    """Per-edge and network-level entropy-rate bounds in bits per step.

    per_edge_lower is H(X2|X1,R) and per_edge_upper the averaged
    composition; these are the values the CLI writes.  per_edge_joint_upper
    is H(X2|X1) of the distance-averaged process, which bounds the entropy
    rate of any stationary process from above.  It is at least
    per_edge_lower (conditioning on R lowers entropy) and at most
    per_edge_upper while the averaged flip probabilities stay below 1/2:
    p01 falls and p10 rises in r, so each joint-consistent flip probability
    is at most its separately averaged counterpart (Chebyshev's sum
    inequality).  Network values are exactly the per-edge values times
    C(n, 2).
    """

    per_edge_lower: float
    per_edge_upper: float
    n: int
    per_edge_joint_upper: float

    def __post_init__(self):
        slack = 1e-9
        if not (-slack <= self.per_edge_lower
                <= self.per_edge_upper <= 1.0 + slack):
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper <= 1 bit, got "
                f"({self.per_edge_lower}, {self.per_edge_upper})"
            )

    @property
    def edge_count(self) -> int:
        return math.comb(self.n, 2)

    @property
    def network_lower(self) -> float:
        return self.edge_count * self.per_edge_lower

    @property
    def network_upper(self) -> float:
        return self.edge_count * self.per_edge_upper

    @property
    def network_joint_upper(self) -> float:
        return self.edge_count * self.per_edge_joint_upper


def entropy_rate_bounds(n: int, domain: Domain, params: ChannelParams,
                        spec: QuadratureSpec = DEFAULT_SPEC, breakpoints=None):
    """Sandwich bounds on the entropy rate of the n-node temporal network,
    from :func:`edge_moments` over ``breakpoints``.  One point returns its
    :class:`EntropyRateBounds` or raises the error that stopped it, a
    :class:`QuadratureError` or the ValueError of bounds out of order; a
    batch returns one entry per point, its bounds or its error."""
    if n < 2:
        raise ValueError(f"node count must be >= 2, got {n}")
    moments = edge_moments(domain, params, spec, breakpoints)
    out = []
    for m in moments if params.shape else [moments]:
        if isinstance(m, EdgeMoments):
            try:
                m = EntropyRateBounds(per_edge_lower=m.lower,
                                      per_edge_upper=m.composition(), n=n,
                                      per_edge_joint_upper=m.joint_conditional())
            except ValueError as exc:
                m = exc
        out.append(m)
    return _per_point(params, out)


def _compositions(n: int, parts: int) -> int:
    """Ways to write n as an ordered sum of ``parts`` positive integers."""
    if parts == 0:
        return int(n == 0)
    return math.comb(n - 1, parts - 1) if n >= parts else 0


@functools.lru_cache(maxsize=None)
def _sequence_classes(t: int) -> np.ndarray:
    """The classes of the 2**t on/off sequences of length t.

    Under a two-state Markov chain a sequence's probability depends only on
    its first state a and its transition counts, which its number of runs k
    and of zeros z fix.  Returns a read-only int array with one row
    (a, k, z, mult, n01, n00, n10, n11) per class; mult =
    C(z-1, r0-1) * C(o-1, r1-1) counts the ways to cut the z zeros into r0
    runs and the o = t - z ones into r1 runs.
    """
    rows = []
    for a, k, z in itertools.product((0, 1), range(1, t + 1), range(t + 1)):
        ones_runs = (k + a) // 2
        zero_runs = k - ones_runs
        mult = _compositions(z, zero_runs) * _compositions(t - z, ones_runs)
        if mult:
            # the k - 1 flips alternate, starting with the one away from a
            away, back = k // 2, (k - 1) // 2
            n01, n10 = (away, back) if a == 0 else (back, away)
            rows.append((a, k, z, mult, n01, z - zero_runs, n10,
                         t - z - ones_runs))
    classes = np.array(rows, dtype=np.int64)
    classes.flags.writeable = False   # the cache hands it to every caller
    return classes


@functools.lru_cache(maxsize=None)
def _extensions(t: int):
    """Indices among the length-t classes of the two one-step extensions of
    each length t-1 class: (same last bit appended, flipped bit appended).

    A length t-1 sequence ends in a if it has an odd number of runs, else in
    1 - a.  Appending the same bit keeps its runs and adds a zero if that
    state is 0; appending the flipped bit adds a run.  A class's sequence
    probability at t - 1 is the sum of its two extensions' at t.
    """
    longer = _sequence_classes(t)
    index = np.zeros((2, t + 1, t + 1), dtype=np.int64)
    index[longer[:, 0], longer[:, 1], longer[:, 2]] = np.arange(len(longer))
    shorter = _sequence_classes(t - 1)
    a, k, z = shorter[:, :3].T
    last = np.where(k % 2 == 1, a, 1 - a)
    same = index[a, k, z + (last == 0)]
    flipped = index[a, k + 1, z + (last == 1)]
    same.flags.writeable = flipped.flags.writeable = False
    return same, flipped


def _class_probabilities(domain: Domain, params: ChannelParams, t_max: int,
                         spec: QuadratureSpec, breakpoints=None) -> np.ndarray:
    """Probability of each sequence of each length-t_max class, integrated
    over the pair distance between ``breakpoints``, solved here when not
    given."""
    first, _, _, _, n01, n00, n10, n11 = _sequence_classes(t_max).T
    # integer powers, so that the frozen chain's 0**0 is 1
    exponents = np.arange(t_max)[:, None]
    density = domain.distance_density()

    def integrand(r):
        w = density.pdf(r)
        p, p01, p10 = channel.link_probabilities(r, params)
        start = np.stack([1.0 - p, p])
        powers = np.stack([p01, 1.0 - p01, p10, 1.0 - p10])[:, None, :] ** exponents
        return (start[first] * powers[0, n01] * powers[1, n00]
                * powers[2, n10] * powers[3, n11] * w)

    if breakpoints is None:
        breakpoints = integration_breakpoints(domain, params)
    probs = integrate_piecewise(integrand, breakpoints, spec)
    return np.maximum(probs, 0.0)


def block_entropy_profile(domain: Domain, params: ChannelParams, t_max: int,
                          spec: QuadratureSpec = DEFAULT_SPEC, breakpoints=None):
    """Exact H_t and h_t for t = 1..t_max.

    The 2**t_max on/off sequences fall into classes of equal probability
    (first state, runs, zeros; see :func:`_sequence_classes`), 134 at
    t_max = 12.  The quadrature integrates one component per class, the
    probability of each of its sequences, over ``breakpoints``
    (:func:`integration_breakpoints`, solved here when not given); shorter
    horizons marginalize the last step class by class.

    Returns (H, h): arrays of length t_max, H[k] = H_{k+1}.
    """
    if not 1 <= t_max <= MAX_ORACLE_STEPS:
        raise ValueError(f"t must be in [1, {MAX_ORACLE_STEPS}], got {t_max}")
    probs = _class_probabilities(domain, params, t_max, spec, breakpoints)
    H = np.empty(t_max)
    for t in range(t_max, 0, -1):
        H[t - 1] = float(_sequence_classes(t)[:, 3] @ _xlog2(probs))
        if t > 1:
            same, flipped = _extensions(t)
            probs = probs[same] + probs[flipped]
    h = np.diff(H, prepend=0.0)
    return H, h

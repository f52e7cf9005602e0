"""Unit-area bounding domains, uniform point maps and pair-distance densities.

Three convex domains of area exactly 1 are supported: the unit square, the
disk of radius 1/sqrt(pi) and the equilateral triangle of side 2/3**(1/4).
Each is one :class:`Domain` record of the domain table: its diameter, the
closed-form probability density f_R(r) of the distance between two independent
uniform points inside it, the radii where that density is not smooth
(quadrature must split there) and its uniform-to-point map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .quadrature import integrate_piecewise, max_columns

_SQRT3 = np.sqrt(3.0)
_DISK_RADIUS = 1.0 / np.sqrt(np.pi)
_TRI_SIDE = 2.0 / 3.0 ** 0.25
_TRI_HEIGHT = 0.5 * _SQRT3 * _TRI_SIDE
_TRI_VERTICES = np.array(
    [[0.0, 0.0], [_TRI_SIDE, 0.0], [0.5 * _TRI_SIDE, _TRI_HEIGHT]]
)


class DomainError(ValueError):
    """Raised for unknown domain names."""


@dataclass(frozen=True)
class Domain:
    """A unit-area convex region in the plane, one row of the domain table.

    ``kinks`` are the interior radii where f_R is not smooth; the private
    fields hold the domain's formulas (f_R, uniforms to points).
    Instances are immutable; obtain them from :func:`domain_from_name` or the
    module-level singletons ``SQUARE``, ``DISK``, ``TRIANGLE``.
    """

    name: str
    diameter: float
    kinks: Tuple[float, ...]
    _pdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _points: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)

    def points_from_uniforms(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Map two independent U(0,1) arrays to uniform points, shape (len, 2)."""
        return self._points(np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    def distance_density(self) -> "DistanceDensity":
        return DistanceDensity(self)


def _square_points(u, v):
    return np.column_stack([u, v])


def _disk_points(u, v):
    r = _DISK_RADIUS * np.sqrt(u)
    theta = 2.0 * np.pi * v
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _triangle_points(u, v):
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    e1 = _TRI_VERTICES[1] - _TRI_VERTICES[0]
    e2 = _TRI_VERTICES[2] - _TRI_VERTICES[0]
    return _TRI_VERTICES[0] + np.outer(u, e1) + np.outer(v, e2)


def domain_from_name(name: str) -> Domain:
    if name not in DOMAIN_NAMES:
        raise DomainError(f"unknown domain {name!r}; expected one of {DOMAIN_NAMES}")
    return _DOMAINS[name]


def _square_pdf(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    m1 = (r >= 0.0) & (r <= 1.0)
    rr = r[m1]
    out[m1] = 2.0 * rr * (rr ** 2 - 4.0 * rr + np.pi)
    m2 = (r > 1.0) & (r <= np.sqrt(2.0))
    rr = r[m2]
    s = np.sqrt(np.maximum(rr ** 2 - 1.0, 0.0))
    out[m2] = 2.0 * rr * (4.0 * s - (rr ** 2 + 2.0 - np.pi) - 4.0 * np.arctan(s))
    # cancellation at the support end can leave O(1e-15) negatives
    return np.maximum(out, 0.0)


def _disk_pdf(r: np.ndarray) -> np.ndarray:
    # 2*pi*r times the lens area of two unit-area disks at center distance r
    R = _DISK_RADIUS
    out = np.zeros_like(r)
    m = (r >= 0.0) & (r <= 2.0 * R)
    rr = r[m]
    lens = 2.0 * R ** 2 * np.arccos(np.clip(rr / (2.0 * R), -1.0, 1.0)) \
        - 0.5 * rr * np.sqrt(np.maximum(4.0 * R ** 2 - rr ** 2, 0.0))
    out[m] = 2.0 * np.pi * rr * lens
    return np.maximum(out, 0.0)


def _triangle_pdf(r: np.ndarray) -> np.ndarray:
    # Derived from the covariogram of the triangle: the intersection of an
    # equilateral triangle with its translate by r*u(theta) is a similar
    # triangle of height h - r*cos(alpha), alpha the angle of u to the nearest
    # edge normal (Viviani).  Integrating (1 - (r/h) cos(alpha))^2 over
    # directions gives the two branches below; kink at r = h.
    h = _TRI_HEIGHT
    out = np.zeros_like(r)
    m1 = (r >= 0.0) & (r <= h)
    rr = r[m1]
    out[m1] = 2.0 * np.pi * rr - 12.0 * rr ** 2 / h \
        + (np.pi + 1.5 * _SQRT3) * rr ** 3 / h ** 2
    m2 = (r > h) & (r <= _TRI_SIDE)
    rr = r[m2]
    b = rr / h
    a0 = np.arccos(np.clip(1.0 / b, -1.0, 1.0))
    out[m2] = 12.0 * rr * (
        (np.pi / 6.0 - a0) * (1.0 + 0.5 * b ** 2)
        - b
        + 1.5 * np.sqrt(np.maximum(b ** 2 - 1.0, 0.0))
        + _SQRT3 / 8.0 * b ** 2
    )
    return np.maximum(out, 0.0)


# the domain table
SQUARE = Domain("square", np.sqrt(2.0), (1.0,), _square_pdf, _square_points)
DISK = Domain("disk", 2.0 * _DISK_RADIUS, (), _disk_pdf, _disk_points)
TRIANGLE = Domain("triangle", _TRI_SIDE, (_TRI_HEIGHT,), _triangle_pdf, _triangle_points)
DOMAINS = (SQUARE, DISK, TRIANGLE)
_DOMAINS = {d.name: d for d in DOMAINS}
DOMAIN_NAMES = tuple(_DOMAINS)


@dataclass(frozen=True)
class DistanceDensity:
    """Closed-form pair-distance density of a domain.

    ``breakpoints`` lists every radius (support endpoints included) where the
    density is not smooth; piecewise quadrature must never straddle them.
    """

    domain: Domain

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return (0.0, *self.domain.kinks, self.domain.diameter)

    def pdf(self, r) -> np.ndarray:
        """Evaluate f_R at scalar or array ``r`` (zero outside the support)."""
        out = self.domain._pdf(np.atleast_1d(np.asarray(r, dtype=float)))
        return out if np.ndim(r) else float(out[0])

    def interval_probabilities(self, edges) -> np.ndarray:
        """P(edges[i] <= R < edges[i + 1]) for strictly increasing ``edges``
        in [0, diameter], integrated by :func:`integrate_piecewise`.

        Each bin is one column with three breakpoints: its two ends and,
        between them, the kink strictly inside the bin or else the bin's
        midpoint.  No domain has more than one kink, so f_R is smooth between
        a column's breakpoints.  Bins go in chunks of :func:`max_columns`.
        """
        e = np.asarray(edges, dtype=float)
        if not (e.ndim == 1 and len(e) >= 2 and np.all(e[1:] > e[:-1])
                and e[0] >= 0.0 and e[-1] <= self.domain.diameter):
            raise ValueError("edges must be strictly increasing within "
                             f"[0, {self.domain.diameter}]")
        lo, hi = e[:-1], e[1:]
        mid = 0.5 * (lo + hi)
        for k in self.domain.kinks:
            mid = np.where((lo < k) & (k < hi), k, mid)
        cols = np.stack([lo, mid, hi])
        step = max_columns()
        return np.concatenate([integrate_piecewise(self.pdf, cols[:, i:i + step])
                               for i in range(0, cols.shape[1], step)])

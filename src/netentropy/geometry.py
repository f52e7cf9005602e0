"""Unit-area bounding domains, uniform point maps and pair-distance densities.

Three convex domains of area exactly 1 are supported: the unit square, the
disk of radius 1/sqrt(pi) and the equilateral triangle of side 2/3**(1/4).
Each is one :class:`Domain` record of the domain table: its diameter, the
closed-form probability density f_R(r) of the distance between two independent
uniform points inside it, the radii where that density is not smooth
(quadrature must split there), its uniform-to-point map, membership test and
a longest chord.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

_SQRT3 = np.sqrt(3.0)
_DISK_RADIUS = 1.0 / np.sqrt(np.pi)
_TRI_SIDE = 2.0 / 3.0 ** 0.25
_TRI_HEIGHT = 0.5 * _SQRT3 * _TRI_SIDE
_TRI_VERTICES = np.array(
    [[0.0, 0.0], [_TRI_SIDE, 0.0], [0.5 * _TRI_SIDE, _TRI_HEIGHT]]
)
# membership slack at the boundary, in coordinate units
_CONTAINS_TOL = 1e-12
# grid points of the numeric CDF
_CDF_GRID = 20001


class DomainError(ValueError):
    """Raised for unknown domain names."""


@dataclass(frozen=True)
class Domain:
    """A unit-area convex region in the plane, one row of the domain table.

    ``kinks`` are the interior radii where f_R is not smooth and ``chord``
    the ends of a longest chord; the private fields hold the domain's
    formulas (f_R, uniforms to points, membership of coordinates x, y).
    Instances are immutable; obtain them from :func:`domain_from_name` or the
    module-level singletons ``SQUARE``, ``DISK``, ``TRIANGLE``.
    """

    name: str
    diameter: float
    kinks: Tuple[float, ...]
    chord: Tuple[Tuple[float, float], Tuple[float, float]]
    _pdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _points: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    _contains: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership test for an (..., 2) array of coordinates, to within
        _CONTAINS_TOL of the boundary."""
        pts = np.asarray(points, dtype=float)
        return self._contains(pts[..., 0], pts[..., 1])

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


def _square_contains(x, y):
    tol = _CONTAINS_TOL
    return (x >= -tol) & (x <= 1 + tol) & (y >= -tol) & (y <= 1 + tol)


def _disk_contains(x, y):
    return x ** 2 + y ** 2 <= _DISK_RADIUS ** 2 + _CONTAINS_TOL


def _triangle_contains(x, y):
    # half-plane tests against the three triangle edges (CCW order)
    inside = np.ones(np.shape(x), dtype=bool)
    for k in range(3):
        a = _TRI_VERTICES[k]
        b = _TRI_VERTICES[(k + 1) % 3]
        cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        inside &= cross >= -_CONTAINS_TOL
    return inside


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
SQUARE = Domain("square", np.sqrt(2.0), (1.0,), ((0.0, 0.0), (1.0, 1.0)),
                _square_pdf, _square_points, _square_contains)
DISK = Domain("disk", 2.0 * _DISK_RADIUS, (), ((-_DISK_RADIUS, 0.0), (_DISK_RADIUS, 0.0)),
              _disk_pdf, _disk_points, _disk_contains)
TRIANGLE = Domain("triangle", _TRI_SIDE, (_TRI_HEIGHT,), ((0.0, 0.0), (_TRI_SIDE, 0.0)),
                  _triangle_pdf, _triangle_points, _triangle_contains)
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

    def cdf(self, r) -> np.ndarray:
        """Numeric CDF by composite Simpson integration of the pdf on
        _CDF_GRID points."""
        D = self.domain.diameter
        grid = np.linspace(0.0, D, _CDF_GRID)
        vals = self.pdf(grid)
        mids = self.pdf(0.5 * (grid[1:] + grid[:-1]))
        step = grid[1] - grid[0]
        simpson = np.zeros_like(grid)
        simpson[1:] = np.cumsum(step / 6.0 * (vals[:-1] + 4.0 * mids + vals[1:]))
        out = np.interp(np.asarray(r, dtype=float), grid, np.clip(simpson, 0.0, 1.0))
        return out if np.ndim(r) else float(out)

"""Piecewise Gauss-Legendre quadrature with dyadic panel refinement.

All distance averages in this package integrate piecewise-smooth functions
of the pair distance over [0, D].  The integrand is smooth between known
breakpoints (density kinks, clamp boundaries of the transition model), so a
fixed-order Gauss rule per panel converges spectrally once panels never
straddle a breakpoint.  Refinement halves every panel and accepts the result
when two successive depths agree to the requested relative tolerance.

Integrands are evaluated vectorized: ``f(nodes)`` receives a 1-D array of
abscissae and may return either a matching 1-D array or a stack of integrand
components with shape (..., len(nodes)); the integral keeps the leading shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Dyadic refinement failed to converge within the allowed depth."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy knobs for the piecewise Gauss-Legendre integrator."""

    nodes_per_panel: int = 16
    rel_tolerance: float = 1e-8
    max_depth: int = 12

    def __post_init__(self):
        if self.nodes_per_panel < 8:
            raise ValueError("nodes_per_panel must be >= 8")
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ValueError("rel_tolerance must be in (0, 1)")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


def _gauss_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


# cap on nodes per integrand call so deep refinement of wide vector
# integrands (the oracle's per-class stack) stays memory-bounded
_MAX_NODES_PER_CALL = 4096


def _eval_depth(f, segments, depth: int, order: int):
    """Integral with each segment split into 2**depth equal panels."""
    xg, wg = _gauss_nodes(order)
    panels_per_call = max(1, _MAX_NODES_PER_CALL // order)
    total = None
    for lo, hi in segments:
        edges = np.linspace(lo, hi, 2 ** depth + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        for start in range(0, len(mid), panels_per_call):
            sl = slice(start, start + panels_per_call)
            nodes = (mid[sl, None] + half[sl, None] * xg[None, :]).ravel()
            vals = np.asarray(f(nodes), dtype=float)
            vals = vals.reshape(vals.shape[:-1] + (-1, order))
            contrib = np.sum(vals * wg, axis=-1) @ half[sl]
            total = contrib if total is None else total + contrib
    return total


def integrate_piecewise(f, breakpoints, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate ``f`` over the interval spanned by sorted ``breakpoints``.

    Panels are refined dyadically until two successive depths agree to
    ``spec.rel_tolerance`` (relative to max(1, |result|), componentwise for
    vector integrands).  Raises :class:`QuadratureError` if ``max_depth`` is
    reached without convergence.
    """
    pts = [float(b) for b in breakpoints]
    if len(pts) < 2 or any(b <= a for a, b in zip(pts[:-1], pts[1:])):
        raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
    segments = list(zip(pts[:-1], pts[1:]))

    prev = _eval_depth(f, segments, 0, spec.nodes_per_panel)
    for depth in range(1, spec.max_depth + 1):
        cur = _eval_depth(f, segments, depth, spec.nodes_per_panel)
        err = np.max(np.abs(cur - prev))
        scale = max(1.0, float(np.max(np.abs(cur))))
        if err <= spec.rel_tolerance * scale:
            return cur
        prev = cur
    raise QuadratureError(
        f"no convergence after depth {spec.max_depth} "
        f"({2 ** spec.max_depth} panels per segment); last error {err:.3e}"
    )

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
One call carries the nodes of every segment of one refinement depth, in
segment order, at most 4,096 of them, so a call may span breakpoints and
``f`` must be elementwise in its argument: the value at a node may not
depend on the other nodes of the call.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _gauss_nodes(order: int):
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False   # shared by every call
    return xg, wg


# cap on nodes per integrand call so deep refinement of wide vector
# integrands (the oracle's per-class stack) stays memory-bounded
_MAX_NODES_PER_CALL = 4096


def _calls(groups, panels_per_call: int):
    """Split the panel groups, in order, into runs that fit one call."""
    batch, panels = [], 0
    for group in groups:
        if panels + len(group[0]) > panels_per_call:
            yield batch
            batch, panels = [], 0
        batch.append(group)
        panels += len(group[0])
    yield batch


def _eval_depth(f, segments, depth: int, order: int):
    """Integral with each segment split into 2**depth equal panels.

    Each segment's panels are summed in groups of at most ``panels_per_call``.
    Consecutive groups, across segments, share one integrand call while their
    nodes fit the cap; each group's weighted sum is then formed on its own
    and added in segment order, so merging calls does not move a bit.
    """
    xg, wg = _gauss_nodes(order)
    panels_per_call = max(1, _MAX_NODES_PER_CALL // order)
    groups = []   # (half-widths, midpoints) of each panel group, in order
    for lo, hi in segments:
        edges = np.linspace(lo, hi, 2 ** depth + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        for start in range(0, len(mid), panels_per_call):
            sl = slice(start, start + panels_per_call)
            groups.append((half[sl], mid[sl]))
    total = None
    for batch in _calls(groups, panels_per_call):
        nodes = np.concatenate([(mid[:, None] + half[:, None] * xg[None, :]).ravel()
                                for half, mid in batch])
        vals = np.asarray(f(nodes), dtype=float)
        vals = vals.reshape(vals.shape[:-1] + (-1, order))
        at = 0
        for half, _ in batch:
            contrib = np.sum(vals[..., at:at + len(half), :] * wg, axis=-1) @ half
            at += len(half)
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

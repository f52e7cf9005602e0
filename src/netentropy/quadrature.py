"""Piecewise Gauss-Legendre quadrature with dyadic panel refinement.

All distance averages in this package integrate piecewise-smooth functions
of the pair distance over [0, D].  The integrand is smooth between known
breakpoints (density kinks, clamp boundaries of the transition model), so a
fixed-order Gauss rule per panel converges spectrally once panels never
straddle a breakpoint.  Refinement halves every panel and accepts the result
when two successive depths agree to the requested relative tolerance.

One call integrates one problem, or a batch of problems along a trailing
column axis: ``breakpoints`` of shape (K,) or (K, B), column j holding
problem j's K strictly increasing breakpoints.  Integrands are evaluated
vectorized: ``f(nodes)`` receives one array of abscissae, shape (M,) or
(M, B) with the node axis first, and returns a matching array or a stack of
integrand components with shape (..., M) or (..., M, B); the integral keeps
the leading shape and the column axis.  One call carries, in segment order,
the nodes of every segment and every open column at one refinement depth, at
most 4,096 nodes counted over all columns, so a call may span breakpoints
and ``f`` must be elementwise in its argument: the value at a node may not
depend on the other nodes of the call.  Parameters of the problems (one per
column) broadcast against the trailing axis.  A column leaves the batch once
it converges, so later depths evaluate only the columns still open; an
integrand with per-column parameters learns which ones through the
``columns`` callback, which receives their indices into the original batch
before the next depth.  Each column's panels, Gauss sums, dot products and
additions are those of its problem integrated alone, so a batch gives every
column's integral bit for bit, whatever columns it still holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Dyadic refinement failed to converge within the allowed depth.

    ``converged`` marks the columns that did converge (one entry per column,
    a 0-d array for a single problem) and ``result`` holds the integral,
    NaN in the columns that did not.
    """

    def __init__(self, message: str, result=None, converged=None):
        super().__init__(message)
        self.result = result
        self.converged = converged


# cap on nodes per integrand call, counted over all columns, so deep
# refinement of wide vector integrands (the oracle's per-class stack) stays
# memory-bounded
_MAX_NODES_PER_CALL = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy knobs for the piecewise Gauss-Legendre integrator.  One panel
    must fit one integrand call, so ``nodes_per_panel`` is at most
    _MAX_NODES_PER_CALL."""

    nodes_per_panel: int = 16
    rel_tolerance: float = 1e-8
    max_depth: int = 12

    def __post_init__(self):
        if not 8 <= self.nodes_per_panel <= _MAX_NODES_PER_CALL:
            raise ValueError(f"nodes_per_panel must be in [8, {_MAX_NODES_PER_CALL}]")
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


def max_columns(spec: QuadratureSpec = DEFAULT_SPEC) -> int:
    """Most columns one :func:`integrate_piecewise` call takes: one panel of
    every column must fit one integrand call."""
    return _MAX_NODES_PER_CALL // spec.nodes_per_panel


def _eval_depth(f, lo, hi, depth: int, order: int, flat: bool):
    """Integral of every column with each segment split into 2**depth equal
    panels; ``lo`` and ``hi`` are the (S, B) segment ends.  Returns (B, ...).

    The calls take consecutive panels of all segments, at most
    ``panels_per_call`` counted over all columns.  Each panel's Gauss sum is
    formed on its own; each segment's panel sums are then dotted with their
    half-widths in groups of at most ``panels_per_call`` and added in segment
    order, per column, as a (..., panels) @ (panels,) product on contiguous
    operands.  So neither the packing of calls nor the column count moves a
    bit.  ``flat`` passes nodes as (M,) to a single problem's integrand.
    """
    xg, wg = _gauss_nodes(order)
    panels_per_call = _MAX_NODES_PER_CALL // order
    n_col = lo.shape[1]
    per_seg = 2 ** depth
    edges = np.linspace(lo, hi, per_seg + 1)                  # (per_seg + 1, S, B)
    half = (0.5 * (edges[1:] - edges[:-1])).transpose(1, 0, 2).reshape(-1, n_col)
    mid = (0.5 * (edges[1:] + edges[:-1])).transpose(1, 0, 2).reshape(-1, n_col)
    n_panels = len(half)
    rows = panels_per_call // n_col                           # panels per call

    sums = None                                               # (B, ..., panels)
    for start in range(0, n_panels, rows):
        stop = min(start + rows, n_panels)
        nodes = (mid[start:stop, None, :] + half[start:stop, None, :] * xg[:, None]
                 ).reshape(-1, n_col)
        vals = np.asarray(f(nodes.reshape(-1) if flat else nodes), dtype=float)
        lead = vals.shape[:-1] if flat else vals.shape[:-2]
        # (B, ..., panels, order), C-contiguous as one problem's values are
        vals = vals.reshape(*lead, stop - start, order, n_col)
        vals = vals.transpose(vals.ndim - 1, *range(vals.ndim - 1))
        if sums is None:
            sums = np.empty((n_col, *lead, n_panels))
        sums[..., start:stop] = np.multiply(vals, wg, order="C").sum(axis=-1)

    half_t = np.ascontiguousarray(half.T)                     # (B, panels)
    lead = (1,) * (sums.ndim - 3)
    total = None
    for seg in range(0, n_panels, per_seg):
        for a in range(seg, seg + per_seg, panels_per_call):
            b = min(a + panels_per_call, seg + per_seg)
            group = np.ascontiguousarray(sums[..., a:b])
            if group.ndim == 2:     # scalar integrand: a dot product per column
                contrib = np.matmul(group[:, None, :], half_t[:, a:b, None])[:, 0, 0]
            else:
                contrib = np.matmul(group, half_t[:, a:b].reshape(n_col, *lead, -1, 1))[..., 0]
            total = contrib if total is None else total + contrib
    return total


def integrate_piecewise(f, breakpoints, spec: QuadratureSpec = DEFAULT_SPEC,
                        *, columns=None):
    """Integrate ``f`` over the interval spanned by sorted ``breakpoints``.

    ``breakpoints`` has shape (K,) for one problem or (K, B) for B problems,
    column j holding problem j's strictly increasing breakpoints, at most
    :func:`max_columns` of them.  ``f`` is called with one positional array
    of nodes, (M,) or (M, B'), and returns (..., M) or (..., M, B'); see the
    module docstring for the batch contract.  Panels are refined dyadically
    until, in each column, two successive depths agree to
    ``spec.rel_tolerance`` (relative to max(1, |result|), componentwise for
    vector integrands); a column's result is the one of its accepted depth,
    and later calls hold only the B' columns not yet accepted.  Whenever
    columns leave, ``columns(active)``, if given, receives the indices into
    the original batch of those that stay, in order, before ``f`` is called
    again.  Returns shape (...) or (..., B).  Raises
    :class:`QuadratureError`, carrying the converged columns, if
    ``max_depth`` is reached with any column unconverged.
    """
    pts = np.asarray(breakpoints, dtype=float)
    flat = pts.ndim == 1
    if not (1 <= pts.ndim <= 2 and len(pts) >= 2 and np.all(pts[1:] > pts[:-1])):
        raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
    cols = pts.reshape(len(pts), -1)
    if not 1 <= cols.shape[1] <= max_columns(spec):
        raise ValueError(f"1 to {max_columns(spec)} columns per call, "
                         f"got {cols.shape[1]}")
    lo, hi = cols[:-1], cols[1:]

    prev = _eval_depth(f, lo, hi, 0, spec.nodes_per_panel, flat)
    result = np.full(prev.shape, np.nan)
    active = np.arange(len(prev))           # original index of each open column
    for depth in range(1, spec.max_depth + 1):
        cur = _eval_depth(f, lo, hi, depth, spec.nodes_per_panel, flat)
        err = np.abs(cur - prev).reshape(len(cur), -1).max(axis=1)
        scale = np.abs(cur).reshape(len(cur), -1).max(axis=1)
        accept = err <= spec.rel_tolerance * np.maximum(scale, 1.0)
        result[active[accept]] = cur[accept]
        if accept.all():
            return _columns_last(result, flat)
        prev = cur
        if accept.any():
            keep = ~accept
            active, lo, hi, prev, err = (active[keep], lo[:, keep], hi[:, keep],
                                         cur[keep], err[keep])
            if columns is not None:
                columns(active)
    converged = np.ones(len(result), dtype=bool)
    converged[active] = False
    raise QuadratureError(
        f"no convergence after depth {spec.max_depth} "
        f"({2 ** spec.max_depth} panels per segment) in {len(active)} "
        f"of {len(result)} columns; last error {float(np.max(err)):.3e}",
        result=_columns_last(result, flat),
        converged=converged[0] if flat else converged)


def _columns_last(result, flat: bool):
    """(B, ...) column results as (...) for one problem, else (..., B)."""
    return result[0] if flat else np.moveaxis(result, 0, -1)

"""Span tracer for the benchmark's traced rounds.

The tracer wraps public ``netentropy`` functions at the module or class
attribute where their callers look them up, so nothing under ``src/``
changes.  Each call records one span: its layer, start, end and the span that
was open when it began.  Spans are kept in flat arrays while a round runs and
reduced to per-layer self times when it ends: a span's self time is its
duration minus that of its direct children.  Work counts (calls, points,
sequences, bytes, quadrature depth) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

LAYERS = ("cli", "geometry.pdf", "geometry.sample", "channel.rates",
          "channel.clamp_radii", "channel.admissibility", "quadrature",
          "entropy.integrand", "entropy.bounds", "entropy.oracle",
          "simulator.simulate", "simulator.export", "simulator.estimators")

COUNTS = ("geometry.pdf.calls", "geometry.pdf.points", "channel.rates.calls",
          "channel.rates.points", "channel.clamp_events", "quadrature.calls",
          "quadrature.integrand_calls", "quadrature.points",
          "entropy.bounds.calls", "entropy.oracle.calls",
          "entropy.oracle.sequences", "simulator.edge_steps",
          "simulator.export.bytes")

_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
_perf = time.perf_counter


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 1


class Tracer:
    """Records spans and counts while its hooks are installed."""

    def __init__(self):
        self._start = array("d")
        self._end = array("d")
        self._layer = array("i")
        self._parent = array("l")
        self._stack = []
        self.counts = Counter()
        self.depths = []
        self._useful_points = 0
        self._saved = []
        self.unhooked = []

    # -- spans -------------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        idx = len(self._layer)
        self._layer.append(layer_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._end.append(0.0)
        self._start.append(_perf())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = _perf()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        idx = self._open(_LAYER_ID[layer])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn, count=None):
        layer_id = _LAYER_ID[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, *args, **kwargs)
            return result
        return traced

    # -- hooks ---------------------------------------------------------------

    def _quadrature(self, fn):
        """integrate_piecewise with its integrand traced and its depth derived.

        Dyadic refinement evaluates depths 0..d, so a run over S segments with
        n nodes per panel evaluates S*n*(2**(d+1) - 1) points, of which the
        S*n*2**d at the accepted depth d are the useful ones.
        """
        integrand_id = _LAYER_ID["entropy.integrand"]
        quad_id = _LAYER_ID["quadrature"]
        counts = self.counts

        @functools.wraps(fn)
        def integrate_piecewise(f, breakpoints, *args, **kwargs):
            evaluated = 0

            def integrand(nodes):
                nonlocal evaluated
                evaluated += len(nodes)
                counts["quadrature.integrand_calls"] += 1
                idx = self._open(integrand_id)
                try:
                    return f(nodes)
                finally:
                    self._close(idx)

            idx = self._open(quad_id)
            try:
                result = fn(integrand, breakpoints, *args, **kwargs)
            finally:
                self._close(idx)
            spec = args[0] if args else kwargs.get("spec", self._default_spec)
            base = (len(breakpoints) - 1) * spec.nodes_per_panel
            depth = max(0, round(math.log2(evaluated / base + 1.0)) - 1)
            counts["quadrature.calls"] += 1
            counts["quadrature.points"] += evaluated
            self.depths.append(depth)
            self._useful_points += base * 2 ** depth
            return result
        return integrate_piecewise

    def _export(self, fn):
        export_id = _LAYER_ID["simulator.export"]
        counts = self.counts

        @functools.wraps(fn)
        def export_snapshots(ensemble, fh, *args, **kwargs):
            before = fh.tell()
            idx = self._open(export_id)
            try:
                result = fn(ensemble, fh, *args, **kwargs)
            finally:
                self._close(idx)
            counts["simulator.export.bytes"] += fh.tell() - before
            return result
        return export_snapshots

    def install(self, cli, channel, entropy, geometry, quadrature, simulator):
        """Replace the traced attributes; ``uninstall`` puts them back."""
        self._default_spec = quadrature.DEFAULT_SPEC
        self._clamp = getattr(channel, "clamp_diagnostics", None)
        self._clamp_before = self._clamp.events if self._clamp else 0

        def points(key, arg):
            def count(counts, *args, **kwargs):
                counts[key + ".calls"] += 1
                counts[key + ".points"] += _size(args[arg])
            return count

        def sequences(counts, domain, params, t_max, *args, **kwargs):
            counts["entropy.oracle.calls"] += 1
            counts["entropy.oracle.sequences"] += 2 ** t_max

        def bounds(counts, *args, **kwargs):
            counts["entropy.bounds.calls"] += 1

        def edge_steps(counts, config, *args, **kwargs):
            counts["simulator.edge_steps"] += (
                config.trials * config.t_steps * config.n_edges)

        def plain(layer, count=None):
            return lambda fn: self._wrap(layer, fn, count)

        hooks = [
            (geometry.DistanceDensity, "pdf",
             plain("geometry.pdf", points("geometry.pdf", 1))),
            (geometry.Domain, "points_from_uniforms", plain("geometry.sample")),
            (channel, "connection_probability",
             plain("channel.rates", points("channel.rates", 0))),
            (channel, "transition_probabilities",
             plain("channel.rates", points("channel.rates", 0))),
            (channel, "clamp_radii", plain("channel.clamp_radii")),
            (cli, "slow_fading_report", plain("channel.admissibility")),
            (entropy, "entropy_rate_bounds", plain("entropy.bounds", bounds)),
            (entropy, "block_entropy_profile", plain("entropy.oracle", sequences)),
            (entropy, "integrate_piecewise", self._quadrature),
            (simulator, "simulate", plain("simulator.simulate", edge_steps)),
            (simulator, "export_snapshots", self._export),
            (simulator, "empirical_transition_frequencies",
             plain("simulator.estimators")),
            (simulator, "empirical_block_entropy", plain("simulator.estimators")),
        ]
        for owner, attr, wrap in hooks:
            if not hasattr(owner, attr):
                # a renamed or removed function: its time shows in its caller
                self.unhooked.append(f"{owner.__name__}.{attr}")
                continue
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        if self._clamp is not None:
            self.counts["channel.clamp_events"] += (
                self._clamp.events - self._clamp_before)

    # -- reduction -----------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer self times and counts of the round that took ``wall`` s.

        Self times of all layers plus ``trace.unattributed_s`` add up to
        ``wall``: every span's duration is either its own or its parent's.
        """
        n = len(self._layer)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self._start, self._end)]
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        own = [0.0] * len(LAYERS)
        covered = 0.0
        for i in range(n):
            own[self._layer[i]] += dur[i] - child[i]
            if self._parent[i] < 0:
                covered += dur[i]
        out = {f"{name}.self_s": own[i] for i, name in enumerate(LAYERS)}
        out.update({key: float(self.counts[key]) for key in COUNTS})
        points = self.counts["quadrature.points"]
        out["quadrature.depth_max"] = float(max(self.depths, default=0))
        out["quadrature.depth_mean"] = (
            sum(self.depths) / len(self.depths) if self.depths else 0.0)
        out["quadrature.useful_ratio"] = (
            self._useful_points / points if points else 0.0)
        out["trace.unattributed_s"] = wall - covered
        out["trace.wall_s"] = wall
        return out

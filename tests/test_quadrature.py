"""Piecewise Gauss-Legendre integrator."""

import numpy as np
import pytest

from netentropy import geometry, quadrature
from netentropy.quadrature import QuadratureError, QuadratureSpec, integrate_piecewise


def test_polynomial_exact():
    val = integrate_piecewise(lambda x: x ** 5, [0.0, 2.0])
    assert val == pytest.approx(2.0 ** 6 / 6.0, rel=1e-14)


def test_kink_split_by_breakpoint():
    # |x - 1| is non-smooth at 1; splitting there keeps Gauss exactness
    val = integrate_piecewise(np.abs, [-1.0, 0.0, 2.0],
                              QuadratureSpec(rel_tolerance=1e-12))
    assert val == pytest.approx(2.5, rel=1e-13)


def test_oscillatory_integrand():
    val = integrate_piecewise(lambda x: np.sin(40.0 * x), [0.0, np.pi],
                              QuadratureSpec(rel_tolerance=1e-12, max_depth=14))
    assert val == pytest.approx((1.0 - np.cos(40.0 * np.pi)) / 40.0, abs=1e-12)


def test_vector_integrand():
    def f(x):
        return np.stack([np.ones_like(x), x, x ** 2])

    val = integrate_piecewise(f, [0.0, 1.0])
    assert val.shape == (3,)
    assert np.allclose(val, [1.0, 0.5, 1.0 / 3.0], rtol=1e-13)


def test_non_convergence_raises():
    spec = QuadratureSpec(nodes_per_panel=8, rel_tolerance=1e-15, max_depth=2)
    with pytest.raises(QuadratureError):
        integrate_piecewise(lambda x: np.abs(x - 0.3712) ** 0.5, [0.0, 1.0], spec)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        integrate_piecewise(np.abs, [0.0])
    with pytest.raises(ValueError):
        integrate_piecewise(np.abs, [0.0, 1.0, 1.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_panel=4)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)


def test_spec_fits_one_panel_per_call():
    # a larger panel would put more than the cap's nodes in every call
    cap = quadrature._MAX_NODES_PER_CALL
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_panel=cap + 1)
    assert quadrature.max_columns(QuadratureSpec(nodes_per_panel=cap)) == 1


def test_refinement_agrees_across_depths():
    # accepted result must be stable when the tolerance is tightened
    loose = integrate_piecewise(lambda x: np.exp(-x * x), [0.0, 3.0],
                                QuadratureSpec(rel_tolerance=1e-8))
    tight = integrate_piecewise(lambda x: np.exp(-x * x), [0.0, 3.0],
                                QuadratureSpec(rel_tolerance=1e-13, max_depth=14))
    assert loose == pytest.approx(tight, abs=1e-9)


def reference_integral(f, breakpoints, spec):
    """integrate_piecewise with one integrand call per panel group of each
    segment: the arithmetic its merged calls must reproduce bit for bit.
    Returns (result, accepted depth)."""
    xg, wg = np.polynomial.legendre.leggauss(spec.nodes_per_panel)
    per_call = max(1, quadrature._MAX_NODES_PER_CALL // spec.nodes_per_panel)

    def at_depth(depth):
        total = None
        for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
            edges = np.linspace(lo, hi, 2 ** depth + 1)
            half = 0.5 * (edges[1:] - edges[:-1])
            mid = 0.5 * (edges[1:] + edges[:-1])
            for start in range(0, len(mid), per_call):
                sl = slice(start, start + per_call)
                vals = np.asarray(f((mid[sl, None] + half[sl, None] * xg).ravel()))
                vals = vals.reshape(vals.shape[:-1] + (-1, spec.nodes_per_panel))
                contrib = np.sum(vals * wg, axis=-1) @ half[sl]
                total = contrib if total is None else total + contrib
        return total

    prev = at_depth(0)
    for depth in range(1, spec.max_depth + 1):
        cur = at_depth(depth)
        if np.max(np.abs(cur - prev)) <= spec.rel_tolerance * max(1.0, np.max(np.abs(cur))):
            return cur, depth
        prev = cur
    raise AssertionError("reference did not converge")


def wavy(x):
    # the pole just left of 0 takes 16-node panels to depth 4
    return np.exp(-x) * np.sin(9.0 * x) + 1.0 / (0.02 + x)


def wavy_stack(x):
    return np.stack([wavy(x), np.cos(5.0 * x), x ** 3])


THREE_SEGMENTS = [0.0, 0.37, 1.25, 2.0]
TIGHT = QuadratureSpec(rel_tolerance=1e-13)


class TestEvaluationContract:
    """One integrand call per refinement depth, bit-identical to evaluating
    each segment on its own, never more nodes than the cap in one call."""

    def counted(self, f):
        sizes = []

        def integrand(nodes):
            sizes.append(len(nodes))
            return f(nodes)
        return integrand, sizes

    @pytest.mark.parametrize("f", [wavy, wavy_stack])
    def test_one_call_per_depth(self, f):
        integrand, sizes = self.counted(f)
        got = integrate_piecewise(integrand, THREE_SEGMENTS, TIGHT)
        want, depth = reference_integral(f, THREE_SEGMENTS, TIGHT)
        assert depth >= 3
        # depth + 1 calls, each with all three segments' nodes
        assert sizes == [3 * 16 * 2 ** d for d in range(depth + 1)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("f", [wavy, wavy_stack])
    @pytest.mark.parametrize("order,cap", [(16, 80), (16, 640), (12, 500), (9, 200)])
    def test_calls_across_segments_match_reference(self, f, order, cap, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_NODES_PER_CALL", cap)
        spec = QuadratureSpec(nodes_per_panel=order, rel_tolerance=1e-13)
        calls = []

        def integrand(nodes):
            calls.append(nodes.copy())
            return f(nodes)

        got = integrate_piecewise(integrand, THREE_SEGMENTS, spec)
        want, _ = reference_integral(f, THREE_SEGMENTS, spec)
        assert np.array_equal(got, want)
        assert max(len(nodes) for nodes in calls) <= cap
        inner = THREE_SEGMENTS[1:-1]
        straddling = [nodes for nodes in calls
                      if any(nodes.min() < b < nodes.max() for b in inner)]
        assert straddling, "no call spanned a segment boundary"

    def test_cap_holds_at_depth(self):
        # depth 9 has 3 * 16 * 512 nodes: six full calls at the cap
        integrand, sizes = self.counted(lambda x: np.sqrt(x) * np.sin(1e3 * x))
        spec = QuadratureSpec(rel_tolerance=1e-15, max_depth=9)
        with pytest.raises(QuadratureError):
            integrate_piecewise(integrand, THREE_SEGMENTS, spec)
        assert max(sizes) == quadrature._MAX_NODES_PER_CALL
        assert sum(sizes) == 3 * 16 * (2 ** 10 - 1)

    def test_rule_is_cached_and_read_only(self):
        xg, wg = quadrature._gauss_nodes(16)
        assert quadrature._gauss_nodes(16)[0] is xg
        assert np.array_equal((xg, wg), np.polynomial.legendre.leggauss(16))
        for arr in (xg, wg):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def poles(c):
    """wavy with its pole at -c: one problem per entry of c, which broadcasts
    against the trailing axis of x, so a smaller c takes more depths."""
    def f(x):
        return np.exp(-x) * np.sin(9.0 * x) + 1.0 / (c + x)
    return f


def poles_stack(c):
    def f(x):
        return np.stack([poles(c)(x), np.cos(5.0 * x), x ** 3 * c])
    return f


# (K, B) breakpoints: four problems over different intervals, three segments each
BATCH_POINTS = np.array([[0.0, 0.1, -0.5, 1.0],
                         [0.37, 0.5, 0.0, 1.5],
                         [1.25, 0.9, 0.8, 2.0],
                         [2.0, 1.4, 1.1, 3.5]])
BATCH_POLES = np.array([0.02, 0.6, 0.7, 0.3])


class TestBatchContract:
    """Problems along a trailing column axis: one positional node array per
    call, node axis first, at most the cap over all columns, each column
    equal bit for bit to its problem integrated alone, and a column gone
    from the calls once it converges."""

    def tracked(self, family):
        """An integrand of ``family`` at the poles of the columns still open,
        the ``columns`` callback that tells it which those are, and the list
        of its calls as (nodes, original indices of their columns)."""
        calls = []
        active = np.arange(len(BATCH_POLES))

        def integrand(*args):
            assert len(args) == 1
            calls.append((args[0].copy(), active))
            return family(BATCH_POLES[active])(args[0])

        def columns(kept):
            nonlocal active
            active = kept.copy()
        return integrand, columns, calls

    @pytest.mark.parametrize("family", [poles, poles_stack])
    def test_columns_equal_problems_alone(self, family):
        integrand, columns, calls = self.tracked(family)
        got = integrate_piecewise(integrand, BATCH_POINTS, TIGHT, columns=columns)
        depths = []
        for j, c in enumerate(BATCH_POLES):
            want, depth = reference_integral(family(c), BATCH_POINTS[:, j], TIGHT)
            depths.append(depth)
            assert np.array_equal(got[..., j], want)
        assert len(set(depths)) > 1, "every column converged at the same depth"
        # every depth fits one call here: one call per depth up to the last
        assert len(calls) == max(depths) + 1
        for depth, (nodes, active) in enumerate(calls):
            # the columns not yet converged at this depth, in batch order
            open_ = [j for j, d in enumerate(depths) if d >= depth]
            assert active.tolist() == open_
            assert nodes.ndim == 2 and nodes.shape[1] == len(open_)
            assert nodes.size <= quadrature._MAX_NODES_PER_CALL
            lo, hi = BATCH_POINTS[0, open_], BATCH_POINTS[-1, open_]
            assert np.all((nodes >= lo) & (nodes <= hi))
        widths = [nodes.shape[1] for nodes, _ in calls]
        assert widths[min(depths) + 1] < len(BATCH_POLES) == widths[0]

    @pytest.mark.parametrize("cap", [64, 200, 1000])
    def test_cap_counts_every_column(self, cap, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_NODES_PER_CALL", cap)
        spec = QuadratureSpec(nodes_per_panel=16, rel_tolerance=1e-13)
        integrand, columns, calls = self.tracked(poles_stack)
        got = integrate_piecewise(integrand, BATCH_POINTS, spec, columns=columns)
        for j, c in enumerate(BATCH_POLES):
            want, _ = reference_integral(poles_stack(c), BATCH_POINTS[:, j], spec)
            assert np.array_equal(got[:, j], want)
        assert max(nodes.size for nodes, _ in calls) <= cap

    def test_column_count_checked(self):
        width = quadrature.max_columns()
        pts = np.tile([[0.0], [1.0]], (1, width + 1))
        for wrong in (pts, pts[:, :0]):
            with pytest.raises(ValueError):
                integrate_piecewise(np.exp, wrong)
        assert integrate_piecewise(np.exp, pts[:, :width]).shape == (width,)

    def test_failed_column_is_isolated(self):
        failing = BATCH_POLES[2]

        def poisoned(c):
            # NaN in the column of the pole at ``failing``, wherever it sits
            def f(x):
                vals = poles_stack(c)(x)
                vals[..., c == failing] = np.nan
                return vals
            return f

        integrand, columns, calls = self.tracked(poisoned)
        spec = QuadratureSpec(rel_tolerance=1e-13, max_depth=6)
        with pytest.raises(QuadratureError) as info:
            integrate_piecewise(integrand, BATCH_POINTS, spec, columns=columns)
        err = info.value
        assert err.result.shape == (3, len(BATCH_POLES))
        assert err.converged.tolist() == [True, True, False, True]
        assert np.all(np.isnan(err.result[:, 2]))
        for j in (0, 1, 3):
            want, _ = reference_integral(poles_stack(BATCH_POLES[j]),
                                         BATCH_POINTS[:, j], spec)
            assert np.array_equal(err.result[:, j], want)
        # the failed column alone runs to max_depth
        assert calls[-1][1].tolist() == [2]

    @pytest.mark.parametrize("name", ["square", "disk"])
    def test_integrand_without_callback(self, name, monkeypatch):
        # the pdf takes no per-column parameters, so it needs no callback:
        # each bin, one column, equals its own run, also after the others
        # converge and the widest bin, next to the diameter, goes on alone
        dens = geometry.domain_from_name(name).distance_density()
        edges = np.geomspace(1e-3, 1.0, 9) * dens.domain.diameter
        real, calls = geometry.DistanceDensity.pdf, []

        def pdf(self, r):
            calls.append(np.shape(r))
            return real(self, r)

        monkeypatch.setattr(geometry.DistanceDensity, "pdf", pdf)
        got = dens.interval_probabilities(edges)
        monkeypatch.undo()
        want = [dens.interval_probabilities(edges[i:i + 2]) for i in range(len(edges) - 1)]
        assert np.array_equal(got, np.concatenate(want))
        assert calls[-1][1] < calls[0][1] == len(edges) - 1

    def test_columns_must_increase(self):
        pts = BATCH_POINTS.copy()
        pts[2, 1] = pts[1, 1]
        with pytest.raises(ValueError):
            integrate_piecewise(poles(BATCH_POLES), pts)

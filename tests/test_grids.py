import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from levyfield import grids
from levyfield.errors import GridMismatchError, InvalidInputError, ResourceLimitError
from levyfield.grids import (
    Grid1D,
    _direct_sum,
    _fast_len,
    _fine_grid,
    GridFunction,
    convolve,
    fourier_forward,
    fourier_inverse_truncated,
    inverse_transform_at,
    l2_norm,
    phase_sum,
    symmetric_grid,
    trapezoid_weights,
)


def gaussian_density(x):
    return np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)


def gaussian_transform(u_grid):
    """The transform of the standard normal density, sampled on u_grid."""
    return GridFunction(u_grid, np.exp(-0.5 * u_grid.nodes() ** 2) + 0j)


class TestGrid1D:
    def test_nodes_uniform(self):
        g = Grid1D(-2.0, 3.0, 11)
        x = g.nodes()
        assert np.allclose(np.diff(x), g.spacing)
        assert x[0] == -2.0 and x[-1] == 3.0

    @pytest.mark.parametrize("lo,hi,n", [(1.0, 1.0, 5), (2.0, 1.0, 5), (0.0, 1.0, 1),
                                         (-1e-310, 1e-310, 5), (-1e308, 1e308, 5)])
    def test_invalid(self, lo, hi, n):
        with pytest.raises(InvalidInputError):
            Grid1D(lo, hi, n)

    def test_nonfinite_values_rejected(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(InvalidInputError):
            GridFunction(g, np.array([0.0, np.nan, 0.0, 0.0]))


class TestL2Norm:
    def test_zero_function(self):
        f = GridFunction(Grid1D(-1, 1, 101), np.zeros(101))
        assert l2_norm(f) == 0.0

    def test_unit_constant(self):
        f = GridFunction(Grid1D(0, 1, 101), np.ones(101))
        assert l2_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_linear_closed_form(self):
        # integral of x^2 over [0,1] is 1/3
        g = Grid1D(0, 1, 2001)
        f = GridFunction(g, g.nodes())
        assert l2_norm(f) == pytest.approx(1 / np.sqrt(3), abs=1e-6)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, a, b):
        g = Grid1D(-2, 2, 257)
        f1 = GridFunction(g, np.sin(g.nodes()))
        f2 = GridFunction(g, np.cos(2 * g.nodes()))
        combo = GridFunction(g, a * f1.values + b * f2.values)
        # triangle inequality as a cheap sanity net for the weights
        assert l2_norm(combo) <= abs(a) * l2_norm(f1) + abs(b) * l2_norm(f2) + 1e-12


class TestFourierForward:
    def test_indicator_at_zero(self):
        f = GridFunction(Grid1D(-1, 1, 2001), np.ones(2001))
        F = fourier_forward(f, Grid1D(-1e-12, 1e-12, 2))
        assert F.values[0] == pytest.approx(2.0, abs=1e-9)

    def test_indicator_sinc(self):
        # F[1_{[-1,1]}](u) = 2 sin(u)/u, zero at u = pi
        f = GridFunction(Grid1D(-1, 1, 4001), np.ones(4001))
        F = fourier_forward(f, Grid1D(-np.pi, np.pi, 3))
        assert abs(F.values[-1]) == pytest.approx(0.0, abs=1e-6)
        assert F.values[1] == pytest.approx(2.0, abs=1e-9)

    def test_gaussian_characteristic_function(self):
        g = Grid1D(-8, 8, 2049)
        f = GridFunction(g, gaussian_density(g.nodes()))
        F = fourier_forward(f, Grid1D(-1, 1, 3))
        assert F.values[-1] == pytest.approx(np.exp(-0.5), abs=1e-4)

    def test_fast_path_agrees_with_direct(self):
        g = Grid1D(-6, 6, 2048)
        f = GridFunction(g, g.nodes() * np.exp(-0.5 * g.nodes() ** 2))
        u = symmetric_grid(np.pi * 4.5, 4097)
        fast = fourier_forward(f, u)
        ref = _direct_sum(trapezoid_weights(g) * f.values, g.nodes(), u.nodes(), 1.0)
        assert np.max(np.abs(fast.values - ref)) <= 1e-10

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, a, b):
        g = Grid1D(-4, 4, 513)
        u = symmetric_grid(5.0, 129)
        f1 = GridFunction(g, gaussian_density(g.nodes()))
        f2 = GridFunction(g, np.exp(-np.abs(g.nodes())))
        lhs = fourier_forward(GridFunction(g, a * f1.values + b * f2.values), u)
        rhs = a * fourier_forward(f1, u).values + b * fourier_forward(f2, u).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10


class TestFourierInverse:
    def test_zero(self):
        F = GridFunction(symmetric_grid(10, 257), np.zeros(257, dtype=complex))
        out, resid = fourier_inverse_truncated(F, Grid1D(-2, 2, 65))
        assert np.all(out.values == 0) and resid == 0

    def test_gaussian_round_trip(self):
        # pi*l = 40 captures the transform of the standard normal density
        x = Grid1D(-8, 8, 2049)
        F = gaussian_transform(symmetric_grid(40.0, 4097))
        out, resid = fourier_inverse_truncated(F, x)
        assert np.max(np.abs(out.values - gaussian_density(x.nodes()))) < 1e-4
        assert resid < 1e-10

    def test_band_limited_projection_vs_double_quadrature(self):
        # small grids so the O(n^2 m) oracle stays cheap
        xg = Grid1D(-4, 4, 401)
        f = GridFunction(xg, gaussian_density(xg.nodes()))
        ug = symmetric_grid(2.0, 201)
        F = fourier_forward(f, ug)
        out, _ = fourier_inverse_truncated(F, Grid1D(-2, 2, 81))
        # independent oracle: direct double quadrature with trapezoid weights
        wx = trapezoid_weights(xg)
        wu = trapezoid_weights(ug)
        x_eval = np.linspace(-2, 2, 81)
        inner = np.exp(1j * np.outer(ug.nodes(), xg.nodes())) @ (wx * f.values)
        oracle = (np.exp(-1j * np.outer(x_eval, ug.nodes())) @ (wu * inner)).real / (2 * np.pi)
        assert np.max(np.abs(out.values - oracle)) < 1e-10

    def test_error_decreases_in_cutoff(self):
        x = Grid1D(-8, 8, 1025)
        truth = gaussian_density(x.nodes())
        errs = []
        for width in (2.0, 4.0, 8.0, 16.0):
            # node count grows with the cutoff so the quadrature step is fixed
            F = gaussian_transform(symmetric_grid(width, int(256 * width) + 1))
            out, _ = fourier_inverse_truncated(F, x)
            errs.append(l2_norm(GridFunction(x, out.values - truth)))
        assert all(e1 >= e2 - 1e-15 for e1, e2 in zip(errs, errs[1:]))

    def test_asymmetric_grid_rejected(self):
        F = GridFunction(Grid1D(-1, 2, 65), np.zeros(65, dtype=complex))
        with pytest.raises(InvalidInputError):
            fourier_inverse_truncated(F, Grid1D(-1, 1, 17))

    def test_pointwise_evaluation_matches_grid(self):
        F = gaussian_transform(symmetric_grid(10.0, 513))
        xg = Grid1D(-3, 3, 101)
        grid_vals, _ = fourier_inverse_truncated(F, xg)
        at = inverse_transform_at(F, xg.nodes())
        assert np.max(np.abs(grid_vals.values - at)) < 1e-12
        coef = trapezoid_weights(F.grid) * F.values / (2 * np.pi)
        assert np.max(np.abs(at - _direct_sum(coef, F.grid.nodes(), xg.nodes(), -1.0).real)) < 1e-12
        scattered = np.array([0.3, -1.7, 2.2])
        assert np.allclose(inverse_transform_at(F, scattered),
                           _direct_sum(coef, F.grid.nodes(), scattered, -1.0).real)


class TestInterpolatingNufft:
    @pytest.mark.parametrize("targets", ["uniform", "scattered", "concatenated"])
    @pytest.mark.parametrize("stacked", [False])  # phase_sum takes one row, never a stack
    @given(n=st.integers(2, 700), lo=st.floats(-50.0, 10.0), dx=st.floats(1e-3, 0.2),
           n_u=st.integers(0, 400), reach=st.floats(0.1, 300.0),
           sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, lo=-1.0, dx=0.1, n_u=29, reach=1.0, sign=1.0, seed=0)
    @example(n=5, lo=-1.0, dx=0.1, n_u=29, reach=30.0, sign=-1.0, seed=0)
    @example(n=29, lo=-1.0, dx=0.1, n_u=29, reach=1.0, sign=1.0, seed=0)
    @example(n=30, lo=-1.0, dx=0.1, n_u=29, reach=1.0, sign=-1.0, seed=0)
    @example(n=4097, lo=-np.pi, dx=np.pi / 2048, n_u=300, reach=101.0, sign=-1.0, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_sum(self, targets, stacked, n, lo, dx, n_u, reach, sign, seed):
        # uniform sources of either parity from 2 nodes up; uniform targets
        # from a random start, scattered targets, and the concatenation of
        # scaled copies of a grid that the plug-in series evaluates
        rng = np.random.default_rng(seed)
        grid = Grid1D(lo, lo + dx * (n - 1), n)
        if targets == "uniform":
            u = rng.uniform(-reach, reach) + np.linspace(0.0, reach, n_u)
        elif targets == "scattered":
            u = rng.uniform(-reach, reach, n_u)
        else:
            x = np.linspace(-reach, reach, n_u)
            u = np.concatenate([s * x for s in (1.0, -0.35, 2.5)])
        coef = rng.normal(size=n) + 1j * rng.normal(size=n)
        fast = phase_sum(coef, grid, u, sign)
        ref = _direct_sum(coef, grid.nodes(), u, sign)
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref), initial=0.0) <= 1e-10 * np.sum(np.abs(coef))

    def test_second_call_takes_the_kept_plan(self):
        grid = Grid1D(-1.0, 2.0, 64)
        coef = np.random.default_rng(3).normal(size=64) + 0j
        u = np.linspace(-30.0, 30.0, 101)
        grids._interp_plan.cache_clear()
        first = phase_sum(coef, grid, u, -1.0)
        second = phase_sum(coef, grid, u, -1.0)
        info = grids._interp_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.array_equal(first, second)

    def test_inverse_fft_runs_in_place(self, monkeypatch):
        # the fine grid is transformed into itself: a second fine-grid array
        # per call pushed the per-op peak of the oracle Fourier cells past
        # glibc's heap trim threshold, and freed pages were faulted back in
        calls = []
        ifft = np.fft.ifft

        def spy(a, *args, out=None, **kwargs):
            calls.append(out is a)
            return ifft(a, *args, out=out, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        grid = Grid1D(-1.0, 2.0, 64)
        coef = np.random.default_rng(5).normal(size=64) + 0j
        u = np.linspace(-30.0, 30.0, 101)
        phase_sum(coef, grid, u, 1.0)
        assert calls == [True]

    @pytest.mark.parametrize("stacked", [False])  # phase_sum takes one row, never a stack
    def test_blocks_of_targets_match_one_block(self, monkeypatch, stacked):
        # each plan covers at most _SPREAD_BLOCK targets; the split moves no bit
        rng = np.random.default_rng(4)
        grid = Grid1D(-1.0, 2.0, 64)
        coef = rng.normal(size=64) + 1j * rng.normal(size=64)
        u = rng.uniform(-30.0, 30.0, 101)
        whole = phase_sum(coef, grid, u, 1.0)
        monkeypatch.setattr(grids, "_SPREAD_BLOCK", 16)
        assert np.array_equal(phase_sum(coef, grid, u, 1.0), whole)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gather_matches_sparse_product(self, monkeypatch, sign):
        # the tap-by-tap gather sums in the order of a csr product of the same
        # taps and weights, so it gives the same bits; the grid is off-centre,
        # so every block also takes its phase
        from scipy.sparse import csr_matrix

        grids_seen = []
        ifft = np.fft.ifft

        def spy(a, *args, **kwargs):
            result = ifft(a, *args, **kwargs)
            grids_seen.append(result.copy())
            return result

        monkeypatch.setattr(np.fft, "ifft", spy)
        monkeypatch.setattr(grids, "_SPREAD_BLOCK", 16)
        rng = np.random.default_rng(6)
        grid = Grid1D(-1.0, 2.0, 64)
        coef = rng.normal(size=64) + 1j * rng.normal(size=64)
        u = rng.uniform(-30.0, 30.0, 101)
        fast = phase_sum(coef, grid, u, sign)
        [fine] = grids_seen
        for start in range(0, len(u), 16):
            block = slice(start, start + 16)
            cols, weights, phase = grids._interp_plan(grid, u[block].tobytes(), sign, len(u))
            width, n = cols.shape
            plan = csr_matrix((weights.T.ravel(), cols.T.ravel(),
                               np.arange(0, width * n + 1, width)), shape=(n, len(fine)))
            assert phase is not None
            assert np.array_equal(fast[block], (plan @ fine) * phase)

    @pytest.mark.parametrize("n_u", [2048, 6144])
    def test_call_holds_no_tap_matrix(self, n_u):
        # with its plan kept, a call holds the fine grid and a few target rows,
        # never a (_ES_WIDTH, n_u) gather or a complex copy of the weights:
        # such temporaries pushed the per-op peak past glibc's heap trim
        # threshold, and freed pages were faulted back in on every op
        import tracemalloc

        grid = symmetric_grid(np.pi, 4097)
        rng = np.random.default_rng(7)
        coef = rng.normal(size=4097) + 1j * rng.normal(size=4097)
        u = rng.uniform(-101.0, 101.0, n_u)
        phase_sum(coef, grid, u, -1.0)
        tracemalloc.start()
        try:
            phase_sum(coef, grid, u, -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m_r, _ = _fine_grid(2048)
        assert peak <= 16 * (3 * m_r + 4 * n_u)

    def test_scattered_targets_take_the_fast_path(self, no_direct_sum):
        F = gaussian_transform(symmetric_grid(np.pi, 4097))
        points = np.random.default_rng(5).uniform(-101.0, 101.0, 6144)
        coef = trapezoid_weights(F.grid) * F.values / (2 * np.pi)
        ref = _direct_sum(coef, F.grid.nodes(), points, -1.0).real
        err = np.max(np.abs(inverse_transform_at(F, points) - ref))
        assert err <= 1e-10 * np.sum(np.abs(coef))


@pytest.mark.parametrize("far", [1e20, np.inf, np.nan])
@pytest.mark.parametrize("cast", ["type-1 source", "type-2 target"])
def test_position_past_bound_refused_before_cast(cast, far):
    # past 2^52 fine-grid points a position keeps no offset between its taps
    u = 0.01 * np.arange(64)
    with pytest.raises(InvalidInputError, match="beyond 2\\^52"):
        if cast == "type-1 source":  # the ECF's samples, on the half-grid u
            grids._nufft_sum(np.append(np.zeros(39), far), u[1], len(u), 1.0)
        else:  # a transform of a GridFunction
            phase_sum(np.ones(40), Grid1D(-1.0, 1.0, 40), np.append(u, far))


def test_cell_series_fits_every_tap():
    # each tap's Chebyshev series is within 1e-14 of the kernel's peak, 1, on
    # a dense grid of its cell, and is the Chebyshev interpolant of the tap
    from numpy.polynomial import chebyshev

    half = grids._ES_WIDTH // 2
    coef = grids._cell_series()
    assert coef.shape == (grids._ES_WIDTH, grids._CELL_TERMS)
    f = np.linspace(0.0, 1.0, 20001)
    taps = np.arange(grids._ES_WIDTH) - (half - 1.0)
    exact = grids._es_kernel(np.subtract.outer(taps, f) / half)
    assert np.max(np.abs(chebyshev.chebval(2 * f - 1, coef.T) - exact)) <= 1e-14
    for tap, row in zip(taps, coef):
        ref = chebyshev.chebinterpolate(
            lambda x: grids._es_kernel((tap - (x + 1) / 2) / half), grids._CELL_TERMS - 1)
        assert np.max(np.abs(row - ref)) <= 1e-15


def test_fine_grid_over_budget_refused():
    # 2^27 points for Fourier indices up to 2^25, refused before allocation
    with pytest.raises(ResourceLimitError, match="non-uniform FFT grid points"):
        _fine_grid(2 ** 25)


def test_every_keep_goes_through_the_one_rule():
    # a cache or a read-only flag outside grids._kept and grids._freeze would
    # keep or freeze by a rule of its own
    hits = []
    for path in sorted(Path(grids.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                for name in {"lru_cache", "cache", "cached_property", "writeable",
                             "setflags"}.intersection(names):
                    hits.append((path.name, getattr(top, "name", None), name))
    assert sorted(hits) == [("grids.py", "_freeze", "writeable"),
                            ("grids.py", "_kept", "lru_cache")]


class TestPlancherel:
    def test_relative_identity(self):
        # margin at least 4x the effective support radius of the density
        x = Grid1D(-8, 8, 2048)
        f = GridFunction(x, gaussian_density(x.nodes()))
        u = symmetric_grid(40.0, 4097)
        lhs = l2_norm(fourier_forward(f, u)) ** 2
        rhs = 2 * np.pi * l2_norm(f) ** 2
        assert abs(lhs - rhs) / rhs <= 1e-3


def assert_lags_close(got, want, f, g):
    """The FFT's lags against the direct sums of np.convolve, within 1e-15
    of dx sum|f| max|g|: the FFT's error is at most 5e-17 of that scale
    here, and a one-lag shift at least 1.9e-2."""
    scale = f.grid.spacing * np.sum(np.abs(f.values)) * np.max(np.abs(g.values))
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


class TestConvolve:
    def test_spike_identity(self):
        g = Grid1D(-2, 2, 2001)
        f = GridFunction(g, gaussian_density(g.nodes()))
        dx = g.spacing
        spike_grid = Grid1D(-dx, dx, 3)
        spike = GridFunction(spike_grid, np.array([0.0, 1.0 / dx, 0.0]))
        out = convolve(f, spike)
        err = l2_norm(GridFunction(g, out.values - f.values))
        assert err <= 10 * dx

    def test_box_box_triangle_peak(self):
        g = Grid1D(-0.5, 2.5, 3001)
        box = GridFunction(g, ((g.nodes() >= 0) & (g.nodes() <= 1)).astype(float))
        out = convolve(box, box)
        at_one = out.values[np.argmin(np.abs(g.nodes() - 1.0))]
        assert abs(at_one - 1.0) <= 2 * g.spacing

    def test_commutativity(self):
        g = Grid1D(-3, 3, 601)
        f1 = GridFunction(g, gaussian_density(g.nodes()))
        f2 = GridFunction(g, np.exp(-np.abs(g.nodes())))
        a = convolve(f1, f2).values
        b = convolve(f2, f1).values
        scale = np.max(np.abs(a)) + 1e-300
        assert np.max(np.abs(a - b)) / scale < 1e-12

    @pytest.mark.parametrize("n_taps,origin", [
        (2001, -1000.0),   # centred kernel longer than f
        (41, -20.0),       # centred kernel shorter than f
        (2001, -1000.37),  # off-lattice origin
        (1500, -60.25),    # off-lattice, one-sided kernel longer than f
    ])
    def test_matches_full_convolution(self, n_taps, origin):
        # reference: every lag of the full convolution, read at f's nodes
        # (zero beyond the last lag on each side); a kernel off f's lattice
        # has no lag at f's nodes and is refused
        rng = np.random.default_rng(5)
        g = Grid1D(-2, 2, 201)
        dx = g.spacing
        f = GridFunction(g, rng.normal(size=g.n))
        k = GridFunction(Grid1D(origin * dx, (origin + n_taps - 1) * dx, n_taps),
                         rng.random(n_taps))
        if origin != np.rint(origin):
            with pytest.raises(GridMismatchError, match="lattice"):
                convolve(f, k)
            return
        full = np.concatenate([[0.0], np.convolve(f.values, k.values) * dx, [0.0]])
        idx = np.arange(g.n) - k.grid.lo / dx
        idx = np.where(np.abs(idx - np.rint(idx)) < 1e-9, np.rint(idx), idx)
        ref = np.interp(idx, np.arange(-1, len(full) - 1), full)
        assert_lags_close(convolve(f, k).values, ref, f, k)

    @pytest.mark.parametrize("r", [171, 853, 2047])
    def test_lattice_kernel_reads_exact_lags(self, r):
        # output i is lag i + r of the full convolution, whatever rounding
        # leaves in g.lo / dx (-170.99999999999997 for r = 171)
        rng = np.random.default_rng(r)
        grid = symmetric_grid(6.0, 2048)
        dx = grid.spacing
        f = GridFunction(grid, rng.normal(size=grid.n))
        half = rng.random(r + 1)
        g = GridFunction(Grid1D(-r * dx, r * dx, 2 * r + 1),
                         np.concatenate([half[:0:-1], half]))
        want = (np.convolve(f.values, g.values) * dx)[np.arange(grid.n) + r]
        assert_lags_close(convolve(f, g).values, want, f, g)

    @pytest.mark.parametrize("n,n_taps,origin", [
        (201, 41, -20),      # L < n
        (201, 300, -150),    # n <= L < 2n - 1
        (201, 401, -200),    # L = 2n - 1, as Fejer smoothing
        (201, 1001, -500),   # L > 2n - 1
        (201, 50, 0),        # one-sided kernel from its origin
        (201, 50, -49),      # one-sided kernel up to its origin
        (201, 41, 30),       # kept lags start before lag 0
        (201, 41, -150),     # kept lags end past the last lag
        (201, 41, -400),     # no kept lag exists
        (201, 41, 300),      # none exists on the other side either
        (2048, 4095, -2047),  # Fejer smoothing of a benchmark estimate
    ], ids=["L<n", "n<=L<2n-1", "L=2n-1", "L>2n-1", "one-sided-from-0", "one-sided-to-0",
            "before-first-lag", "past-last-lag", "all-past-last", "all-before-first",
            "fejer-size"])
    def test_kept_lags_equal_full_convolution(self, n, n_taps, origin):
        # output i is lag i - origin of the full convolution, and exactly zero
        # where that lag does not exist
        rng = np.random.default_rng(n_taps)
        g = Grid1D(-2, 2, n)
        dx = g.spacing
        f = GridFunction(g, rng.normal(size=g.n))
        k = GridFunction(Grid1D(origin * dx, (origin + n_taps - 1) * dx, n_taps),
                         rng.normal(size=n_taps))
        full = np.convolve(f.values, k.values) * dx
        lag = np.arange(g.n) - origin
        exists = (lag >= 0) & (lag < len(full))
        want = np.zeros(g.n)
        want[exists] = full[lag[exists]]
        got = convolve(f, k).values
        assert_lags_close(got, want, f, k)
        assert np.all(got[~exists] == 0.0)

    def test_complex_values_take_complex_ffts(self):
        rng = np.random.default_rng(6)
        g = Grid1D(-2, 2, 201)
        dx = g.spacing
        f = GridFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
        k = GridFunction(Grid1D(-20 * dx, 20 * dx, 41), rng.normal(size=41))
        want = (np.convolve(f.values, k.values) * dx)[np.arange(g.n) + 20]
        assert_lags_close(convolve(f, k).values, want, f, k)

    @pytest.mark.parametrize("lo,hi", [(1, 1 << 17), (grids._MAX_CELLS - 1000, grids._MAX_CELLS + 1000)],
                             ids=["up-to-2^17", "near-budget"])
    def test_fast_len_is_scipys_real_fft_length(self, lo, hi):
        # the reference: scipy's 5-smooth length for real FFTs
        want = [next_fast_len(n, real=True) for n in range(lo, hi + 1)]
        assert [_fast_len(n) for n in range(lo, hi + 1)] == want

    def test_fft_length_over_budget_refused(self, monkeypatch):
        # the kept lags are 150 .. 350 of 0 .. 499: no lag folds onto them
        # from 351 points up, and the 5-smooth length is 360
        g = Grid1D(-2, 2, 201)
        f = GridFunction(g, np.ones(g.n))
        k = GridFunction(Grid1D(-150 * g.spacing, 149 * g.spacing, 300), np.ones(300))
        grids._kernel_spectrum.cache_clear()  # a kept length is not budgeted again
        monkeypatch.setattr(grids, "_MAX_CELLS", 359)
        with pytest.raises(ResourceLimitError, match="convolution FFT points"):
            convolve(f, k)

    def test_fejer_size_takes_4096_points(self, monkeypatch):
        # 2048 points and 4095 taps: the kept lags 2047 .. 4094 of 0 .. 6141
        # need 4095 points, so 4096, not the 6144 of the full convolution
        g = symmetric_grid(6.0, 2048)
        f = GridFunction(g, np.ones(g.n))
        k = GridFunction(Grid1D(-2047 * g.spacing, 2047 * g.spacing, 4095), np.ones(4095))
        grids._kernel_spectrum.cache_clear()  # a kept length is not budgeted again
        monkeypatch.setattr(grids, "_MAX_CELLS", 4095)
        with pytest.raises(ResourceLimitError, match="4096 convolution FFT points"):
            convolve(f, k)
        monkeypatch.setattr(grids, "_MAX_CELLS", 4096)
        convolve(f, k)

    def test_mismatched_spacing_rejected(self):
        f = GridFunction(Grid1D(-1, 1, 101), gaussian_density(np.linspace(-1, 1, 101)))
        g = GridFunction(Grid1D(-1, 1, 100), gaussian_density(np.linspace(-1, 1, 100)))
        with pytest.raises(GridMismatchError):
            convolve(f, g)

    @given(a=st.floats(-2, 2))
    @settings(max_examples=10, deadline=None)
    def test_linearity_in_first_argument(self, a):
        g = Grid1D(-2, 2, 201)
        f1 = GridFunction(g, gaussian_density(g.nodes()))
        f2 = GridFunction(g, np.cos(g.nodes()))
        k = GridFunction(Grid1D(-1, 1, 101), 1 - np.abs(np.linspace(-1, 1, 101)))
        lhs = convolve(GridFunction(g, a * f1.values + f2.values), k).values
        rhs = a * convolve(f1, k).values + convolve(f2, k).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

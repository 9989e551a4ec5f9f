import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfield import bench, invert
from levyfield.config import ExperimentConfig, section7_config
from levyfield.errors import (
    BoundInapplicableError,
    CoverageError,
    InvalidInputError,
    ResourceLimitError,
)
from levyfield.grids import Grid1D, GridFunction, l2_norm, symmetric_grid
from levyfield.model import SimpleKernel, WeightH, e_factor, forward_g_transform
from levyfield.invert import (
    build_series_plan,
    contraction_factor,
    fourier_error_bound,
    fourier_estimate,
    plugin_error_bound,
    plugin_estimate,
)


def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2 * np.pi)


def g0_gauss(x):
    return np.asarray(x) * phi(x)


def kernel_1d(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    return SimpleKernel(coeffs=coeffs, offsets=np.arange(len(coeffs))[:, None])


def raw_series_coefficients(kernel, h, n_trunc, pivot, values):
    """Independent brute-force enumeration of the raw multi-index series.

    Returns a map (depth, multiplicity vector over ``values``) -> signed
    coefficient (h-ratio included), exactly as the nested sums of the
    fixed-point solution prescribe.
    """
    import itertools
    _, q_idx, n1 = kernel.pivot_info(h, pivot)
    others = [kernel.coeffs[k] for k in range(kernel.n) if k not in q_idx]
    values = np.asarray(values, dtype=float)
    coefs = {}

    def add(key, value):
        coefs[key] = coefs.get(key, 0.0) + value

    add((0, (0,) * len(values)), (abs(pivot) / n1) * h.ratio(pivot))
    for j in range(1, n_trunc + 1):
        for combo in itertools.product(others, repeat=j):
            mult = [0] * len(values)
            for c in combo:
                mult[int(np.argmin(np.abs(values - c)))] += 1
            prod = float(np.prod(combo))
            scale = pivot ** (j + 1) / prod
            mag = (abs(pivot) / n1) ** (j + 1) / abs(prod)
            add((j, tuple(mult)), (-1.0) ** j * mag * h.ratio(scale))
    return coefs


def plan_coefficients(plan):
    return {(term.depth, term.multiplicities): c
            for term, (_, c) in zip(plan.terms, plan.grouped_terms())}


def assert_coefficient_maps_match(raw, grouped, rtol=1e-14):
    assert sorted(raw) == sorted(grouped)
    for key in raw:
        assert raw[key] == pytest.approx(grouped[key], rel=rtol, abs=1e-300)


class TestContraction:
    def test_bench_kernel_value(self, bench_kernel, h_linear):
        rep = contraction_factor(bench_kernel, h_linear)
        expect = np.sqrt(0.2 / 1.3) + 2 * np.sqrt(0.1 / 1.3)
        assert rep.e_factor == pytest.approx(0.946932, abs=1e-6)
        assert rep.e_factor == pytest.approx(expect, rel=1e-14)
        assert rep.satisfied and rep.n1 == 1 and rep.pivot_value == 1.3

    def test_single_coefficient_empty_sum(self, h_linear):
        rep = contraction_factor(kernel_1d([2.5]), h_linear)
        assert rep.e_factor == 0.0 and rep.satisfied

    def test_odd_weight_sign_flip_not_satisfied(self, h_linear):
        rep = contraction_factor(kernel_1d([1.0, -1.0]), h_linear, pivot_value=1.0)
        assert rep.e_factor == pytest.approx(1.0)
        assert not rep.satisfied

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_admissible_pivot(self, seed):
        # for any two pivot groups p, q: e_p e_q >= 1, so two pivots with
        # e < 1 cannot coexist
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 6)
        k = kernel_1d(rng.uniform(0.1, 3.0, n) * rng.choice([-1, 1], n))
        h = WeightH(beta=float(rng.choice([0.5, 1.0, 1.5])))
        es = [e_factor(k, h, v) for v, _ in k.groups()]
        # beta = 1/2 sits exactly on the product-one boundary, hence the slack
        assert sum(e < 1.0 - 1e-9 for e in es) <= 1
        for i, ei in enumerate(es):
            for ej in es[i + 1:]:
                assert ei * ej >= 1.0 - 1e-9


class TestSeriesPlan:
    def test_depth_zero_head(self, bench_kernel, h_linear):
        plan = build_series_plan(bench_kernel, h_linear, 0)
        rows = plan.grouped_terms()
        assert len(rows) == 1
        scale, c = rows[0]
        assert scale == 1.3 and plan.terms[0].depth == 0
        assert c == pytest.approx(abs(1.3) / 1 * h_linear.ratio(1.3))

    def test_bench_kernel_depth2_equals_raw_twelve_terms(self, bench_kernel, h_linear):
        plan = build_series_plan(bench_kernel, h_linear, 2)
        raw = raw_series_coefficients(bench_kernel, h_linear, 2, 1.3, plan.values)
        assert_coefficient_maps_match(raw, plan_coefficients(plan))
        # raw enumeration size: 3^1 + 3^2 = 12 multi-indices
        n_raw = 3 + 9
        assert n_raw == 12

    def test_two_value_grouping_count(self, h_linear):
        k = kernel_1d([2.0, 0.5, 0.25])
        plan = build_series_plan(k, h_linear, 6)
        grouped = [t for t in plan.terms if t.depth >= 1]
        # two distinct non-pivot values: sum_{j<=6} (j+1) = 27 compositions
        assert len(grouped) == 27
        raw = raw_series_coefficients(k, h_linear, 6, 2.0, plan.values)
        assert_coefficient_maps_match(raw, plan_coefficients(plan))

    def test_term_budget(self, h_linear):
        # four non-pivot values to depth 50 need 316250 grouped terms
        k = kernel_1d([3.0, 0.1, 0.09, 0.08, 0.07])
        with pytest.raises(ResourceLimitError, match="316250 terms.*n_N"):
            build_series_plan(k, h_linear, 50)

    def test_warns_when_contraction_fails(self, h_linear):
        k = kernel_1d([1.0, -1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_series_plan(k, h_linear, 2)
        assert any("converge" in str(w.message) for w in caught)

    def test_kept_plan_warns_on_every_call(self, h_linear):
        # the second call takes the kept plan, and still warns
        k = kernel_1d([1.0, -1.0])
        plans = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                plans.append(build_series_plan(k, h_linear, 2))
            assert any("converge" in str(w.message) for w in caught)
        assert plans[0] is plans[1]

    def test_equal_kernels_share_one_kept_plan(self, h_linear):
        kernels = [ExperimentConfig().kernel_obj() for _ in range(2)]
        assert kernels[0] is not kernels[1]
        invert._series_plan.cache_clear()
        plans = [build_series_plan(k, h_linear, 3) for k in kernels]
        info = invert._series_plan.cache_info()
        assert plans[0] is plans[1]
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_grouping_equivalence_random_kernels(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        coeffs = np.round(rng.uniform(0.2, 2.5, n) * rng.choice([-1, 1], n), 3)
        k = kernel_1d(coeffs)
        h = WeightH(beta=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
        n_trunc = int(rng.integers(0, 7))
        pivot, _, _ = k.pivot_info(h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = build_series_plan(k, h, n_trunc)
        raw = raw_series_coefficients(k, h, n_trunc, pivot, plan.values)
        assert_coefficient_maps_match(raw, plan_coefficients(plan))

    def test_spectral_view_matches_closed_formula(self):
        # criterion 4's random kernels with a signed integer beta: the Fourier
        # weight coefficient/|scale| against its closed form
        # (-1)^d count sgn(s)^beta |s|^-beta / n1^(d+1)
        rng = np.random.default_rng(20260811)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            coeffs = np.round(rng.uniform(0.2, 2.5, n) * rng.choice([-1, 1], n), 3)
            beta = int(rng.choice([0, 1, 2]))
            n_trunc = int(rng.integers(0, 7))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                plan = build_series_plan(kernel_1d(coeffs), WeightH(beta=beta, signed=True),
                                         n_trunc)
            table, rows = plan.grouped_terms(), plan.spectral_terms(beta)
            assert len(rows) == len(table) == len(plan.terms)
            for t, (scale, w), (table_scale, _) in zip(plan.terms, rows, table):
                assert scale == table_scale == plan.pivot_value ** (t.depth + 1) / t.product
                closed = ((-1.0) ** t.depth * t.count * np.sign(scale) ** beta
                          * abs(scale) ** (-beta) / plan.n1 ** (t.depth + 1))
                assert w == pytest.approx(closed, rel=1e-15, abs=0)

    def test_spectral_view_refuses_another_weight(self, bench_kernel, h_linear):
        plan = build_series_plan(bench_kernel, h_linear, 1)
        for beta in (0, 2):
            with pytest.raises(InvalidInputError, match="weight"):
                plan.spectral_terms(beta)
        assert len(plan.spectral_terms(1)) == len(plan.terms)
        unsigned = build_series_plan(bench_kernel, WeightH(beta=1.0), 1)
        with pytest.raises(InvalidInputError, match="weight"):
            unsigned.spectral_terms(1)

    @pytest.mark.parametrize("coeffs,n_trunc,match", [
        ([1e-200, 1e-201], 1, r"f1\^2/product is 0,"),    # f1^2 underflows to 0
        ([1.0, 1e-200], 2, r"f1\^3/product is inf,"),     # the depth-2 product underflows to 0
        ([1e300, 1.0], 1, r"f1\^2/product is inf,"),      # f1^2 overflows
    ], ids=["zero-scale", "zero-product", "overflowing-scale"])
    def test_table_refuses_a_scale_out_of_range(self, h_linear, coeffs, n_trunc, match):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = build_series_plan(kernel_1d(coeffs), h_linear, n_trunc)
        with pytest.raises(InvalidInputError, match=match):
            plan.grouped_terms()

    def test_table_refuses_a_coefficient_that_overflows(self, h_linear):
        # scale 1/0.5 = 2 is fine, the coefficient -1e308 / 0.5 is -inf
        plan = invert.SeriesPlan(pivot_value=1.0, n1=1, h=h_linear, n_trunc=1, e=0.0,
                                 e_spectral=0.0, terms=(invert.SeriesTerm(1, 0.5, 1e308),))
        with pytest.raises(InvalidInputError, match="coefficient at depth 1 is -inf"):
            plan.grouped_terms()

    @pytest.mark.parametrize("beta", [0, 1, 2])
    def test_plan_carries_contraction_factors(self, bench_kernel, beta):
        h = WeightH(beta=beta, signed=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = build_series_plan(bench_kernel, h, 2)
        assert plan.e == e_factor(bench_kernel, h, plan.pivot_value)
        assert plan.e_spectral == e_factor(bench_kernel, WeightH(beta=beta + 0.5),
                                           plan.pivot_value)


class TestPluginEstimate:
    def test_identity_kernel(self, h_linear):
        k = kernel_1d([1.0])
        grid = symmetric_grid(4.0, 257)
        est = plugin_estimate(g0_gauss, k, h_linear, 3, grid)
        assert np.allclose(est.values, g0_gauss(grid.nodes()), atol=1e-14)

    def test_exact_oracle_two_coefficients(self, h_linear):
        # kernel (1.0, 0.1): e = sqrt(0.1) = 0.3162; with exact forward data
        # the depth-10 series reproduces g0 within the geometric tail
        k = kernel_1d([1.0, 0.1])
        e = contraction_factor(k, h_linear).e_factor
        assert e == pytest.approx(np.sqrt(0.1), rel=1e-12)
        g1 = forward_g_transform(g0_gauss, k, h_linear)
        grid = symmetric_grid(8.0, 4097)
        est = plugin_estimate(g1, k, h_linear, 10, grid)
        truth = GridFunction(grid, g0_gauss(grid.nodes()))
        rel = l2_norm(GridFunction(grid, est.values - truth.values)) / l2_norm(truth)
        assert rel <= e ** 11 / (1 - e) + 2e-3

    def test_forward_residual(self, h_linear):
        k = kernel_1d([1.0, 0.1])
        e = contraction_factor(k, h_linear).e_factor
        g1 = forward_g_transform(g0_gauss, k, h_linear)
        grid = symmetric_grid(8.0, 4097)
        est = plugin_estimate(g1, k, h_linear, 10, grid)
        fwd = forward_g_transform(est, k, h_linear)
        g1_ref = GridFunction(grid, g1(grid.nodes()))
        resid = l2_norm(GridFunction(grid, fwd(grid.nodes()) - g1_ref.values)) / l2_norm(g1_ref)
        assert resid <= e ** 11 / (1 - e) + 2e-3

    def test_gridfunction_input_interpolates(self, bench_kernel, h_linear):
        wide = symmetric_grid(110.0, 8193)
        g1_grid = GridFunction(wide, g0_gauss(wide.nodes()))
        grid = symmetric_grid(6.0, 513)
        est_fn = plugin_estimate(g0_gauss, bench_kernel, h_linear, 1, grid)
        est_gf = plugin_estimate(g1_grid, bench_kernel, h_linear, 1, grid)
        assert np.max(np.abs(est_fn.values - est_gf.values)) < 1e-3

    def test_one_g1_call_equals_term_loop(self, bench_kernel, h_linear):
        g1 = forward_g_transform(g0_gauss, bench_kernel, h_linear)
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return g1(pts)

        grid = symmetric_grid(6.0, 513)
        est = plugin_estimate(counted, bench_kernel, h_linear, 2, grid)
        rows = build_series_plan(bench_kernel, h_linear, 2).grouped_terms()
        assert calls == [len(rows) * grid.n] and len(rows) > 1
        # the per-term loop, one g1 call per series term
        x = grid.nodes()
        loop = np.zeros(grid.n)
        for scale, c in rows:
            loop += c * g1(scale * x)
        assert np.array_equal(est.values, loop)

    def test_deep_plan_bounds_points_per_g1_call(self, bench_kernel, h_linear):
        # 1 + 10 * 13 / 2 = 66 terms of 4097 points need two calls under
        # the 2^18-point cap; the split leaves the sum's order unchanged
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return g0_gauss(pts)

        grid = symmetric_grid(6.0, 4097)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            est = plugin_estimate(counted, bench_kernel, h_linear, 10, grid)
            rows = build_series_plan(bench_kernel, h_linear, 10).grouped_terms()
        assert len(rows) == 66
        assert len(calls) == 2 and sum(calls) == len(rows) * grid.n
        assert max(calls) <= invert._G1_CALL_POINTS
        x = grid.nodes()
        loop = np.zeros(grid.n)
        for scale, c in rows:
            loop += c * g0_gauss(scale * x)
        assert np.array_equal(est.values, loop)


class TestPluginErrorBound:
    def test_zero_error_infinite_depth_vanishes(self):
        val = plugin_error_bound(0.5, 1.0, 1.0, 1, 600, 0.0, 2.0)
        assert val < 1e-100

    def test_single_coefficient(self):
        # e = 0: bound collapses to |f1|^{1/2} s(f1) err
        val = plugin_error_bound(0.0, 0.7, 1.44, 1, 3, 0.25, 9.9)
        assert val == pytest.approx(np.sqrt(1.44) * 0.7 * 0.25, rel=1e-14)

    def test_bench_arithmetic_recomputation(self, bench_kernel, h_linear):
        e = contraction_factor(bench_kernel, h_linear).e_factor
        norm_g1 = 0.8342  # any fixed value; pure arithmetic identity
        got = plugin_error_bound(e, 1 / 1.3, 1.3, 1, 1, 0.01, norm_g1)
        expect = (np.sqrt(1.3) / 1) * (1 / 1.3) * ((1 + e) * 0.01 + e ** 2 * norm_g1 / (1 - e))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_inapplicable_when_not_contraction(self):
        with pytest.raises(BoundInapplicableError):
            plugin_error_bound(1.0, 1.0, 1.0, 1, 1, 0.1, 1.0)

    def test_monotonicity(self):
        vals_depth = [plugin_error_bound(0.6, 1.0, 1.0, 1, n, 0.0, 1.0) for n in range(8)]
        assert all(a >= b for a, b in zip(vals_depth, vals_depth[1:]))
        vals_err = [plugin_error_bound(0.6, 1.0, 1.0, 1, 2, err, 1.0) for err in (0.0, 0.1, 0.2)]
        assert all(a <= b for a, b in zip(vals_err, vals_err[1:]))


class TestFourierEstimate:
    def test_identity_kernel_reduces_to_g1_cutoff(self):
        k = kernel_1d([1.0])
        u = symmetric_grid(np.pi * 2, 1025)
        fg1 = GridFunction(u, 1j * u.nodes() * np.exp(-0.5 * u.nodes() ** 2))
        xg = symmetric_grid(5.0, 257)
        est = fourier_estimate(fg1, k, 1, 2, 2.0, xg)
        from levyfield.grids import fourier_inverse_truncated
        direct, _ = fourier_inverse_truncated(fg1, xg)
        assert np.max(np.abs(est.values - direct.values)) < 1e-9

    def test_exact_spectral_oracle(self, h_linear):
        # F[g1](u) = F[g0](u) + (1/10) F[g0](u/10) with F[g0] = i u e^{-u^2/2}
        k = kernel_1d([1.0, 0.1])
        fg0 = lambda u: 1j * u * np.exp(-0.5 * np.asarray(u) ** 2)
        u = symmetric_grid(40.0, 8193)
        fg1 = GridFunction(u, fg0(u.nodes()) + 0.1 * fg0(u.nodes() / 10))
        xg = symmetric_grid(8.0, 2049)
        est = fourier_estimate(fg1, k, 1, 10, 40.0 / np.pi, xg)
        truth = GridFunction(xg, g0_gauss(xg.nodes()))
        err = l2_norm(GridFunction(xg, est.values - truth.values))
        assert err < 5e-3

    def test_coverage_error(self, bench_kernel):
        u = symmetric_grid(np.pi, 257)
        fg1 = GridFunction(u, np.zeros(257, dtype=complex))
        with pytest.raises(CoverageError):
            # head term needs arguments up to pi*l/1.3 > pi for l = 2
            fourier_estimate(fg1, bench_kernel, 1, 1, 2.0, symmetric_grid(2.0, 65))

    @pytest.mark.parametrize("case", ["65-node F[g1]", "gaussian", "exponential",
                                      "kernel 0.6 0.2 0.1"])
    def test_reads_a_restriction_of_the_g1_grid(self, monkeypatch, case):
        # the spectral series lives on the nodes of F[g1]'s own grid with
        # |u| <= pi l: no u-grid of its own, no upsampling
        seen = []
        inverse = invert.fourier_inverse_truncated

        def spy(F, x_grid):
            seen.append(F.grid)
            return inverse(F, x_grid)

        monkeypatch.setattr(invert, "fourier_inverse_truncated", spy)
        if case == "65-node F[g1]":
            u = symmetric_grid(np.pi, 65)
            fg1 = GridFunction(u, 1j * u.nodes() * np.exp(-0.5 * u.nodes() ** 2))
            fourier_estimate(fg1, kernel_1d([1.0]), 1, 1, 1.0, symmetric_grid(5.0, 129))
            assert seen == [u]
            return
        law, over = (case, {}) if case in ("gaussian", "exponential") else ("gaussian", {
            "kernel": {"coeffs": [0.6, 0.2, 0.1], "offsets": [[0, 0], [1, 0], [0, 1]]}})
        cfg = section7_config(law, "fourier", window=[30, 30], **over)
        u = bench._u_grid(cfg, cfg.kernel_obj()).nodes()
        kept = u[np.abs(u) <= np.pi * cfg.l * (1 + 1e-12)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bench.run_pipeline(cfg, 0)
        assert seen == [Grid1D(kept[0], kept[-1], len(kept))]
        assert seen[0].n == bench._N_U

    @pytest.mark.parametrize("beta", [0.5, -1])
    def test_refuses_beta_not_a_nonnegative_integer(self, beta):
        u = symmetric_grid(np.pi, 65)
        fg1 = GridFunction(u, np.zeros(65, dtype=complex))
        with pytest.raises(InvalidInputError, match="beta"):
            fourier_estimate(fg1, kernel_1d([1.0]), beta, 1, 1.0, symmetric_grid(2.0, 65))

    def test_condition_warning(self, h_linear):
        # beta = 0 gives e(f, |.|^{1/2}) = count of non-pivot terms / n1 >= 1;
        # the beta = 0 pivot selection favours the smallest coefficient, so
        # the scaled arguments need a wide source grid
        k = kernel_1d([1.0, 0.5, 0.4])
        u = symmetric_grid(21.0, 513)
        fg1 = GridFunction(u, np.zeros(513, dtype=complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fourier_estimate(fg1, k, 0, 1, 1.0, symmetric_grid(2.0, 65))
        assert any("spectral" in str(w.message) for w in caught)

    def test_kept_condition_warns_on_every_call(self):
        # the kernel of test_condition_warning, run twice
        k = kernel_1d([1.0, 0.5, 0.4])
        u = symmetric_grid(21.0, 513)
        fg1 = GridFunction(u, np.zeros(513, dtype=complex))
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fourier_estimate(fg1, k, 0, 1, 1.0, symmetric_grid(2.0, 65))
            assert any("spectral" in str(w.message) for w in caught)


class TestFourierErrorBound:
    def test_all_errors_zero_deep_truncation(self, bench_kernel):
        val = fourier_error_bound(bench_kernel, 1, 400, 1.0, lambda l: 0.0, 1.0)
        assert val < 1e-12

    def test_single_coefficient(self):
        k = kernel_1d([2.0])
        val = fourier_error_bound(k, 2, 3, 1.0, lambda l: 0.11, 5.0)
        assert val == pytest.approx(0.11 / 2.0 ** 2, rel=1e-14)

    def test_bench_arithmetic_recomputation(self, bench_kernel):
        # independent recomputation of the depth-1 bound with beta = 1
        err = lambda l: 0.01 * (1 + l)
        got = fourier_error_bound(bench_kernel, 1, 1, 1.0, err, 0.77)
        s = {0.2: 0.2 / 1.3, 0.1: 0.1 / 1.3}
        e_cond = (s[0.2] + 2 * s[0.1]) / 1
        expect = err(1.0 / 1.3)
        for fi, si in ((0.2, s[0.2]), (0.1, s[0.1]), (0.1, s[0.1])):
            expect += si * err(abs(fi / 1.3 ** 2) * 1.0)
        expect += e_cond ** 2 / (1 - e_cond) * 0.77
        expect /= 1 * 1.3
        assert got == pytest.approx(expect, rel=1e-12)

    def test_inapplicable_condition(self):
        # four distinct values, beta = 0: e_cond = (n - n1)/n1 = 3 for every
        # pivot choice, so no pivot makes the bound applicable
        k = kernel_1d([1.0, 0.5, 0.4, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BoundInapplicableError):
                fourier_error_bound(k, 0, 1, 1.0, lambda l: 0.0, 1.0)

import numpy as np
import pytest

from levyfield.errors import InvalidInputError, PreconditionError, SingularSystemError
from levyfield.grids import symmetric_grid
from levyfield.model import SimpleKernel, forward_g_transform
from levyfield.onb import (
    EtaSystem,
    HaarBasis,
    build_eta,
    onb_error_bound,
    onb_estimate,
    project_g1bar,
    solve_coefficients,
)


def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2 * np.pi)


def kernel_1d(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    return SimpleKernel(coeffs=coeffs, offsets=np.arange(len(coeffs))[:, None])


@pytest.fixture
def bench_system(bench_kernel, h_linear):
    return build_eta(HaarBasis(6.0, 2, 7), bench_kernel, h_linear)


class TestHaarBasis:
    def test_orthonormal_to_rounding(self):
        basis = HaarBasis(6.0, 2, 8)
        V = basis.values_matrix()
        gram = V @ V.T * basis.dx
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_ordering_scaling_then_levels(self):
        basis = HaarBasis(1.0, 2, 8)
        x = np.array([-0.9, -0.1, 0.1, 0.9])
        # scaling function is flat
        assert np.allclose(basis.evaluate(0, x), 1 / np.sqrt(2))
        # first wavelet flips sign at the interval midpoint
        w0 = basis.evaluate(1, x)
        assert w0[0] > 0 and w0[1] > 0 and w0[2] < 0 and w0[3] < 0

    def test_m_bounds(self):
        with pytest.raises(InvalidInputError):
            HaarBasis(1.0, 1, 5)  # levels 0..1 provide only 4 functions
        HaarBasis(1.0, 1, 4)

    def test_cells_align_with_breakpoints(self):
        basis = HaarBasis(6.0, 2, 7, n_cells=1000)
        assert basis.n_cells % 8 == 0


class TestBuildEta:
    def test_identity_kernel(self, h_linear):
        k = kernel_1d([1.0])
        basis = HaarBasis(2.0, 1, 4)
        system = build_eta(basis, k, h_linear)
        assert np.allclose(system.eta_values, basis.values_matrix(), atol=1e-14)
        assert np.allclose(system.e_values, basis.values_matrix(), atol=1e-12)
        assert np.max(np.abs(system.mix - np.eye(4))) <= 1e-12

    def test_bench_structure(self, bench_system):
        m = bench_system.m
        E = bench_system.e_values
        gram = E @ E.T * bench_system.basis.dx
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-10
        assert np.max(np.abs(np.tril(bench_system.mix, -1))) <= 1e-10
        lower = bench_system.n1 / abs(bench_system.pivot_value) * (1 - bench_system.e_contraction)
        assert np.all(np.diag(bench_system.mix) >= lower - 1e-8)

    def test_eta_norm_lower_bound(self, bench_system):
        lower = bench_system.n1 / abs(bench_system.pivot_value) * (1 - bench_system.e_contraction)
        norms = np.sqrt(np.sum(bench_system.eta_values ** 2, axis=1) * bench_system.basis.dx)
        assert np.all(norms >= lower - 1e-8)

    def test_e3_orthogonal_to_eta1(self, bench_system):
        val = bench_system.ip(bench_system.e_values[2], bench_system.eta_values[0])
        assert abs(val) <= 1e-10

    def test_pivot_not_maximal_rejected(self, h_linear):
        k = kernel_1d([0.5, 1.0]).with_pivot(0.5)
        with pytest.raises(PreconditionError, match="dominate"):
            build_eta(HaarBasis(2.0, 1, 4), k, h_linear)

    def test_contraction_violation_rejected(self, h_linear):
        k = kernel_1d([1.0, -1.0]).with_pivot(1.0)
        with pytest.raises(PreconditionError, match="contraction"):
            build_eta(HaarBasis(2.0, 1, 4), k, h_linear)


class TestProjection:
    def test_zero_data(self, bench_system):
        y = project_g1bar(lambda x: 0.0 * np.asarray(x), bench_system)
        assert np.all(y == 0)

    def test_unit_vector_recovery(self, h_linear, bench_system):
        # feed g1bar = e_2 exactly by inverting the bar-scaling
        e2 = bench_system.e_values[1]
        grid = bench_system.basis.midpoint_grid()
        f1 = bench_system.pivot_value
        ratio = h_linear.ratio(f1)

        def g1(x):
            return np.interp(np.asarray(x) / f1, grid.nodes(), e2 / ratio,
                             left=0.0, right=0.0)

        y = project_g1bar(g1, bench_system)
        expect = np.zeros(7)
        expect[1] = 1.0
        assert np.max(np.abs(y - expect)) < 1e-9

    def test_projection_identity_from_forward_map(self, bench_kernel, h_linear, bench_system):
        # with exact forward data, y_j = sum_i x_i <eta_i, e_j>
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=7)
        basis = bench_system.basis
        g0 = lambda x: basis.combine(coeffs, x)
        g1 = forward_g_transform(g0, bench_kernel, h_linear)
        y = project_g1bar(g1, bench_system)
        expect = bench_system.mix @ coeffs
        assert np.max(np.abs(y - expect)) < 1e-6


class TestSolve:
    def test_single_function(self, bench_kernel, h_linear):
        system = build_eta(HaarBasis(6.0, 0, 1), bench_kernel, h_linear)
        eta_norm = np.sqrt(system.ip(system.eta_values[0], system.eta_values[0]))
        x = solve_coefficients(np.array([0.5]), system)
        assert x[0] == pytest.approx(0.5 / eta_norm, rel=1e-12)

    def test_identity_mix(self, h_linear):
        system = build_eta(HaarBasis(2.0, 1, 4), kernel_1d([1.0]), h_linear)
        y = np.array([1.0, -2.0, 3.0, 0.25])
        assert np.allclose(solve_coefficients(y, system), y, atol=1e-12)

    def test_random_triangular_round_trip(self, bench_system):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=7)
            y = bench_system.mix @ x
            back = solve_coefficients(y, bench_system)
            assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    def test_synthetic_upper_triangular(self, bench_system):
        # arbitrary well-conditioned upper-triangular system, m = 7
        rng = np.random.default_rng(12)
        B = np.triu(rng.normal(size=(7, 7))) + 3 * np.eye(7)
        system = EtaSystem(basis=bench_system.basis, pivot_value=1.0, n1=1,
                           h=bench_system.h, e_contraction=0.0,
                           eta_values=bench_system.eta_values,
                           e_values=bench_system.e_values, mix=B)
        x = rng.normal(size=7)
        assert np.max(np.abs(solve_coefficients(B @ x, system) - x)) < 1e-12

    def test_singular_diagonal(self, bench_system):
        B = bench_system.mix.copy()
        B[3, 3] = 0.0
        broken = EtaSystem(basis=bench_system.basis, pivot_value=bench_system.pivot_value,
                           n1=bench_system.n1, h=bench_system.h,
                           e_contraction=bench_system.e_contraction,
                           eta_values=bench_system.eta_values,
                           e_values=bench_system.e_values, mix=B)
        with pytest.raises(SingularSystemError):
            solve_coefficients(np.ones(7), broken)


class TestEstimate:
    def test_zero_coefficients(self):
        basis = HaarBasis(6.0, 2, 7)
        out = onb_estimate(np.zeros(7), basis)
        assert np.all(out.values == 0)

    def test_support_confined(self):
        basis = HaarBasis(2.0, 1, 4)
        out = onb_estimate(np.ones(4), basis, symmetric_grid(5.0, 401))
        x = out.grid.nodes()
        assert np.all(out.values[np.abs(x) > 2.0] == 0)

    def test_in_span_exact_recovery(self, bench_kernel, h_linear, bench_system):
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=7)
        basis = bench_system.basis
        g0 = lambda x: basis.combine(coeffs, x)
        g1 = forward_g_transform(g0, bench_kernel, h_linear)
        y = project_g1bar(g1, bench_system)
        xhat = solve_coefficients(y, bench_system)
        assert np.max(np.abs(xhat - coeffs)) <= 1e-8
        est = onb_estimate(xhat, basis)
        assert np.max(np.abs(est.values - g0(basis.midpoints()))) <= 1e-8

    @pytest.mark.parametrize("g0", [
        lambda x: np.asarray(x) * phi(x),
        lambda x: np.where(np.asarray(x) > 0, np.asarray(x) * np.exp(-np.clip(x, 0, None)), 0.0),
    ])
    def test_tail_decay_through_full_levels(self, g0):
        basis = HaarBasis(6.0, 4, 32)
        mid = basis.midpoints()
        vals = g0(mid)
        V = basis.values_matrix()
        coefs = V @ vals * basis.dx
        total = np.sum(vals ** 2) * basis.dx
        tails = [total - np.sum(coefs[:m] ** 2) for m in (2, 4, 8, 16, 32)]
        assert all(t1 >= t2 - 1e-12 for t1, t2 in zip(tails, tails[1:]))
        assert tails[-1] < tails[0]


class TestErrorBound:
    def test_zero_inputs(self):
        assert onb_error_bound(0.5, 1.3, 1, 0.0, 0.0) == 0.0

    def test_single_coefficient_form(self):
        assert onb_error_bound(0.0, 2.0, 1, 0.3, 0.1) == pytest.approx(2.0 * (0.6 + 0.1))

    def test_bench_arithmetic(self, bench_kernel, h_linear):
        from levyfield.invert import contraction_factor
        e = contraction_factor(bench_kernel, h_linear).e_factor
        got = onb_error_bound(e, 1.3, 1, 0.11, 0.07)
        expect = 1.3 / (1 - e) * (2 * 0.11 + 0.07)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_inapplicable(self):
        from levyfield.errors import BoundInapplicableError
        with pytest.raises(BoundInapplicableError):
            onb_error_bound(1.0, 1.0, 1, 0.1, 0.1)

    def test_bound_honesty_exact_inputs(self, bench_kernel, h_linear):
        # measured error of the exact-input pipeline never exceeds the bound
        # evaluated with the measured tail and projection terms
        system = build_eta(HaarBasis(6.0, 2, 7), bench_kernel, h_linear)
        big = build_eta(HaarBasis(6.0, 5, 64), bench_kernel, h_linear)
        basis = system.basis
        mid = basis.midpoints()
        g0_vals = mid * phi(mid)
        g0 = lambda x: np.asarray(x) * phi(x) * (np.abs(np.asarray(x)) <= 6.0)
        g1 = forward_g_transform(g0, bench_kernel, h_linear)
        y = project_g1bar(g1, system)
        xhat = solve_coefficients(y, system)
        est = onb_estimate(xhat, basis)
        err = np.sqrt(np.sum((est.values - g0_vals) ** 2) * basis.dx)
        # tail term over levels up to 5; the remainder beyond level 5 is
        # negligible for this smooth target
        coefs_big = big.basis.values_matrix() @ g0(big.basis.midpoints()) * big.basis.dx
        tail_fn = coefs_big[7:] @ big.eta_values[7:]
        tail = np.sqrt(np.sum(tail_fn ** 2) * big.basis.dx)
        g1bar = h_linear.ratio(system.pivot_value) * g1(system.pivot_value * mid)
        proj = g1bar - system.e_values.T @ (system.e_values @ g1bar * basis.dx)
        proj_err = np.sqrt(np.sum(proj ** 2) * basis.dx)
        bound = onb_error_bound(system.e_contraction, system.pivot_value,
                                system.n1, tail, proj_err)
        assert err <= bound + 1e-10

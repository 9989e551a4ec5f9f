from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from levyfield.errors import CoverageError, InvalidInputError, SingularRecoveryError
from levyfield.grids import Grid1D, GridFunction
from levyfield.model import (
    JumpLaw,
    SimpleKernel,
    WeightH,
    field_char_fn,
    forward_drift,
    forward_gaussian,
    forward_g_transform,
    forward_levy_density,
    fourier_g1_model,
    recover_a0_b0,
    u_function,
)
from oracles import field_moments


def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2 * np.pi)


def random_kernel(rng, max_n=5, d=1):
    n = rng.integers(1, max_n + 1)
    coeffs = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
    offsets = np.arange(n)[:, None] if d == 1 else np.stack(
        [np.arange(n), np.zeros(n, dtype=int)], axis=1)
    return SimpleKernel(coeffs=coeffs, offsets=offsets)


class TestJumpLaw:
    def test_gaussian_moments(self):
        law = JumpLaw.gaussian(mean=0.3, sd=0.8)
        for r in (1, 2, 3, 4):
            got = law._integral(lambda x: x ** r, -np.inf, np.inf)
            assert got == pytest.approx(stats.norm(0.3, 0.8).moment(r), rel=1e-13)

    def test_exponential_moments(self, exponential_law):
        for r in (1, 2, 3, 4):
            got = exponential_law._integral(lambda x: x ** r, -np.inf, np.inf)
            assert got == pytest.approx(stats.expon.moment(r), rel=1e-13)

    def test_tabulated_matches_source(self):
        g = Grid1D(-8, 8, 2001)
        law = JumpLaw.tabulated(GridFunction(g, phi(g.nodes())))
        assert law.mass == pytest.approx(1.0, abs=1e-6)
        assert float(law.pdf(0.5)) == pytest.approx(float(phi(0.5)), rel=1e-5)
        assert complex(law.char_fn(np.array([1.0]))[0]) == pytest.approx(
            np.exp(-0.5), abs=1e-5)

    @pytest.mark.parametrize("a,b", [(0.1, 3.9), (-3.3, 2.7)])
    def test_tabulated_first_moment_is_exact(self, a, b):
        # integral x v0(x) dx of the piecewise-linear table, cell by cell:
        # on v0 = c + s x it is c (hi^2 - lo^2) / 2 + s (hi^3 - lo^3) / 3
        xs = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        ys = np.array([0.05, 0.2, 0.3, 0.2, 0.05])
        law = JumpLaw.tabulated(GridFunction(Grid1D(-4, 4, 5), ys))
        want = 0.0
        for x0, x1, y0, y1 in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
            lo, hi = max(a, x0), min(b, x1)
            if lo < hi:
                s = (y1 - y0) / (x1 - x0)
                c = y0 - s * x0
                want += c * (hi ** 2 - lo ** 2) / 2 + s * (hi ** 3 - lo ** 3) / 3
        assert law.partial_first_moment(a, b) == pytest.approx(want, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("law_name,cdf", [
        ("gaussian", stats.norm.cdf),
        ("exponential", stats.expon.cdf),
    ])
    def test_sampler_matches_density_ks(self, law_name, cdf):
        law = JumpLaw.gaussian() if law_name == "gaussian" else JumpLaw.exponential()
        rng = np.random.default_rng(42)
        draws = law.sample(rng, 4000)
        assert stats.kstest(draws, cdf).pvalue > 0.01

    def test_tabulated_sampler_ks(self):
        g = Grid1D(-8, 8, 4001)
        law = JumpLaw.tabulated(GridFunction(g, phi(g.nodes())))
        rng = np.random.default_rng(7)
        draws = law.sample(rng, 4000)
        assert stats.kstest(draws, stats.norm.cdf).pvalue > 0.01


class TestSimpleKernel:
    def test_pivot_default_minimizes_contraction(self, bench_kernel, h_linear):
        pivot, q, n1 = bench_kernel.pivot_info(h_linear)
        assert pivot == 1.3 and n1 == 1 and list(q) == [0]

    def test_group_snapping(self):
        k = SimpleKernel(coeffs=np.array([0.1, 0.1 * (1 + 1e-13), 0.5]),
                         offsets=np.array([[0], [1], [2]]))
        groups = k.groups()
        assert len(groups) == 2
        _, idx = min(groups, key=lambda g: g[0])
        assert list(idx) == [0, 1]

    @pytest.mark.parametrize("bad", [
        dict(coeffs=np.array([0.0, 1.0]), offsets=np.array([[0], [1]])),
        dict(coeffs=np.array([1.0, 1.0]), offsets=np.array([[0], [0]])),
        dict(coeffs=np.array([1.0]), offsets=np.array([[0], [1]])),
    ])
    def test_invalid_kernels(self, bad):
        with pytest.raises(InvalidInputError):
            SimpleKernel(**bad)

    def test_equal_arrays_make_equal_kernels(self):
        k = SimpleKernel(np.array([1.3, 0.2]), np.array([[0, 0], [1, 0]]))
        same = SimpleKernel([1.3, 0.2], [[0, 0], [1, 0]])
        assert k == same and hash(k) == hash(same)
        assert k != SimpleKernel([1.3, 0.2], [[0, 0], [0, 1]])
        assert SimpleKernel([1.0, 0.5], [0, 1]) == SimpleKernel([1.0, 0.5], [[0], [1]])

    def test_arrays_are_read_only_copies(self):
        coeffs, offsets = np.array([1.3, 0.2]), np.array([[0], [1]])
        k = SimpleKernel(coeffs, offsets)
        for arr in (k.coeffs, k.offsets):
            with pytest.raises(ValueError):
                arr[0] = 2
        # the caller's arrays stay writable, and writing to them leaves the kernel as it was
        coeffs[0], offsets[0, 0] = 2.0, 5
        assert k.coeffs[0] == 1.3 and k.offsets[0, 0] == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pivot_groups_partition_indices(self, seed):
        rng = np.random.default_rng(seed)
        k = random_kernel(rng)
        groups = k.groups()
        all_idx = sorted(i for _, idx in groups for i in idx)
        assert all_idx == list(range(k.n))
        _, q, n1 = k.pivot_info(WeightH(1.0))
        assert n1 == len(q) >= 1


class TestWeightH:
    def test_signed_requires_integer(self):
        with pytest.raises(InvalidInputError):
            WeightH(beta=1.5, signed=True)

    def test_ratio_sign(self):
        h = WeightH(beta=1.0, signed=True)
        assert h.ratio(-2.0) == pytest.approx(-0.5)
        assert WeightH(beta=1.0).ratio(-2.0) == pytest.approx(0.5)

    def test_beta_zero_is_unit_weight(self):
        h = WeightH(beta=0.0)
        assert h.ratio(5.0) == 1.0

    def test_ratio_that_overflows_is_refused(self):
        # |1e-310|^-1 = 1e310 is past the largest float
        with pytest.raises(InvalidInputError, match="overflows"):
            WeightH(1.0).ratio(1e-310)


class TestForwardMaps:
    def test_levy_density_bench_display(self, bench_kernel, gaussian_law):
        # v1(x) = (1/1.3) v0(x/1.3) + (1/0.2) v0(x/0.2) + (2/0.1) v0(x/0.1)
        v1 = forward_levy_density(bench_kernel, gaussian_law)
        x = np.array([-1.0, 0.3, 2.0])
        expect = phi(x / 1.3) / 1.3 + phi(x / 0.2) / 0.2 + 2 * phi(x / 0.1) / 0.1
        assert np.allclose(v1(x), expect, rtol=1e-12)

    def test_identity_kernel(self, gaussian_law):
        k = SimpleKernel(coeffs=np.array([1.0]), offsets=np.array([[0]]))
        v1 = forward_levy_density(k, gaussian_law)
        x = np.linspace(-3, 3, 7)
        assert np.allclose(v1(x), phi(x))

    def test_single_scaled_cell(self, gaussian_law):
        k = SimpleKernel(coeffs=np.array([2.0]), offsets=np.array([[0]]))
        v1 = forward_levy_density(k, gaussian_law)
        assert float(v1(np.array([0.0]))[0]) == pytest.approx(0.19947114020071635, abs=1e-6)

    def test_mass_conservation(self, bench_kernel, exponential_law):
        v1 = forward_levy_density(bench_kernel, exponential_law)
        val, _ = integrate.quad(lambda x: float(v1(np.array([x]))[0]), -1, 60, limit=400)
        assert val == pytest.approx(4.0, rel=1e-6)

    def test_gaussian_part(self, bench_kernel):
        assert forward_gaussian(bench_kernel, 2.0) == pytest.approx(3.5)
        assert forward_gaussian(bench_kernel, 0.0) == 0.0
        single = SimpleKernel(coeffs=np.array([1.0]), offsets=np.array([[0]]))
        assert forward_gaussian(single, 1.7) == pytest.approx(1.7)
        with pytest.raises(InvalidInputError):
            forward_gaussian(bench_kernel, -1.0)


class TestUFunction:
    def test_symmetric_law_zero(self, gaussian_law):
        for u in (0.5, 1.7, -2.3):
            assert u_function(u, 0.0, gaussian_law) == pytest.approx(0.0, abs=1e-8)

    def test_u_equal_one_returns_drift(self, exponential_law):
        assert u_function(1.0, 1.23, exponential_law) == pytest.approx(1.23, abs=1e-12)

    def test_exponential_closed_form(self, exponential_law):
        # U(2) = 2 (1 - int_{1/2}^1 x e^{-x} dx); antiderivative -(x+1)e^{-x}
        inner = 1.5 * np.exp(-0.5) - 2.0 * np.exp(-1.0)
        assert u_function(2.0, 1.0, exponential_law) == pytest.approx(
            2.0 * (1.0 - inner), abs=1e-8)

    def test_tabulated_coverage_error(self):
        g = Grid1D(-1.5, 1.5, 301)
        law = JumpLaw.tabulated(GridFunction(g, 0.4 * np.exp(-np.abs(g.nodes()))))
        with pytest.raises(CoverageError):
            u_function(0.2, 0.0, law)  # needs coverage of [-5, 5]

    def test_tabulated_u_equal_one_needs_no_coverage(self):
        # U(1) = a0 integrates nothing, so a table short of [-1, 1] is enough
        g = Grid1D(-0.5, 0.5, 101)
        law = JumpLaw.tabulated(GridFunction(g, phi(g.nodes())))
        assert u_function(1.0, 0.7, law) == 0.7

    def test_tabulated_matches_analytic_law(self):
        g = Grid1D(-10, 10, 4001)
        table = JumpLaw.tabulated(GridFunction(g, phi(g.nodes())))
        analytic = JumpLaw.gaussian()
        for u in (0.4, 2.5):
            assert u_function(u, 0.7, table) == pytest.approx(
                u_function(u, 0.7, analytic), abs=1e-5)


class TestDrift:
    def test_symmetric_zero(self, bench_kernel, gaussian_law):
        assert forward_drift(bench_kernel, 0.0, gaussian_law) == pytest.approx(0.0, abs=1e-8)

    def test_unit_coefficients(self, exponential_law):
        k = SimpleKernel(coeffs=np.array([1.0, 1.0, 1.0]),
                         offsets=np.array([[0], [1], [2]]))
        assert forward_drift(k, 0.7, exponential_law) == pytest.approx(3 * 0.7, abs=1e-10)

    def test_bench_kernel_vs_dense_quadrature(self, bench_kernel, exponential_law):
        # independent oracle: dense trapezoid between the indicator jumps,
        # where the integrand x [1(|f x|<=1) - 1(|x|<=1)] e^{-x} is smooth
        a1 = forward_drift(bench_kernel, 0.0, exponential_law)
        oracle = 0.0
        for fk in bench_kernel.coeffs:
            lo, hi = min(1.0, 1.0 / abs(fk)), max(1.0, 1.0 / abs(fk))
            sign = 1.0 if 1.0 / abs(fk) > 1.0 else -1.0
            xs = np.linspace(lo, hi, 400_001)
            oracle += fk * sign * np.trapezoid(xs * exponential_law.pdf(xs), xs)
        assert a1 == pytest.approx(oracle, abs=1e-8)


class TestRecovery:
    def test_gaussian_round_trip(self, bench_kernel, gaussian_law):
        b1 = forward_gaussian(bench_kernel, 2.0)
        a1 = forward_drift(bench_kernel, 0.4, gaussian_law)
        a0, b0 = recover_a0_b0(bench_kernel, a1, b1, gaussian_law)
        assert b0 == pytest.approx(2.0, abs=1e-12)
        assert a0 == pytest.approx(0.4, abs=1e-8)

    def test_singular_kernel(self, gaussian_law):
        k = SimpleKernel(coeffs=np.array([1.0, -1.0]), offsets=np.array([[0], [1]]))
        with pytest.raises(SingularRecoveryError):
            recover_a0_b0(k, 0.0, 1.0, gaussian_law)

    def test_symmetric_law_zero_drift(self, bench_kernel, gaussian_law):
        a1 = forward_drift(bench_kernel, 0.0, gaussian_law)
        a0, _ = recover_a0_b0(bench_kernel, a1, 1.0, gaussian_law)
        assert a0 == pytest.approx(0.0, abs=1e-8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random_kernels(self, seed):
        rng = np.random.default_rng(seed)
        k = random_kernel(rng)
        if abs(k.sum_f()) < 1e-3:
            return
        law = JumpLaw.gaussian(mean=0.3, sd=0.8)
        a0_true, b0_true = 0.7, 1.9
        a1 = forward_drift(k, a0_true, law)
        b1 = forward_gaussian(k, b0_true)
        a0, b0 = recover_a0_b0(k, a1, b1, law)
        assert a0 == pytest.approx(a0_true, abs=1e-8)
        assert b0 == pytest.approx(b0_true, abs=1e-8)


LevyTriplet = namedtuple("LevyTriplet", "a b v")  # drift, Gaussian variance, Levy density


def cumulant(triplet: LevyTriplet, t: float) -> complex:
    """K(t) = i t a - t^2 b / 2 + integral (e^{itx} - 1 - itx 1_{[-1,1]}(x)) v(x) dx."""
    out = 1j * t * triplet.a - 0.5 * t * t * triplet.b
    v = triplet.v
    if v is None or t == 0:
        return out
    lo, hi = v.support_bounds()
    for a, b, drift in ((lo, -1.0, 0.0), (-1.0, 1.0, t), (1.0, hi, 0.0)):
        out += v._integral(lambda x: np.cos(t * x) - 1.0, a, b)
        out += 1j * v._integral(lambda x: np.sin(t * x) - drift * x, a, b)
    return out


def charfn_x0(kernel: SimpleKernel, triplet: LevyTriplet, u: float) -> complex:
    """Characteristic function of X(0): exp{ sum_k K(u f_k) }."""
    return complex(np.exp(sum(cumulant(triplet, u * fk) for fk in kernel.coeffs)))


class TestCumulant:
    def test_zero_argument(self, gaussian_law):
        t = LevyTriplet(0.3, 1.0, gaussian_law)
        assert cumulant(t, 0.0) == 0.0

    def test_pure_gaussian_charfn(self, bench_kernel):
        t = LevyTriplet(0.0, 1.0, None)
        val = charfn_x0(bench_kernel, t, 1.2)
        assert val == pytest.approx(np.exp(-1.2 ** 2 * 1.75 / 2), abs=1e-12)

    def test_cp_cross_check_with_closed_form(self, bench_kernel, gaussian_law):
        # pure-jump parameterisation a = int_{-1}^{1} x v0 dx, b = 0 gives
        # K(t) = int (e^{itx} - 1) v0 dx, so exp(sum vol K(u f_k)) must equal
        # the compound Poisson characteristic function
        a_cp = gaussian_law.partial_first_moment(-1.0, 1.0)
        t = LevyTriplet(a_cp, 0.0, gaussian_law)
        for u in (0.3, 1.0, 2.2):
            lhs = charfn_x0(bench_kernel, t, u)
            rhs = complex(field_char_fn(bench_kernel, gaussian_law, np.array([u]))[0])
            assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("t", [0.4, 2.5])
    def test_tabulated_law_matches_closed_form(self, t):
        # N(mu, 1) jumps: K(t) = i t a - t^2 b / 2 + e^{i mu t - t^2/2} - 1
        #                        - i t integral_{-1}^{1} x phi(x - mu) dx
        mu = 0.5
        g = Grid1D(mu - 12, mu + 12, 8001)
        table = JumpLaw.tabulated(GridFunction(g, phi(g.nodes() - mu)))
        inner = (mu * (stats.norm.cdf(1 - mu) - stats.norm.cdf(-1 - mu))
                 + phi(-1 - mu) - phi(1 - mu))
        want = (1j * t * 0.3 - 0.5 * t * t * 0.2 + np.exp(1j * mu * t - 0.5 * t * t) - 1
                - 1j * t * inner)
        assert abs(cumulant(LevyTriplet(0.3, 0.2, table), t) - want) <= 1e-5

    def test_charfn_bounded_and_hermitian(self, bench_kernel, exponential_law):
        u = np.linspace(-8, 8, 41)
        vals = field_char_fn(bench_kernel, exponential_law, u)
        assert np.all(np.abs(vals) <= 1 + 1e-12)
        assert np.allclose(vals, np.conj(vals[::-1]))

    def test_field_moments_variance(self, bench_kernel, gaussian_law):
        mom = field_moments(bench_kernel, gaussian_law)
        assert mom["var"] == pytest.approx(1.75)

    def test_fourier_g1_model_vs_quadrature(self, bench_kernel, gaussian_law):
        # two independent routes to F[g1]: closed form vs quadrature of x v1
        from levyfield.grids import fourier_forward
        g = Grid1D(-10, 10, 8001)
        v1 = forward_levy_density(bench_kernel, gaussian_law)
        g1 = GridFunction(g, g.nodes() * v1(g.nodes()))
        u = Grid1D(-3, 3, 61)
        by_quad = fourier_forward(g1, u)
        closed = fourier_g1_model(bench_kernel, gaussian_law, u.nodes())
        assert np.max(np.abs(by_quad.values - closed)) < 1e-4


class TestForwardGTransform:
    def test_matches_weighted_density(self, bench_kernel, gaussian_law, h_linear):
        # h = x: g1(x) = x v1(x) must equal the forward transform of x v0(x)
        v1 = forward_levy_density(bench_kernel, gaussian_law)
        g0 = lambda x: np.asarray(x) * phi(x)
        g1 = forward_g_transform(g0, bench_kernel, h_linear)
        x = np.linspace(-4, 4, 33)
        assert np.allclose(g1(x), x * v1(x), atol=1e-12)

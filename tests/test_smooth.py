import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import polygamma, sici

from levyfield.errors import DivergentBoundError, InvalidInputError
from levyfield.grids import (
    Grid1D,
    GridFunction,
    convolve,
    fourier_forward,
    l2_norm,
    symmetric_grid,
    trapezoid_weights,
)
from levyfield.model import WeightH, forward_g_transform
from levyfield.invert import plugin_estimate
from levyfield.smooth import (
    SmoothingKernel,
    a_delta,
    check_k3,
    k1_mass_error,
    select_bandwidth,
    smooth,
)
from levyfield.smooth import _fejer_mass, _trigamma
from oracles import a_delta_closed_form


def g0_gauss(x):
    x = np.asarray(x)
    return x * np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)


def g0_exp(x):
    x = np.asarray(x)
    return np.where(x > 0, x * np.exp(-np.clip(x, 0, None)), 0.0)


class TestSmoothingKernel:
    @pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "bandlimited"])
    def test_k1_unit_mass(self, family):
        for b in (0.25, 0.5, 1.0):
            assert k1_mass_error(family, b) <= 1e-14

    @pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "bandlimited"])
    def test_k1_sums_the_implemented_density(self, family, monkeypatch):
        # the check integrates SmoothingKernel.density, so a density off by
        # 1e-6 of its mass fails it
        density = SmoothingKernel.density
        monkeypatch.setattr(SmoothingKernel, "density",
                            lambda self, x: (1 + 1e-6) * density(self, x))
        for b in (0.25, 0.5, 1.0):
            assert k1_mass_error(family, b) > 1e-8

    @pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "bandlimited"])
    def test_k2_uniform_transform_bound(self, family):
        x = np.linspace(-300, 300, 2001)
        for b in (0.1, 0.7, 2.0):
            kern = SmoothingKernel(family, b)
            assert np.max(np.abs(kern.fourier(x))) <= 1.0 + 1e-10

    def test_k3_gaussian_below_two(self):
        holds, c1 = check_k3("gaussian")
        assert holds and c1 <= 2.0

    def test_k3_epanechnikov_taylor_origin(self):
        # |1 - F[K_b](x)| = (bx)^2/10 + O((bx)^4) <= c1 b|x| near zero
        kern = SmoothingKernel("epanechnikov", 1.0)
        t = np.array([1e-3, 1e-2, 1e-1])
        assert np.allclose(1 - kern.fourier(t), t ** 2 / 10, rtol=1e-2)
        holds, c1 = check_k3("epanechnikov")
        assert holds and np.all((1 - kern.fourier(t)) <= c1 * t)

    def test_k3_bandlimited_lipschitz_constant(self):
        # triangle transform: Lipschitz constant 1, c1 = max(1, L) = 1
        holds, c1 = check_k3("bandlimited")
        assert holds and c1 <= 1.0 + 1e-9

    def test_invalid_family_and_bandwidth(self):
        with pytest.raises(InvalidInputError):
            SmoothingKernel("box", 1.0)
        with pytest.raises(InvalidInputError):
            SmoothingKernel("gaussian", 0.0)
        with pytest.raises(InvalidInputError, match="reciprocal"):
            SmoothingKernel("gaussian", 5e-324)


def full_radius_kernel(kern, dx):
    """The kernel over all 2r + 1 nodes of its effective radius r dx,
    normalised by its trapezoid mass over them."""
    r = max(1, math.ceil(kern.effective_radius() / dx))
    grid = Grid1D(-r * dx, r * dx, 2 * r + 1)
    vals = kern.density(grid.nodes())
    return GridFunction(grid, vals / float(np.sum(trapezoid_weights(grid) * vals)))


# spacing of the default x-grid, 2048 nodes on [-6, 6]
DX = 12.0 / 2047


class TestFejerMass:
    @pytest.mark.parametrize("b", [0.5, 0.7, 1.0, 1.1, 0.05, 3.0])
    def test_closed_form_matches_full_trapezoid_sum(self, b):
        kern = SmoothingKernel("bandlimited", b)
        r = math.ceil(kern.effective_radius() / DX)
        # dx * sum_{|k| <= r} K_b(k dx), end nodes halved, in blocks of 2^20
        total = 0.0
        for k0 in range(-r, r + 1, 1 << 20):
            total += float(np.sum(kern.density(np.arange(k0, min(k0 + (1 << 20), r + 1)) * DX)))
        full = DX * (total - float(kern.density(r * DX)))
        assert _fejer_mass(b, DX, r) == pytest.approx(full, rel=1e-13, abs=0)

    def test_trigamma_is_scipys_polygamma(self):
        # every n the closed form reaches up to 4e4, then log-spaced to 1e12;
        # the reference is scipy's polygamma
        ns = np.unique(np.concatenate([np.arange(1911, 40000),
                                       np.geomspace(4e4, 1e12, 4000).astype(np.int64)]))
        want = polygamma(1, ns.astype(float))
        got = np.array([_trigamma(int(n)) for n in ns])
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_smallest_reachable_radius(self):
        # spacing = pi b exactly takes the closed form at r = 1910, so psi_1
        # is read at its smallest argument, n = 1911
        b = 0.5
        kern = SmoothingKernel("bandlimited", b)
        dx = math.pi * b
        r = math.ceil(kern.effective_radius() / dx)
        assert r == 1910
        full = dx * (float(np.sum(kern.density(np.arange(-r, r + 1) * dx)))
                     - float(kern.density(r * dx)))
        assert _fejer_mass(b, dx, r) == pytest.approx(full, rel=1e-13, abs=0)

    @pytest.mark.parametrize("b,dx", [(1.0, 1e-6), (0.5, 1e-9)])
    def test_radius_beyond_the_grid_budget(self, b, dx):
        # no grid of 2r + 1 > 5e7 nodes could be built; on so fine a lattice
        # the trapezoid mass is the integral (2/pi) [Si(t) - (1 - cos t) / t]
        kern = SmoothingKernel("bandlimited", b)
        r = math.ceil(kern.effective_radius() / dx)
        t = r * dx / b
        integral = 2 / np.pi * (sici(t)[0] - (1 - np.cos(t)) / t)
        assert _fejer_mass(b, dx, r) == pytest.approx(integral, rel=1e-14, abs=0)
        assert kern.grid_function(dx, 1000).grid.n == 2001

    def test_coarse_grid_takes_the_reference_path(self):
        # beyond dx = pi b the kernel is normalised by the full trapezoid sum
        kern = SmoothingKernel("bandlimited", 1.0)
        dx = 0.99 * 2 * np.pi * kern.b
        full = full_radius_kernel(kern, dx)
        r = (full.grid.n - 1) // 2
        taps = kern.grid_function(dx, 100)
        assert taps.grid.n == 201
        assert np.array_equal(taps.values, full.values[r - 100:r + 101])


class TestSmooth:
    @pytest.mark.parametrize("family,b,A", [
        ("gaussian", 0.5, 6.0), ("gaussian", 3.0, 1.0), ("epanechnikov", 0.5, 6.0),
        ("epanechnikov", 3.0, 1.0), ("bandlimited", 0.05, 6.0), ("bandlimited", 0.5, 6.0),
        ("bandlimited", 0.7, 6.0), ("bandlimited", 1.0, 6.0), ("bandlimited", 1.1, 6.0),
    ])
    def test_matches_full_radius_kernel(self, family, b, A):
        # only the taps the convolution reads are sampled; the Gaussian with
        # b = 3 on A = 1 reaches past the x-grid's span
        grid = symmetric_grid(A, 2048)
        x = grid.nodes()
        est = GridFunction(grid, g0_exp(x) + 0.01 * np.sin(17 * x))
        kern = SmoothingKernel(family, b)
        got = smooth(est, kern).values
        full = full_radius_kernel(kern, grid.spacing)
        ref = convolve(est, full).values
        # the closed-form Fejer mass, and an FFT longer by the taps cut off
        # past the grid's span, move the last bits
        if family == "bandlimited" or full.grid.n > 2 * grid.n - 1:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        else:
            assert np.array_equal(got, ref)

    def test_zero_input(self):
        g = symmetric_grid(4.0, 513)
        out = smooth(GridFunction(g, np.zeros(513)), SmoothingKernel("epanechnikov", 0.5))
        assert np.all(out.values == 0)

    @pytest.mark.parametrize("g0", [g0_gauss, g0_exp])
    def test_tiny_bandwidth_approximate_identity(self, g0):
        grid = symmetric_grid(6.0, 2048)
        est = GridFunction(grid, g0(grid.nodes()))
        out = smooth(est, SmoothingKernel("epanechnikov", grid.spacing))
        assert l2_norm(GridFunction(grid, out.values - est.values)) <= 0.05 * l2_norm(est)

    @pytest.mark.parametrize("family,b", [("gaussian", 0.5), ("epanechnikov", 0.5),
                                          ("epanechnikov", 1.0)])
    def test_mass_preservation(self, family, b):
        grid = symmetric_grid(8.0, 2049)
        est = GridFunction(grid, np.exp(-0.5 * grid.nodes() ** 2))
        out = smooth(est, SmoothingKernel(family, b))
        w = trapezoid_weights(grid)
        m_in = float(np.sum(w * est.values))
        m_out = float(np.sum(w * out.values))
        assert abs(m_out - m_in) <= 1e-6 * abs(m_in)

    def test_gaussian_convolution_theorem(self):
        grid = symmetric_grid(8.0, 4097)
        est = GridFunction(grid, g0_gauss(grid.nodes()))
        kern = SmoothingKernel("gaussian", 0.5)
        out = smooth(est, kern)
        u = symmetric_grid(10.0, 801)
        lhs = fourier_forward(out, u).values
        rhs = fourier_forward(est, u).values * kern.fourier(u.nodes())
        assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_spectral_contraction(self):
        grid = symmetric_grid(8.0, 2049)
        est = GridFunction(grid, np.sin(5 * grid.nodes()) * np.exp(-grid.nodes() ** 2))
        kern = SmoothingKernel("gaussian", 0.8)
        u = symmetric_grid(40.0, 4097)
        lhs = l2_norm(fourier_forward(smooth(est, kern), u))
        rhs = l2_norm(fourier_forward(est, u))
        assert lhs <= rhs * (1 + 1e-9)


class TestADelta:
    def test_monotone_in_bandwidth(self):
        vals = [a_delta(b, 1.5, 1.0) for b in (0.5, 0.25, 0.125, 0.0625)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("delta,target", [(1.0, 0.25), (1.5, 0.5), (2.0, 0.75)])
    def test_loglog_slope(self, delta, target):
        bs = np.geomspace(1e-3, 1e-1, 9)
        vals = np.array([a_delta(b, delta, 1.0) for b in bs])
        slope = np.polyfit(np.log(bs), np.log(vals), 1)[0]
        assert slope == pytest.approx(target, abs=0.1)

    def test_critical_delta_exponent(self):
        bs = np.geomspace(1e-3, 1e-1, 9)
        vals = np.array([a_delta(b, 2.5, 1.0) for b in bs])
        slope = np.polyfit(np.log(bs), np.log(vals), 1)[0]
        assert 0.9 <= slope <= 1.1

    @pytest.mark.parametrize("delta", [0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("b", [1e-3, 1.78e-3, 1e-2, 0.1, 0.5, 0.9])
    def test_matches_closed_form(self, b, delta):
        assert a_delta(b, delta, 1.3) == pytest.approx(a_delta_closed_form(b, delta, 1.3),
                                                       rel=1e-10)

    def test_divergent_for_small_delta(self):
        with pytest.raises(DivergentBoundError):
            a_delta(0.1, 0.5, 1.0)

    def test_bandwidth_domain(self):
        with pytest.raises(InvalidInputError):
            a_delta(1.5, 2.0, 1.0)


class TestSelectBandwidth:
    def test_argmin_property(self):
        grid = symmetric_grid(6.0, 1025)
        est = GridFunction(grid, g0_gauss(grid.nodes()) + 0.05 * np.sin(20 * grid.nodes()))
        got = select_bandwidth(est, "epanechnikov")
        # the bandwidths and the u-grid that select_bandwidth searches
        bs = np.geomspace(0.05, 3.0, 50)
        u = symmetric_grid(40.0, 2049)
        spec = fourier_forward(est, u)
        w = trapezoid_weights(u)
        amp2 = np.abs(spec.values) ** 2

        def objective(b):
            kern = SmoothingKernel("epanechnikov", b)
            return np.sqrt(np.sum(w * amp2 * kern.fourier_db(u.nodes()) ** 2))

        obj_at = objective(got)
        assert all(obj_at <= objective(b) + 1e-12 for b in bs)

    def test_pure_oscillation_selects_upper_end(self):
        grid = symmetric_grid(6.0, 1025)
        est = GridFunction(grid, np.sin(30 * grid.nodes()))
        got = select_bandwidth(est, "gaussian")
        assert got == pytest.approx(3.0, rel=1e-9)


class TestTheoremStructure:
    @pytest.mark.parametrize("family,b", [("gaussian", 0.3), ("epanechnikov", 0.3),
                                          ("epanechnikov", 0.6)])
    def test_smoothed_error_decomposition(self, family, b):
        # exact-input plug-in estimate: the smoothed error splits into the
        # damped estimation error plus the Sobolev-weighted bandwidth rate
        from levyfield.model import SimpleKernel
        kernel = SimpleKernel(coeffs=np.array([1.0, 0.1]), offsets=np.array([[0], [1]]))
        h = WeightH(beta=1.0, signed=True)
        grid = symmetric_grid(8.0, 4097)
        truth = GridFunction(grid, g0_gauss(grid.nodes()))
        g1 = forward_g_transform(g0_gauss, kernel, h)
        est = plugin_estimate(g1, kernel, h, 10, grid)
        kern = SmoothingKernel(family, b)
        smoothed = smooth(est, kern)
        lhs = l2_norm(GridFunction(grid, smoothed.values - truth.values))
        est_err = l2_norm(GridFunction(grid, est.values - truth.values))
        w = trapezoid_weights(grid)
        l1 = float(np.sum(w * np.abs(truth.values)))
        delta = 2.0
        # ||F[g0](u) (1 + u^2)^{delta/2}||_2, with |F[g0](u)|^2 = u^2 e^{-u^2}
        sobolev_sq, _ = integrate.quad(lambda u: u * u * np.exp(-u * u) * (1 + u * u) ** delta,
                                       -np.inf, np.inf)
        # sup |F[K_b]| = 1 for a probability density K_b
        _, c1 = check_k3(family)
        rhs = est_err / (2 * np.pi) \
            + np.sqrt(l1) * sobolev_sq ** 0.25 * a_delta(b, delta, c1)
        assert lhs <= rhs

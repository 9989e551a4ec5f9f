import warnings

import numpy as np
import pytest

from levyfield.errors import CoverageError, DivergentBoundError, InvalidInputError
from levyfield.grids import Grid1D, GridFunction, fourier_forward, l2_norm, symmetric_grid, trapezoid_weights
from levyfield.model import (
    field_char_fn,
    field_char_fn_deriv,
    field_moments,
    forward_levy_density,
    fourier_g1_model,
)
from levyfield.simulate import SeedSpec, sample_field
from levyfield.ecf import (
    EcfEstimate,
    calibrate_bound_constant,
    compute_ecf,
    fit_h3,
    fourier_g1_hat,
    g1_hat,
    psi_sq_integral,
    select_cutoff,
    stabilize,
    theorem_bound_g1,
)


class TestComputeEcf:
    def test_degenerate_zero_sample(self):
        grid = symmetric_grid(2.0, 21)
        ecf = compute_ecf(np.zeros(10), grid)
        assert np.all(ecf.psi_hat == 1.0)
        assert np.all(ecf.theta_hat == 0.0)

    def test_single_observation(self):
        grid = symmetric_grid(2.0, 21)
        ecf = compute_ecf(np.array([1.0]), grid)
        u = grid.nodes()
        assert np.allclose(ecf.psi_hat, np.exp(1j * u), atol=1e-12)
        assert np.allclose(ecf.theta_hat, np.exp(1j * u), atol=1e-12)

    def test_two_point_sample(self):
        # Y = {1, -1}: psi = cos u, theta = (e^{iu} - e^{-iu})/2 = i sin u
        grid = symmetric_grid(3.0, 31)
        ecf = compute_ecf(np.array([1.0, -1.0]), grid)
        u = grid.nodes()
        assert np.allclose(ecf.psi_hat, np.cos(u), atol=1e-12)
        assert np.allclose(ecf.theta_hat, 1j * np.sin(u), atol=1e-12)

    def test_exact_center_values(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        grid = symmetric_grid(5.0, 101)
        ecf = compute_ecf(y, grid)
        mid = grid.n // 2
        assert ecf.psi_hat[mid] == 1.0
        assert ecf.theta_hat[mid] == y.mean()

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(1)
        y = rng.exponential(size=300)
        ecf = compute_ecf(y, symmetric_grid(4.0, 81))
        assert np.allclose(ecf.psi_hat, np.conj(ecf.psi_hat[::-1]), atol=1e-13)
        assert np.allclose(ecf.theta_hat, np.conj(ecf.theta_hat[::-1]), atol=1e-13)

    def test_recurrence_matches_direct_exponentials(self):
        from levyfield.ecf import _ecf_sums_direct
        rng = np.random.default_rng(2)
        y = rng.normal(size=500)
        grid = symmetric_grid(np.pi, 257)
        ecf = compute_ecf(y, grid)
        pd, td = _ecf_sums_direct(y, grid.nodes())
        assert np.max(np.abs(ecf.psi_hat - pd)) < 1e-10
        assert np.max(np.abs(ecf.theta_hat - td)) < 1e-10


class TestStabilize:
    def _make(self, psi_abs, n_obs):
        grid = Grid1D(0.0, 1.0, 2)
        psi = np.array([psi_abs + 0j, 1.0 + 0j])
        return EcfEstimate(grid, psi, np.ones(2, dtype=complex), n_obs)

    def test_above_threshold(self):
        ecf = stabilize(self._make(0.5, 100))
        assert ecf.stabilized_recip[0] == pytest.approx(2.0)

    def test_below_threshold_exact_zero(self):
        ecf = stabilize(self._make(0.05, 100))
        assert ecf.stabilized_recip[0] == 0.0

    def test_boundary_is_strict(self):
        ecf = stabilize(self._make(0.1, 100))  # |psi| == N^{-1/2} exactly
        assert ecf.stabilized_recip[0] == 0.0


class TestFourierG1Hat:
    def test_zero_theta(self):
        grid = symmetric_grid(1.0, 11)
        ecf = stabilize(EcfEstimate(grid, np.ones(11, dtype=complex),
                                    np.zeros(11, dtype=complex), 100))
        out = fourier_g1_hat(ecf)
        assert np.all(out.values == 0)

    def test_requires_stabilization(self):
        grid = symmetric_grid(1.0, 11)
        ecf = EcfEstimate(grid, np.ones(11, dtype=complex),
                          np.ones(11, dtype=complex), 100)
        with pytest.raises(InvalidInputError):
            fourier_g1_hat(ecf)

    def test_masked_region_exact_zero(self):
        grid = symmetric_grid(1.0, 11)
        psi = np.ones(11, dtype=complex)
        psi[3] = 0.001
        ecf = stabilize(EcfEstimate(grid, psi, np.ones(11, dtype=complex), 100))
        out = fourier_g1_hat(ecf)
        assert out.values[3] == 0.0
        assert out.values[4] != 0.0

    def test_relation_between_closed_forms(self, bench_kernel, gaussian_law):
        # -i psi'/psi from the model equals F[g1] = F[x v1] by quadrature
        u = Grid1D(-3.0, 3.0, 121)
        lhs = -1j * field_char_fn_deriv(bench_kernel, gaussian_law, u.nodes()) \
            / field_char_fn(bench_kernel, gaussian_law, u.nodes())
        g = Grid1D(-12, 12, 16001)
        v1 = forward_levy_density(bench_kernel, gaussian_law)
        g1 = GridFunction(g, g.nodes() * v1(g.nodes()))
        rhs = fourier_forward(g1, u)
        assert np.max(np.abs(lhs - rhs.values)) < 1e-4

    def test_masking_invariance_of_g1_hat(self):
        # values of psi_hat at masked nodes must not influence the estimate
        grid = symmetric_grid(np.pi, 201)
        rng = np.random.default_rng(3)
        psi = 0.5 * np.exp(1j * rng.normal(size=201))
        theta = rng.normal(size=201) + 1j * rng.normal(size=201)
        masked = rng.random(201) < 0.3
        psi[masked] = 0.001
        base = stabilize(EcfEstimate(grid, psi, theta, 10_000))
        out1, _ = g1_hat(base, 1.0, Grid1D(-2, 2, 101))
        psi2 = psi.copy()
        psi2[masked] = 1e9 * (rng.normal(size=masked.sum()) + 1j)
        # same mask: |psi2| > threshold would change it, so re-mask manually
        recip2 = base.stabilized_recip.copy()
        tampered = EcfEstimate(grid, psi2, theta, 10_000, stabilized_recip=recip2)
        out2, _ = g1_hat(tampered, 1.0, Grid1D(-2, 2, 101))
        assert np.array_equal(out1.values, out2.values)


class TestG1Hat:
    def test_zero_sample(self):
        ecf = stabilize(compute_ecf(np.zeros(100), symmetric_grid(np.pi, 101)))
        out, _ = g1_hat(ecf, 1.0, Grid1D(-2, 2, 51))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_coverage_error(self):
        ecf = stabilize(compute_ecf(np.ones(10), symmetric_grid(1.0, 51)))
        with pytest.raises(CoverageError):
            g1_hat(ecf, 2.0, Grid1D(-1, 1, 21))

    def test_realness_residue(self, bench_kernel, gaussian_law):
        s = sample_field(bench_kernel, gaussian_law, (60, 60), SeedSpec(21))
        ecf = stabilize(compute_ecf(s, symmetric_grid(np.pi, 1025)))
        est, resid = g1_hat(ecf, 1.0, symmetric_grid(6.0, 257))
        assert resid < 1e-10 * max(l2_norm(est), 1e-300)

    def test_monotone_bias_of_band_limit(self, bench_kernel, gaussian_law):
        # ||g1 - g1_l||_2 is nonincreasing in the cutoff, computed spectrally
        def tail_mass(l):
            u = np.linspace(np.pi * l, 200.0, 20_000)
            vals = np.abs(fourier_g1_model(bench_kernel, gaussian_law, u)) ** 2
            return np.trapezoid(vals, u) / np.pi
        biases = [tail_mass(l) for l in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b1 >= b2 for b1, b2 in zip(biases, biases[1:]))


def _g1_error_setup(kernel, law):
    """Shared quantities for the bound tests: exact g1, bias at l=1, norms."""
    x_grid = symmetric_grid(12.0, 4097)
    v1 = forward_levy_density(kernel, law)
    g1_true = GridFunction(x_grid, x_grid.nodes() * v1(x_grid.nodes()))
    from levyfield.grids import fourier_inverse_truncated
    u_grid = symmetric_grid(np.pi, 4097)
    fg1 = GridFunction(u_grid, fourier_g1_model(kernel, law, u_grid.nodes()))
    g1_l, _ = fourier_inverse_truncated(fg1, x_grid)
    bias_sq = l2_norm(GridFunction(x_grid, g1_true.values - g1_l.values)) ** 2
    w = trapezoid_weights(x_grid)
    g1_l1 = float(np.sum(w * np.abs(g1_true.values)))
    return x_grid, u_grid, g1_true, g1_l, bias_sq, g1_l1


class TestBoundMonteCarlo:
    def test_corollary_bound_holds_on_fresh_batch(self, bench_kernel, gaussian_law):
        x_grid, u_grid, g1_true, _, bias_sq, g1_l1 = _g1_error_setup(bench_kernel, gaussian_law)
        psi_fn = lambda u: field_char_fn(bench_kernel, gaussian_law, u)
        m4 = field_moments(bench_kernel, gaussian_law)["fourth"]

        def one_err(rep, seed):
            s = sample_field(bench_kernel, gaussian_law, (100, 100), SeedSpec(seed), rep=rep)
            ecf = stabilize(compute_ecf(s, u_grid))
            est, _ = g1_hat(ecf, 1.0, x_grid)
            return l2_norm(GridFunction(x_grid, est.values - g1_true.values)) ** 2

        pilot = np.array([one_err(r, 555) for r in range(20)])
        K = calibrate_bound_constant(pilot, bias_sq, m4, g1_l1, psi_fn, 1.0, 10_000)
        bound = theorem_bound_g1(bias_sq, m4, g1_l1, psi_fn, 1.0, 10_000, big_k=K)
        fresh = np.array([one_err(r, 777) for r in range(20)])
        assert np.mean(fresh <= bound) >= 0.95
        # Corollary-2 form with fitted envelope constants dominates as well
        diag = fit_h3(psi_fn, u_grid, lambda u: fourier_g1_model(bench_kernel, gaussian_law, u))
        kbar = 2 * np.pi * K * diag.c_psi * (np.sqrt(m4) + g1_l1 ** 2)
        c2 = diag.L / (1 + np.pi ** 2) ** diag.beta + (kbar / 10_000) * (1 + np.pi ** 2) ** diag.beta
        assert np.mean(fresh <= c2) >= 0.95

    def test_error_rate_in_sample_size(self, bench_kernel, gaussian_law):
        # against the band-limited target the error is pure noise ~ N^{-1/2};
        # N = 1e3 vs 1e5 should shrink it by roughly 10
        _, u_grid, _, g1_l, _, _ = _g1_error_setup(bench_kernel, gaussian_law)
        x_grid = g1_l.grid

        def err(side):
            s = sample_field(bench_kernel, gaussian_law, (side, side), SeedSpec(999))
            ecf = stabilize(compute_ecf(s, u_grid))
            est, _ = g1_hat(ecf, 1.0, x_grid)
            return l2_norm(GridFunction(x_grid, est.values - g1_l.values))

        ratio = err(32) / err(316)
        assert 5.0 <= ratio <= 20.0


class TestSelectCutoff:
    def test_beta_zero_degenerate(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = select_cutoff(1.0, 0.0, 1.0, 1.0, 100)
        assert out == 0.05
        assert any("beta" in str(w.message) for w in caught)

    def test_agrees_with_fine_grid_search(self):
        got = select_cutoff(1.0, 1.0, 1.0, 1.0, 10_000)
        ls = np.geomspace(0.05, 50.0, 100_000)
        obj = 1.0 / (1 + (np.pi * ls) ** 2) + (1.0 / 10_000) * ls * (1 + (np.pi * ls) ** 2)
        fine = ls[np.argmin(obj)]
        step = (50.0 / 0.05) ** (1.0 / 999)
        assert fine / step <= got <= fine * step

    def test_nondecreasing_in_sample_size(self):
        sel = [select_cutoff(1.0, 1.0, 1.0, 1.0, n) for n in (100, 1000, 10_000, 100_000)]
        assert all(a <= b for a, b in zip(sel, sel[1:]))


class TestTheoremBound:
    def test_zero_cutoff_is_pure_bias(self):
        psi = lambda u: np.ones_like(u)
        assert theorem_bound_g1(0.37, 1.0, 1.0, psi, 0.0, 100) == 0.37

    def test_doubling_n_halves_variance_term(self):
        psi = lambda u: np.ones_like(u)
        b1 = theorem_bound_g1(0.0, 4.0, 1.0, psi, 1.0, 1000)
        b2 = theorem_bound_g1(0.0, 4.0, 1.0, psi, 1.0, 2000)
        assert b1 == pytest.approx(2 * b2, rel=1e-12)

    def test_vanishing_psi_divergent(self):
        psi = lambda u: np.where(np.abs(u) > 1, 0.0, 1.0)
        with pytest.raises(DivergentBoundError):
            theorem_bound_g1(0.0, 1.0, 1.0, psi, 1.0, 100)

    def test_psi_sq_integral_constant(self):
        val = psi_sq_integral(lambda u: np.full_like(u, 0.5), 1.0)
        assert val == pytest.approx(2 * np.pi / 0.25, rel=1e-9)


class TestFitH3:
    def test_recovers_synthetic_polynomial_envelope(self):
        grid = symmetric_grid(20.0, 2001)
        psi = lambda u: (1 + u ** 2) ** -1.0  # beta = 2, c = C = 1
        fg1 = lambda u: np.exp(-np.abs(u))
        diag = fit_h3(psi, grid, fg1)
        assert diag.beta == pytest.approx(2.0, abs=1e-6)
        assert diag.c_psi == pytest.approx(1.0, abs=1e-6)
        assert diag.C_psi == pytest.approx(1.0, abs=1e-6)
        # L = int e^{-2|u|} (1+u^2)^2 du = 2 (1/2 + 2/4 + 3/4) = 3.5
        assert diag.L == pytest.approx(3.5, rel=1e-3)

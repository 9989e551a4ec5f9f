"""Validation suites: the paper's conditions checked numerically, apart
from the pipelines.  They check the moment rates of the empirical
characteristic function, the smoothing kernels' (K1)-(K3) and bias
rates, the plug-in series on exact input and the structure of the
orthonormal-basis system.

``SUITES`` is the one table of the suites.  It maps each ``levyfield
validate --suite`` name to the options that suite reads and to the
function that runs it.
"""

import warnings

import numpy as np

from . import onb as onb_mod
from .bench import _WEIGHT, g0_model
from .config import ExperimentConfig
from .errors import ConfigError, InvalidInputError
from .grids import GridFunction, _check_budget, l2_norm, symmetric_grid
from .invert import contraction_factor, plugin_estimate
from .model import JumpLaw, SimpleKernel, field_char_fn, field_theta, forward_g_transform
from .simulate import sample_field
from .smooth import SmoothingKernel, a_delta, check_k3, k1_mass_error

__all__ = ["SUITES", "run_suite", "validate_appendix_rates", "validate_kernels",
           "validate_fixed_point", "validate_onb"]


def validate_appendix_rates(cfg: ExperimentConfig, reps: int = 200) -> dict:
    """Monte Carlo rates of the ecf moment bounds on the configured field.

    Estimates E|psi_hat - psi|^2 and E|theta_hat - theta|^4 at u = 1 over
    ``reps`` replications per window, on five windows of growing size in
    the dimension len(window), and fits log-log slopes; the moment bounds
    predict slopes -1 and -2 respectively.  Fewer than one replication raises
    ConfigError, and more than _MAX_CELLS simulated cells over all windows
    and replications raise ResourceLimitError before any is drawn.  A
    moment that is not finite (|theta_hat - theta|^4 overflows for huge
    jumps) raises InvalidInputError before any slope is fitted.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    d = len(cfg.window)
    # windows of about 10^2 .. 10^4 cells in every dimension
    sides = [round(n ** (1 / d)) for n in (100, 316, 1000, 3163, 10000)]
    _check_budget(reps * sum(side ** d for side in sides), "simulated cells")
    if reps < 50:
        warnings.warn(f"{reps} replications is a thin Monte Carlo basis "
                      "for rate fitting (need >= 50)", RuntimeWarning)
    kernel = cfg.kernel_obj()
    law = cfg.law_obj()
    u = 1.0
    seeds = cfg.seed_spec()
    psi_true = complex(field_char_fn(kernel, law, np.array([u]))[0])
    theta_true = complex(field_theta(kernel, law, np.array([u]))[0])
    n_list, e2_psi, e4_theta = [], [], []
    rep_counter = 0
    for side in sides:
        window = (side,) * d
        n_obs = side ** d
        p_errs = np.empty(reps)
        t_errs = np.empty(reps)
        for r in range(reps):
            y = sample_field(kernel, law, window, seeds, rep=rep_counter).flat()
            rep_counter += 1
            ph = np.exp(1j * u * y)
            with np.errstate(over="ignore"):
                p_errs[r] = abs(ph.mean() - psi_true) ** 2
                t_errs[r] = abs((ph * y).mean() - theta_true) ** 4
        for moment, errs in (("E|psi_hat - psi|^2", p_errs), ("E|theta_hat - theta|^4", t_errs)):
            if not np.all(np.isfinite(errs)):
                raise InvalidInputError(f"the moment {moment} at N = {n_obs} is not finite "
                                        f"for the jump law {cfg.jump_law}")
        n_list.append(n_obs)
        e2_psi.append(float(p_errs.mean()))
        e4_theta.append(float(t_errs.mean()))
    logn = np.log(np.asarray(n_list, dtype=float))
    slope_psi = float(np.polyfit(logn, np.log(e2_psi), 1)[0])
    slope_theta = float(np.polyfit(logn, np.log(e4_theta), 1)[0])
    return {
        "n": n_list,
        "mean_sq_psi_err": e2_psi,
        "mean_quart_theta_err": e4_theta,
        "slope_psi": slope_psi,
        "slope_theta": slope_theta,
        "ok": abs(slope_psi + 1.0) <= 0.15 and abs(slope_theta + 2.0) <= 0.2,
    }


def _fit_loglog_slope(fn, bs: np.ndarray) -> float:
    vals = np.array([fn(b) for b in bs])
    return float(np.polyfit(np.log(bs), np.log(vals), 1)[0])


def validate_kernels() -> dict:
    """(K1)-(K3) numeric checks for the three kernel families plus the
    bandwidth-rate exponents of the bias term."""
    checks = []
    for family in ("gaussian", "epanechnikov", "bandlimited"):
        for b in (0.25, 0.5, 1.0):
            checks.append((f"K1 mass {family} b={b}", k1_mass_error(family, b) <= 1e-8))
        x = np.linspace(-300, 300, 4001)
        sup = max(float(np.max(np.abs(SmoothingKernel(family, b).fourier(x))))
                  for b in (0.1, 0.5, 1.0, 2.0))
        checks.append((f"K2 sup|F K_b| {family}", sup <= 1.0 + 1e-10))
        holds, c1 = check_k3(family)
        checks.append((f"K3 finite c1 {family} (c1={c1:.4g})", holds))
        if family == "gaussian":
            checks.append((f"K3 c1 gaussian <= 2 (c1={c1:.4g})", c1 <= 2.0))
        if family == "bandlimited":
            checks.append((f"K3 c1 bandlimited <= max(1, L)=1 (c1={c1:.4g})",
                           c1 <= 1.0 + 1e-9))
    bs = np.geomspace(1e-3, 1e-1, 9)
    for delta in (1.0, 1.5, 2.0):
        slope = _fit_loglog_slope(lambda b: a_delta(b, delta, 1.0), bs)
        target = min(1.0, (2 * delta - 1) / 4)
        checks.append((f"a_delta slope delta={delta} ({slope:.3f} vs {target})",
                       abs(slope - target) <= 0.1))
    slope = _fit_loglog_slope(lambda b: a_delta(b, 2.5, 1.0), bs)
    checks.append((f"a_delta exponent delta=5/2 ({slope:.3f})", 0.9 <= slope <= 1.1))
    return {"checks": checks, "ok": all(ok for _, ok in checks)}


def validate_fixed_point() -> dict:
    """Exact-input oracle for the truncated plug-in series.

    With exact g1 = Forward(g0), kernel (1.0, 0.1) and depth 10, the
    series output must match g0 up to the geometric tail, and pushing the
    output through the forward operator must reproduce g1 at the same
    tolerance.
    """
    kernel = SimpleKernel(coeffs=np.array([1.0, 0.1]), offsets=np.array([[0], [1]]))
    h = _WEIGHT
    law = JumpLaw.gaussian()
    g0 = g0_model(law)
    g1 = forward_g_transform(g0, kernel, h)
    report = contraction_factor(kernel, h)
    e = report.e_factor
    n_trunc = 10
    grid = symmetric_grid(8.0, 4097)
    est = plugin_estimate(g1, kernel, h, n_trunc, grid)
    g0_ref = GridFunction(grid, g0(grid.nodes()))
    rel_err = l2_norm(GridFunction(grid, est.values - g0_ref.values)) / l2_norm(g0_ref)
    tol = e ** (n_trunc + 1) / (1 - e) + 2e-3
    fwd = forward_g_transform(est, kernel, h)
    g1_ref = GridFunction(grid, g1(grid.nodes()))
    resid = l2_norm(GridFunction(grid, fwd(grid.nodes()) - g1_ref.values)) / l2_norm(g1_ref)
    checks = [
        (f"contraction e = {e:.4f} < 1", e < 1.0),
        (f"relative L2 error {rel_err:.3e} <= {tol:.3e}", rel_err <= tol),
        (f"forward residual {resid:.3e} <= {tol:.3e}", resid <= tol),
    ]
    return {"checks": checks, "ok": all(ok for _, ok in checks),
            "e": e, "rel_err": rel_err, "residual": resid, "tol": tol}


def validate_onb() -> dict:
    """Structural suite for the orthonormal-basis machinery with the
    benchmark kernel, weight and Haar basis of the default config."""
    cfg = ExperimentConfig()
    kernel, h, m = cfg.kernel_obj(), _WEIGHT, cfg.m
    basis = onb_mod.HaarBasis(cfg.A, m)
    system = onb_mod.build_eta(basis, kernel, h)
    dx = basis.dx
    E = system.e_values
    gram = E @ E.T * dx
    ortho = float(np.max(np.abs(gram - np.eye(m))))
    tri = float(max(np.max(np.abs(np.tril(system.mix, -1))), 0.0))
    bound = system.n1 / abs(system.pivot_value) * (1 - system.e_contraction) - 1e-8
    diag_ok = bool(np.all(np.diag(system.mix) >= bound))
    # in-span recovery from exact forward data
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=m)
    g0 = lambda x: basis.combine(coeffs, basis.values(x))
    g1 = forward_g_transform(g0, kernel, h)
    yhat = onb_mod.project_g1bar(g1, system)
    xhat = onb_mod.solve_coefficients(yhat, system)
    inspan = float(np.max(np.abs(xhat - coeffs)))
    # triangular solve round-trip on the system matrix
    x_ref = rng.normal(size=m)
    y_ref = system.mix @ x_ref
    x_back = onb_mod.solve_coefficients(y_ref, system)
    solve_rt = float(np.max(np.abs(x_back - x_ref)))
    checks = [
        (f"orthonormality {ortho:.2e} <= 1e-10", ortho <= 1e-10),
        (f"triangularity {tri:.2e} <= 1e-10", tri <= 1e-10),
        (f"diagonal lower bound ({bound:.4g})", diag_ok),
        (f"in-span recovery {inspan:.2e} <= 1e-8", inspan <= 1e-8),
        (f"triangular solve round-trip {solve_rt:.2e} <= 1e-12", solve_rt <= 1e-12),
    ]
    return {"checks": checks, "ok": all(ok for _, ok in checks)}


def _rates_report(config=None, reps=None) -> tuple[list[str], bool]:
    cfg = ExperimentConfig() if config is None else ExperimentConfig.from_json(config)
    rep = validate_appendix_rates(cfg, reps=200 if reps is None else reps)
    rows = zip(rep["n"], rep["mean_sq_psi_err"], rep["mean_quart_theta_err"])
    return [f"{'N':>8s} {'E|psi_err|^2':>14s} {'E|theta_err|^4':>16s}",
            *(f"{n:8d} {e2:14.4e} {e4:16.4e}" for n, e2, e4 in rows),
            f"slope E|psi_hat-psi|^2 : {rep['slope_psi']:+.3f} (target -1 +- 0.15)",
            f"slope E|theta_hat-theta|^4 : {rep['slope_theta']:+.3f} (target -2 +- 0.2)",
            "PASS" if rep["ok"] else "FAIL"], rep["ok"]


def _checks_report(rep: dict) -> tuple[list[str], bool]:
    return [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in rep["checks"]], rep["ok"]


# --suite name -> (the options the suite reads, the suite as a function of
# them that returns its report lines and whether it passed)
SUITES = {
    "appendix-rates": (("config", "reps"), _rates_report),
    "kernels": ((), lambda: _checks_report(validate_kernels())),
    "fixed-point": ((), lambda: _checks_report(validate_fixed_point())),
    "onb": ((), lambda: _checks_report(validate_onb())),
}


def run_suite(name: str, **options) -> tuple[list[str], bool]:
    """The report lines of suite ``name`` and whether it passed.  An
    option that is not None raises ConfigError if the suite does not read it."""
    reads, suite = SUITES[name]
    unread = [f"--{opt}" for opt, value in options.items()
              if value is not None and opt not in reads]
    if unread:
        raise ConfigError(f"the {name} suite reads no {' or '.join(unread)}")
    return suite(**{opt: options[opt] for opt in reads})

"""Experiment harness: the three estimation pipelines end to end, Monte
Carlo MSE batches, validation suites and file outputs.

A pipeline run is

    simulate -> empirical characteristic function -> spectral g1 estimate
    -> method-specific inversion (plugin | fourier | onb) -> smoothing
    -> MSE against the true g0 = x v0 on the x-grid restricted to [-A, A].

Each stage consumes and produces only the declared types; setting
``oracle_g1`` in the config replaces the estimated g1 (or its Fourier
transform) by the exact model quantity, which isolates the inversion
stages from the estimation error.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import onb as onb_mod
from .config import ExperimentConfig
from .ecf import compute_ecf, fourier_g1_hat, g1_hat_at, stabilize
from .errors import ConfigError, LevyFieldError
from .grids import GridFunction, l2_norm, symmetric_grid
from .invert import contraction_factor, fourier_estimate, plugin_estimate
from .model import (
    JumpLaw,
    SimpleKernel,
    WeightH,
    field_char_fn,
    field_theta,
    forward_g_transform,
    forward_levy_density,
    fourier_g1_model,
)
from .simulate import sample_field
from .smooth import SmoothingKernel, a_delta, check_k3, k1_mass_error, select_bandwidth, smooth

__all__ = [
    "BenchResult",
    "PipelineOutput",
    "run_pipeline",
    "run_bench",
    "emit_results_csv",
    "emit_estimate_csv",
    "emit_manifest",
    "validate_appendix_rates",
    "validate_kernels",
    "validate_fixed_point",
    "validate_onb",
]

_N_U = 4097


def g0_model(law: JumpLaw):
    """True weighted density g0(x) = x v0(x)."""
    return lambda x: np.asarray(x, dtype=float) * law.pdf(x)


def g1_model(kernel: SimpleKernel, law: JumpLaw):
    """True field-side weighted density g1(x) = x v1(x)."""
    v1 = forward_levy_density(kernel, law)
    return lambda x: np.asarray(x, dtype=float) * v1(x)


@contextmanager
def _stage(name: str):
    try:
        yield
    except LevyFieldError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


@dataclass(frozen=True)
class PipelineOutput:
    estimate: GridFunction
    truth: GridFunction
    mse: float
    runtime_s: float


@dataclass(frozen=True)
class BenchResult:
    method: str
    law: str
    mses: np.ndarray = field(repr=False)
    runtimes: np.ndarray = field(repr=False)

    @property
    def mean(self) -> float:
        return float(np.mean(self.mses))

    @property
    def sd(self) -> float:
        return float(np.std(self.mses, ddof=1)) if len(self.mses) > 1 else 0.0


def run_pipeline(cfg: ExperimentConfig, rep: int, sample=None) -> PipelineOutput:
    """One replication of the configured estimation pipeline.

    A pre-drawn ``sample`` (GridSample) skips the simulation stage; this
    is how the estimate subcommand consumes sample files.
    """
    t0 = time.perf_counter()
    kernel = cfg.kernel_obj()
    law = cfg.law_obj()
    if int(cfg.beta) != 1:
        raise ConfigError(
            "pipelines estimate g = x v (weight x^1); general beta is "
            "available on the library surface only"
        )
    h = cfg.weight_obj()
    mse_grid = symmetric_grid(cfg.A, cfg.grid_points)
    u_grid = symmetric_grid(np.pi * cfg.l, _N_U)

    if cfg.oracle_g1:
        g1_call = g1_model(kernel, law)
        fg1 = GridFunction(u_grid, fourier_g1_model(kernel, law, u_grid.nodes()))
    else:
        if sample is None:
            with _stage("simulate"):
                sample = sample_field(kernel, law, tuple(cfg.window), cfg.seed_spec(),
                                      rep=rep, mesh=cfg.mesh)
        with _stage("ecf"):
            ecf = stabilize(compute_ecf(sample, u_grid))
            fg1 = fourier_g1_hat(ecf)

            def g1_call(pts, _ecf=ecf, _l=cfg.l):
                return g1_hat_at(_ecf, _l, pts)

    with _stage(cfg.method):
        if cfg.method == "plugin":
            est = plugin_estimate(g1_call, kernel, h, int(cfg.n_N), mse_grid)
        elif cfg.method == "fourier":
            est = fourier_estimate(fg1, kernel, int(cfg.beta), int(cfg.n_N),
                                   cfg.l, mse_grid)
        else:
            basis = onb_mod.HaarBasis(cfg.A, int(cfg.haar_levels), int(cfg.m))
            system = onb_mod.build_eta(basis, kernel, h)
            yhat = onb_mod.project_g1bar(g1_call, system)
            xhat = onb_mod.solve_coefficients(yhat, system)
            est = onb_mod.onb_estimate(xhat, basis, mse_grid)

    with _stage("smooth"):
        b = cfg.bandwidth
        if b == "auto":
            b = select_bandwidth(est, cfg.smooth_family)
        est = smooth(est, SmoothingKernel(cfg.smooth_family, float(b)))

    with _stage("mse"):
        truth = GridFunction(mse_grid, g0_model(law)(mse_grid.nodes()))
        mse = l2_norm(GridFunction(mse_grid, est.values - truth.values)) ** 2

    return PipelineOutput(estimate=est, truth=truth, mse=float(mse),
                          runtime_s=time.perf_counter() - t0)


def run_bench(cfg: ExperimentConfig, workers: int = 1,
              keep_estimates: bool = False):
    """All replications of the configured pipeline.

    Replications carry independent seed substreams, so the result is
    bit-identical for any worker count; outputs are ordered by
    replication index.
    """
    reps = int(cfg.reps)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(lambda r: run_pipeline(cfg, r), range(reps)))
    else:
        outputs = [run_pipeline(cfg, r) for r in range(reps)]
    result = BenchResult(
        method=cfg.method,
        law=cfg.jump_law["kind"],
        mses=np.array([o.mse for o in outputs]),
        runtimes=np.array([o.runtime_s for o in outputs]),
    )
    return (result, outputs) if keep_estimates else (result, None)


# ---------------------------------------------------------------------------
# outputs


def emit_results_csv(path, results: list[BenchResult]) -> None:
    """`method,law,rep,mse,runtime_s`, replications in index order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "law", "rep", "mse", "runtime_s"])
        for res in results:
            for rep, (mse, rt) in enumerate(zip(res.mses, res.runtimes)):
                writer.writerow([res.method, res.law, rep, repr(float(mse)),
                                 repr(float(rt))])


def emit_estimate_csv(path, estimate: GridFunction,
                      truth: GridFunction | None = None) -> None:
    """`x,g0_true,g0_hat` (the truth column requires a known law)."""
    x = estimate.grid.nodes()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if truth is not None:
            writer.writerow(["x", "g0_true", "g0_hat"])
            for xi, ti, vi in zip(x, truth.values, estimate.values):
                writer.writerow([repr(float(xi)), repr(float(ti)), repr(float(vi))])
        else:
            writer.writerow(["x", "g0_hat"])
            for xi, vi in zip(x, estimate.values):
                writer.writerow([repr(float(xi)), repr(float(vi))])


def emit_manifest(path, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    doc = {
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "content_hash": cfg.content_hash(),
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# validation suites


def validate_appendix_rates(cfg: ExperimentConfig, sides: list[int] | None = None,
                            reps: int = 200, u: float = 1.0) -> dict:
    """Monte Carlo rates of the ecf moment bounds on the configured field.

    Estimates E|psi_hat - psi|^2 and E|theta_hat - theta|^4 at a fixed
    frequency over windows of growing size and fits log-log slopes; the
    moment bounds predict slopes -1 and -2 respectively.
    """
    if reps < 50:
        warnings.warn(f"{reps} replications is a thin Monte Carlo basis "
                      "for rate fitting (need >= 50)", RuntimeWarning)
    kernel = cfg.kernel_obj()
    law = cfg.law_obj()
    d = int(cfg.d)
    if sides is None:
        sides = [10, 18, 32, 56, 100] if d == 2 else [100, 316, 1000, 3163, 10000]
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
            p_errs[r] = abs(ph.mean() - psi_true) ** 2
            t_errs[r] = abs((ph * y).mean() - theta_true) ** 4
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
    h = WeightH(beta=1.0, signed=True)
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


def validate_onb(A: float = 6.0, levels: int = 2, m: int = 7) -> dict:
    """Structural suite for the orthonormal-basis machinery with the
    benchmark kernel."""
    kernel = SimpleKernel(coeffs=np.array([1.3, 0.2, 0.1, 0.1]),
                          offsets=np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
    h = WeightH(beta=1.0, signed=True)
    basis = onb_mod.HaarBasis(A, levels, m)
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
    g0 = lambda x: basis.combine(coeffs, x)
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

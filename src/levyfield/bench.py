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

The three methods share the work before the inversion.  A simulated
sample depends only on the kernel, the jump law, the window, the mesh,
the master seed and the replication, and its stabilised ECF only on that
sample and the u-grid.  The last sample and the last ECF are kept, one
of each, and handed to the next call of another method whose inputs are
the same.  So consecutive calls for the methods of one (law,
replication) simulate once, and plug-in and Fourier on one u-grid
(:func:`_u_grid`) compute one ECF.  A call given its own ``sample``
neither reads nor fills these entries.

What depends on the config alone is kept by the function that computes
it, by the rule of :func:`grids._kept`; each call still computes afresh
what depends on its sample or its estimate, and still gives every warning
and refusal of its inputs.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import onb as onb_mod
from .config import ExperimentConfig
from .ecf import EcfEstimate, compute_ecf, fourier_g1_hat, g1_hat_at, stabilize
from .errors import ConfigError, InvalidInputError, LevyFieldError
from .grids import Grid1D, GridFunction, _check_budget, _freeze, _kept, l2_norm, symmetric_grid
from .invert import build_series_plan, contraction_factor, fourier_estimate, plugin_estimate
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
from .simulate import _repr_rows, sample_field
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
# h(x) = x: every pipeline estimates g0 = x v0
_WEIGHT = WeightH(beta=1.0, signed=True)


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
    """One replication's estimate, the truth and their squared L2
    distance.  ``runtime_s`` is the call's wall time, which includes the
    simulation and the ECF only when this call computed them, not when it
    took them over from the previous call, and the config-only setup only
    in the first call of a config (see the module docstring)."""

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
    setup = _config_setup(_json_key(*(getattr(cfg, name) for name in _SETUP_FIELDS)),
                          cfg.grid_points)
    kernel, law, mse_grid, u_grid = setup.kernel, setup.law, setup.truth.grid, setup.u_grid

    if cfg.oracle_g1:
        g1_call = g1_model(kernel, law)
    else:
        ecf = _stabilized_ecf(cfg, rep, sample, setup)

        def g1_call(pts, _ecf=ecf, _l=cfg.l):
            return g1_hat_at(_ecf, _l, pts)

    with _stage(cfg.method):
        if cfg.method == "plugin":
            est = plugin_estimate(g1_call, kernel, _WEIGHT, int(cfg.n_N), mse_grid)
        elif cfg.method == "fourier":
            if cfg.oracle_g1:
                fg1 = GridFunction(u_grid, fourier_g1_model(kernel, law, u_grid.nodes()))
            else:
                fg1 = fourier_g1_hat(ecf)
            est = fourier_estimate(fg1, kernel, _WEIGHT.beta, int(cfg.n_N),
                                   cfg.l, mse_grid)
        else:
            basis = onb_mod.HaarBasis(cfg.A, int(cfg.m))
            system = onb_mod.build_eta(basis, kernel, _WEIGHT)
            yhat = onb_mod.project_g1bar(g1_call, system)
            xhat = onb_mod.solve_coefficients(yhat, system)
            est = onb_mod.onb_estimate(xhat, basis, mse_grid)

    with _stage("smooth"):
        b = cfg.bandwidth
        if b == "auto":
            b = select_bandwidth(est, cfg.smooth_family)
        est = smooth(est, SmoothingKernel(cfg.smooth_family, float(b)))

    truth = setup.truth
    with _stage("mse"), np.errstate(over="ignore"):
        mse = l2_norm(GridFunction(mse_grid, est.values - truth.values)) ** 2
        if not math.isfinite(mse):
            raise InvalidInputError(f"the squared L2 error {mse} is not finite")

    return PipelineOutput(estimate=est, truth=truth, mse=float(mse),
                          runtime_s=time.perf_counter() - t0)


@dataclass(frozen=True)
class _Setup:
    """What a pipeline call derives from its config alone: the kernel and
    jump law objects, the true g0 on the x-grid and the ECF's u-grid."""

    kernel: SimpleKernel
    law: JumpLaw
    truth: GridFunction
    u_grid: Grid1D


_SETUP_FIELDS = ("kernel", "jump_law", "A", "method", "l", "n_N")


@_kept(lambda key, grid_points: grid_points)
def _config_setup(key: str, grid_points: int) -> _Setup:
    """The setup built from ``key``, the JSON of a config's _SETUP_FIELDS,
    and ``grid_points``, and from nothing else."""
    cfg = SimpleNamespace(grid_points=grid_points,
                          **dict(zip(_SETUP_FIELDS, json.loads(key))))
    kernel = ExperimentConfig.kernel_obj(cfg)
    law = ExperimentConfig.law_obj(cfg)
    x_grid = symmetric_grid(cfg.A, cfg.grid_points)
    with _stage(cfg.method):
        u_grid = _u_grid(cfg, kernel)
    with _stage("mse"), np.errstate(over="ignore"):
        truth = GridFunction(x_grid, g0_model(law)(x_grid.nodes()))
    return _Setup(kernel=kernel, law=law, truth=truth, u_grid=u_grid)


def _u_grid(cfg: ExperimentConfig, kernel: SimpleKernel) -> Grid1D:
    """The ECF's u-grid, the pipeline's only one: _N_U nodes on [-pi l, pi l],
    where every method reads it.  The Fourier method's grid keeps that spacing
    out to pi l / min(1, min|scale|), the largest argument at which
    :func:`invert.fourier_estimate` reads F[g1]."""
    half = n_half = _N_U // 2
    if cfg.method == "fourier":
        rows = build_series_plan(kernel, _WEIGHT, int(cfg.n_N)).grouped_terms()
        n_half = half / min(1.0, *(abs(scale) for scale, _ in rows))
        _check_budget(2 * n_half + 1, "u-grid nodes")
        n_half = math.ceil(n_half)
    return symmetric_grid(np.pi * cfg.l * (n_half / half), 2 * n_half + 1)


class _LastValue:
    """The value computed for the last key, handed to each method at most
    once.  Methods of one replication that run back to back share it; a
    call that repeats a method computes afresh, so a repeated call checks
    and times the whole pipeline.  The entry is one (key, value, methods)
    tuple, replaced whole, so a concurrent reader sees a key with its own
    value or a miss."""

    def __init__(self):
        self.entry = (None, None, frozenset())

    def get(self, key, method: str, compute):
        last_key, value, served = self.entry
        if last_key != key or method in served:
            value, served = compute(), frozenset()
        self.entry = (key, value, served | {method})
        return value


_last_sample = _LastValue()
_last_ecf = _LastValue()


def _json_key(*fields) -> str:
    """Config fields as one JSON string, a cache key."""
    return json.dumps(fields, sort_keys=True, default=lambda a: np.asarray(a).tolist())


def _sample_key(cfg: ExperimentConfig, rep: int) -> str:
    """Every input of the simulated sample of replication ``rep``, as JSON."""
    return _json_key(cfg.kernel["coeffs"], cfg.kernel["offsets"], cfg.jump_law,
                     cfg.window, cfg.mesh, cfg.master_seed, rep)


def _stabilized_ecf(cfg: ExperimentConfig, rep: int, sample, setup: _Setup) -> EcfEstimate:
    """Stabilised ECF of ``sample`` on the setup's u-grid, with read-only arrays.

    Without a sample, the replication is simulated; that sample and its
    ECF are taken over from the previous call when their inputs match."""

    def ecf_of(smp):
        with _stage("ecf"):
            return _freeze(stabilize(compute_ecf(smp, setup.u_grid)))

    if sample is not None:
        return ecf_of(sample)

    def simulate():
        with _stage("simulate"):
            return sample_field(setup.kernel, setup.law, tuple(cfg.window),
                                cfg.seed_spec(), rep=rep, mesh=cfg.mesh)

    key = _sample_key(cfg, rep)
    return _last_ecf.get((key, setup.u_grid), cfg.method,
                         lambda: ecf_of(_last_sample.get(key, cfg.method, simulate)))


def run_bench(cfg: ExperimentConfig, workers: int = 1):
    """All replications of the configured pipeline: the BenchResult and
    the PipelineOutputs, ordered by replication index.

    Replications carry independent seed substreams, so the result is
    bit-identical for any worker count.  A worker count below 1 raises
    ConfigError.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    reps = int(cfg.reps)
    # each output holds an estimate and the truth on the x-grid
    _check_budget(2 * reps * int(cfg.grid_points), "estimate and truth values")
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
    return result, outputs


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


def emit_estimate_csv(path, estimate: GridFunction, truth: GridFunction) -> None:
    """`x,g0_true,g0_hat` on the estimate's grid, in csv.writer's format:
    the repr of each value, lines ended by CRLF.  All rows are formatted
    at once, through one %-template filled with the interleaved columns."""
    columns = (estimate.grid.nodes().tolist(), truth.values.tolist(), estimate.values.tolist())
    values = [None] * (3 * len(columns[0]))
    values[0::3], values[1::3], values[2::3] = columns
    with open(path, "w", newline="") as fh:
        fh.write("x,g0_true,g0_hat\r\n")
        fh.write(_repr_rows("", ["%r,%r,%r"] * len(columns[0]), values))


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

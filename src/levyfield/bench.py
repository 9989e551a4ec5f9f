"""Experiment harness: the three estimation pipelines end to end, Monte
Carlo MSE batches and file outputs.

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
from .invert import build_series_plan, fourier_estimate, plugin_estimate
from .model import JumpLaw, SimpleKernel, WeightH, forward_levy_density, fourier_g1_model
from .simulate import _repr_rows, sample_field
from .smooth import SmoothingKernel, select_bandwidth, smooth

__all__ = [
    "BenchResult",
    "PipelineOutput",
    "run_pipeline",
    "run_bench",
    "emit_results_csv",
    "emit_estimate_csv",
    "emit_manifest",
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

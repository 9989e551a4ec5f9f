"""Empirical characteristic function machinery and the spectral cutoff
estimator of the weighted field density g1 = x v1.

The estimation chain is

    psi_hat(u)  = (1/N) sum_j exp(i u Y_j)
    theta_hat(u)= (1/N) sum_j Y_j exp(i u Y_j)
    1/psi_tilde = (1/psi_hat) 1{|psi_hat| > N^{-1/2}}      (stabiliser)
    Fg1_hat     = theta_hat / psi_tilde
    g1_hat(x)   = (1/2pi) integral_{-pi l}^{pi l} e^{-ixu} Fg1_hat(u) du.

Note on the third line: theta_hat estimates E[Y e^{iuY}] = psi(u) F[g1](u),
so the consistent spectral estimator is theta_hat / psi_tilde with no
additional phase factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CoverageError, DivergentBoundError, InvalidInputError
from .grids import (
    Grid1D,
    GridFunction,
    fourier_inverse_truncated,
    inverse_transform_at,
    symmetric_grid,
    trapezoid_weights,
)
from .simulate import GridSample

__all__ = [
    "EcfEstimate",
    "H3Diagnostics",
    "compute_ecf",
    "stabilize",
    "fourier_g1_hat",
    "g1_hat",
    "g1_hat_at",
    "select_cutoff",
    "theorem_bound_g1",
    "psi_sq_integral",
    "fit_h3",
    "calibrate_bound_constant",
]


@dataclass(frozen=True)
class EcfEstimate:
    """Empirical characteristic data on a u-grid."""

    u_grid: Grid1D
    psi_hat: np.ndarray = field(repr=False)
    theta_hat: np.ndarray = field(repr=False)
    n_obs: int
    stabilized_recip: np.ndarray | None = field(default=None, repr=False)


def _ecf_sums_direct(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    psi = np.empty(len(u), dtype=complex)
    theta = np.empty(len(u), dtype=complex)
    chunk = max(1, int(4e6 // max(len(y), 1)))
    for start in range(0, len(u), chunk):
        ub = u[start:start + chunk]
        ph = np.exp(1j * np.outer(ub, y))
        psi[start:start + chunk] = ph.mean(axis=1)
        theta[start:start + chunk] = (ph * y).mean(axis=1)
    return psi, theta


def _ecf_sums(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase recurrence along a uniform u-grid: e^{iu_{k+1}y} = e^{iu_k y} e^{i du y}.

    One complex multiply per node replaces one exponential; the drift after
    n steps is ~n*eps, far below the statistical resolution of the sums.
    Falls back to direct exponentials on non-uniform grids.
    """
    if len(u) < 8 or np.max(np.abs(np.diff(u) - (u[1] - u[0]))) > 1e-12 * abs(u[1] - u[0]):
        return _ecf_sums_direct(y, u)
    n = len(y)
    base = np.exp(1j * (u[1] - u[0]) * y)
    row = np.exp(1j * u[0] * y)
    yc = y.astype(complex)
    psi = np.empty(len(u), dtype=complex)
    theta = np.empty(len(u), dtype=complex)
    for k in range(len(u)):
        # plain pairwise sums so that the u = 0 node reproduces the sample
        # mean bit-exactly (row is exactly one there)
        psi[k] = row.sum() / n
        theta[k] = (row * yc).sum() / n
        if k + 1 < len(u):
            row *= base
    return psi, theta


def compute_ecf(sample: GridSample | np.ndarray, u_grid: Grid1D) -> EcfEstimate:
    """Exact empirical sums of e^{iuY} and Y e^{iuY} over the sample.

    Hermitian symmetry psi_hat(-u) = conj(psi_hat(u)) is used to halve the
    work on symmetric grids with a central node.
    """
    y = sample.flat() if isinstance(sample, GridSample) else np.asarray(sample, dtype=float).reshape(-1)
    if len(y) < 1:
        raise InvalidInputError("need at least one observation")
    u = u_grid.nodes()
    if u_grid.is_symmetric() and u_grid.n % 2 == 1:
        half = u[u_grid.n // 2:]
        psi_h, theta_h = _ecf_sums(y, half)
        psi = np.concatenate([np.conj(psi_h[:0:-1]), psi_h])
        theta = np.concatenate([np.conj(theta_h[:0:-1]), theta_h])
    else:
        psi, theta = _ecf_sums(y, u)
    # at u = 0 the sums reduce to 1 and the sample mean; evaluate them as such
    at_zero = u == 0.0
    psi[at_zero] = 1.0
    theta[at_zero] = complex(y.mean())
    return EcfEstimate(u_grid, psi, theta, len(y))


def stabilize(ecf: EcfEstimate) -> EcfEstimate:
    """Fill the stabilised reciprocal: 1/psi_hat where |psi_hat| exceeds
    N^{-1/2} strictly, exact 0 elsewhere."""
    thresh = ecf.n_obs ** -0.5
    mask = np.abs(ecf.psi_hat) > thresh
    recip = np.zeros(len(ecf.psi_hat), dtype=complex)
    recip[mask] = 1.0 / ecf.psi_hat[mask]
    return replace(ecf, stabilized_recip=recip)


def fourier_g1_hat(ecf: EcfEstimate) -> GridFunction:
    """Estimator of F[g1]: theta_hat times the stabilised reciprocal."""
    if ecf.stabilized_recip is None:
        raise InvalidInputError("call stabilize() before fourier_g1_hat")
    return GridFunction(ecf.u_grid, ecf.theta_hat * ecf.stabilized_recip)


def _restrict_symmetric(F: GridFunction, cutoff: float) -> GridFunction:
    g = F.grid
    if g.hi < cutoff * (1 - 1e-9):
        raise CoverageError(
            f"u-grid reaches only {g.hi:.6g}, below the requested cutoff {cutoff:.6g}"
        )
    u = g.nodes()
    mask = np.abs(u) <= cutoff * (1 + 1e-12)
    sel = np.where(mask)[0]
    sub = Grid1D(u[sel[0]], u[sel[-1]], len(sel))
    return GridFunction(sub, F.values[sel])


def g1_hat(ecf: EcfEstimate, l: float, x_grid: Grid1D) -> tuple[GridFunction, float]:
    """Cutoff estimator of g1 on x_grid, plus the imaginary residue."""
    if l <= 0:
        raise InvalidInputError("cutoff l must be positive")
    F = _restrict_symmetric(fourier_g1_hat(ecf), np.pi * l)
    return fourier_inverse_truncated(F, x_grid)


def g1_hat_at(ecf: EcfEstimate, l: float, points: np.ndarray) -> np.ndarray:
    """Cutoff estimator of g1 evaluated at arbitrary points."""
    if l <= 0:
        raise InvalidInputError("cutoff l must be positive")
    F = _restrict_symmetric(fourier_g1_hat(ecf), np.pi * l)
    return inverse_transform_at(F, points)


def select_cutoff(L: float, beta: float, c_psi: float, kbar: float, n_obs: int,
                  l_min: float = 0.05, l_max: float = 50.0,
                  n_points: int = 1000) -> float:
    """Grid-search minimiser of the spectral risk bound

        L / (1 + (pi l)^2)^beta + (kbar / N) l (1 + (pi l)^2)^beta

    over log-spaced l in [l_min, l_max].  ``c_psi`` is the fitted envelope
    constant; it already enters kbar and is only validated here."""
    if L <= 0 or kbar <= 0 or n_obs < 1 or c_psi <= 0:
        raise InvalidInputError("select_cutoff needs L, c_psi, kbar > 0 and N >= 1")
    if beta == 0:
        warnings.warn("beta = 0 makes the bias term constant; returning l_min",
                      RuntimeWarning)
        return float(l_min)
    ls = np.geomspace(l_min, l_max, n_points)
    obj = L / (1 + (np.pi * ls) ** 2) ** beta + (kbar / n_obs) * ls * (1 + (np.pi * ls) ** 2) ** beta
    return float(ls[int(np.argmin(obj))])


def psi_sq_integral(psi_fn, l: float, n_points: int = 4097) -> float:
    """integral_{-pi l}^{pi l} du / |psi(u)|^2 by trapezoid quadrature."""
    g = symmetric_grid(np.pi * l, n_points)
    vals = np.abs(np.asarray(psi_fn(g.nodes())))
    if np.any(vals < 1e-12):
        raise DivergentBoundError("|psi| vanishes on the integration grid")
    return float(np.sum(trapezoid_weights(g) / vals ** 2))


def theorem_bound_g1(bias_sq: float, fourth_moment: float, g1_l1: float,
                     psi_fn, l: float, n_obs: int, big_k: float = 1.0) -> float:
    """Upper bound for E||g1 - g1_hat||_2^2:

        bias_sq + (K/N)(sqrt(E|Y|^4) + ||g1||_1^2) integral du/|psi|^2.

    K is an existential constant; calibrate it with
    :func:`calibrate_bound_constant` when a pilot batch is available.
    """
    for name, v in (("bias_sq", bias_sq), ("fourth_moment", fourth_moment),
                    ("g1_l1", g1_l1), ("big_k", big_k)):
        if not np.isfinite(v) or v < 0 or (name == "big_k" and v == 0):
            raise InvalidInputError(f"{name} must be finite and positive")
    if l == 0:
        return float(bias_sq)
    integral = psi_sq_integral(psi_fn, l)
    return float(bias_sq + (big_k / n_obs) * (np.sqrt(fourth_moment) + g1_l1 ** 2) * integral)


@dataclass(frozen=True)
class H3Diagnostics:
    """Fitted polynomial-envelope constants for |psi| and the Sobolev mass
    of g1: c (1+x^2)^{-beta/2} <= |psi(x)| <= C (1+x^2)^{-beta/2}."""

    beta: float
    c_psi: float
    C_psi: float
    L: float

    def __post_init__(self):
        if not (0 < self.c_psi <= self.C_psi):
            raise InvalidInputError("need 0 < c_psi <= C_psi")


def fit_h3(psi_fn, u_grid: Grid1D, fourier_g1_fn) -> H3Diagnostics:
    """Least-squares fit of log|psi| against -(beta/2) log(1+u^2) on the
    grid, envelope constants from the extremes, and L = ||g1||_{H^beta}^2
    by trapezoid quadrature of |F[g1]|^2 (1+u^2)^beta."""
    u = u_grid.nodes()
    a = np.abs(np.asarray(psi_fn(u)))
    if np.any(a <= 0):
        raise InvalidInputError("psi must be nonvanishing on the fit grid")
    design = np.column_stack([np.ones_like(u), -0.5 * np.log1p(u ** 2)])
    coef, *_ = np.linalg.lstsq(design, np.log(a), rcond=None)
    beta = max(float(coef[1]), 0.0)
    envelope = a * (1 + u ** 2) ** (beta / 2)
    c_psi, C_psi = float(np.min(envelope)), float(np.max(envelope))
    fg1 = np.abs(np.asarray(fourier_g1_fn(u)))
    L = float(np.sum(trapezoid_weights(u_grid) * fg1 ** 2 * (1 + u ** 2) ** beta))
    return H3Diagnostics(beta=beta, c_psi=c_psi, C_psi=C_psi, L=L)


def calibrate_bound_constant(errors_sq: np.ndarray, bias_sq: float,
                             fourth_moment: float, g1_l1: float,
                             psi_fn, l: float, n_obs: int) -> float:
    """Smallest K making the Theorem bound hold over a pilot batch of
    observed squared errors."""
    errors_sq = np.asarray(errors_sq, dtype=float)
    integral = psi_sq_integral(psi_fn, l)
    scale = (np.sqrt(fourth_moment) + g1_l1 ** 2) * integral / n_obs
    need = np.max(errors_sq - bias_sq) / scale
    return float(max(need, 1e-12))


"""Orthonormal-basis inversion on the subspace of L2 functions vanishing
outside [-A, A].

The Haar system on [-A, A] (scaling function first, then wavelets ordered
by level and shift) is pushed through the forward scaling operator,

    eta_j(x) = sum_k (1/|f_k|) (h(x)/h((f1/f_k) x)) psi_j((f1/f_k) x),

Gram-Schmidt turns (eta_j) into an orthonormal family (e_j), and the
coefficients of g0 in the Haar basis solve the triangular system
y_j = sum_i x_i <eta_i, e_j> by backward substitution.  Gram-Schmidt on
the sampled eta_j is the QR factorisation of their sample matrix, and
<eta_i, e_j> is its triangular factor R, so both steps run on LAPACK.

All inner products use midpoint sampling with the rectangle rule, which
integrates the dyadic step functions exactly; node-based trapezoid rules
cannot reach the orthonormality tolerances with discontinuous bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    BoundInapplicableError,
    DegeneracyError,
    InvalidInputError,
    PreconditionError,
    SingularSystemError,
)
from .grids import Grid1D, GridFunction
from .model import SimpleKernel, WeightH, e_factor

__all__ = [
    "HaarBasis",
    "EtaSystem",
    "build_eta",
    "project_g1bar",
    "solve_coefficients",
    "onb_estimate",
    "onb_error_bound",
]


@dataclass(frozen=True)
class HaarBasis:
    """First ``m`` Haar functions on [-A, A].

    Ordering: scaling function, then wavelets by (level asc, shift asc);
    levels 0..J provide 2^(J+1) functions in total.  ``n_cells`` controls
    the midpoint discretisation and is rounded up to a multiple of
    2^(J+1) so every dyadic breakpoint is a cell boundary.
    """

    A: float
    levels: int
    m: int
    n_cells: int = 2048

    def __post_init__(self):
        if self.A <= 0:
            raise InvalidInputError("half-width A must be positive")
        if self.levels < 0:
            raise InvalidInputError("levels must be >= 0")
        max_m = 2 ** (self.levels + 1)
        if not 1 <= self.m <= max_m:
            raise InvalidInputError(
                f"m must lie in [1, {max_m}] for {self.levels} wavelet levels"
            )
        block = 2 ** (self.levels + 1)
        cells = int(np.ceil(self.n_cells / block)) * block
        object.__setattr__(self, "n_cells", cells)

    @property
    def dx(self) -> float:
        return 2 * self.A / self.n_cells

    def midpoints(self) -> np.ndarray:
        return -self.A + (np.arange(self.n_cells) + 0.5) * self.dx

    def midpoint_grid(self) -> Grid1D:
        return Grid1D(-self.A + 0.5 * self.dx, self.A - 0.5 * self.dx, self.n_cells)

    def evaluate(self, j: int, x) -> np.ndarray:
        """Pointwise values of basis function j (0-based), zero off [-A, A]."""
        x = np.asarray(x, dtype=float)
        inside = (x >= -self.A) & (x < self.A)
        if j == 0:
            return np.where(inside, 1.0 / np.sqrt(2 * self.A), 0.0)
        level = int(np.floor(np.log2(j))) if j > 0 else 0
        shift = j - 2 ** level
        width = 2 * self.A / 2 ** level
        left = -self.A + shift * width
        amp = np.sqrt(2 ** level / (2 * self.A))
        up = (x >= left) & (x < left + width / 2)
        down = (x >= left + width / 2) & (x < left + width)
        return np.where(up, amp, 0.0) - np.where(down, amp, 0.0)

    def values_matrix(self) -> np.ndarray:
        """(m, n_cells) midpoint samples of the basis."""
        mid = self.midpoints()
        return np.stack([self.evaluate(j, mid) for j in range(self.m)])

    def combine(self, coeffs: np.ndarray, x) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != self.m:
            raise InvalidInputError(f"expected {self.m} coefficients")
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for j, c in enumerate(coeffs):
            if c != 0.0:
                out += c * self.evaluate(j, x)
        return out


@dataclass(frozen=True)
class EtaSystem:
    """The forward-scaled basis, its Gram-Schmidt orthonormalisation and
    the mixing matrix mix[j, i] = <eta_i, e_j> (zero for j > i)."""

    basis: HaarBasis
    pivot_value: float
    n1: int
    h: WeightH
    e_contraction: float
    eta_values: np.ndarray = field(repr=False)
    e_values: np.ndarray = field(repr=False)
    mix: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.basis.m

    def ip(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a, b) * self.basis.dx)


def build_eta(basis: HaarBasis, kernel: SimpleKernel, h: WeightH) -> EtaSystem:
    """Construct the eta system and orthonormalise it.

    Preconditions: the pivot has maximal absolute value among the
    coefficients and the contraction factor satisfies e(f, h) < 1.
    Gram-Schmidt is the QR factorisation of the sqrt(dx)-scaled samples,
    signed so that diag(mix) > 0; a diagonal entry below 1e-8 of the eta
    norm raises a degeneracy error.
    """
    pivot, q_idx, n1 = kernel.pivot_info(h)
    others = np.abs(np.delete(kernel.coeffs, q_idx))
    if len(others) and abs(pivot) < np.max(others) * (1 - 1e-12):
        raise PreconditionError(
            f"pivot |{pivot}| must dominate the remaining coefficients "
            f"(max |f_k| = {np.max(others)})"
        )
    e = e_factor(kernel, h, pivot)
    if e >= 1.0:
        raise PreconditionError(f"contraction factor e = {e:.6g} >= 1")
    mid = basis.midpoints()
    eta = np.zeros((basis.m, basis.n_cells))
    for j in range(basis.m):
        for fk in kernel.coeffs:
            c = pivot / fk
            eta[j] += (1.0 / abs(fk)) * h.ratio(c) * basis.evaluate(j, c * mid)
    samples = np.sqrt(basis.dx) * eta.T
    q, mix = np.linalg.qr(samples)
    small = np.abs(np.diag(mix)) < 1e-8 * np.linalg.norm(samples, axis=0)
    if np.any(small):
        raise DegeneracyError(
            f"eta_{np.argmax(small) + 1} is numerically dependent on its predecessors"
        )
    sign = np.sign(np.diag(mix))[:, None]
    return EtaSystem(basis=basis, pivot_value=pivot, n1=n1, h=h, e_contraction=e,
                     eta_values=eta, e_values=sign * q.T / np.sqrt(basis.dx),
                     mix=sign * mix)


def project_g1bar(g1_eval, system: EtaSystem) -> np.ndarray:
    """Coefficients y_j = <g1bar, e_j> of the scaled data function
    g1bar(x) = (h(x)/h(f1 x)) g1(f1 x) against the orthonormal family."""
    pivot = system.pivot_value
    mid = system.basis.midpoints()
    g1bar = system.h.ratio(pivot) * np.asarray(g1_eval(pivot * mid), dtype=float)
    return np.array([system.ip(g1bar, e_row) for e_row in system.e_values])


def solve_coefficients(yhat: np.ndarray, system: EtaSystem) -> np.ndarray:
    """Backward substitution for y_j = sum_i x_i mix[j, i]; mix is upper
    triangular."""
    yhat = np.asarray(yhat, dtype=float)
    if len(yhat) != system.m:
        raise InvalidInputError(f"expected {system.m} projection coefficients")
    if np.any(np.abs(np.diag(system.mix)) < 1e-14):
        raise SingularSystemError("triangular system has a zero diagonal entry")
    return solve_triangular(system.mix, yhat)


def onb_estimate(xhat: np.ndarray, basis: HaarBasis,
                 x_grid: Grid1D | None = None) -> GridFunction:
    """g0 estimate sum_i x_i psi_i, evaluated on x_grid (default: the
    basis midpoint grid); supported in [-A, A]."""
    grid = x_grid if x_grid is not None else basis.midpoint_grid()
    return GridFunction(grid, basis.combine(xhat, grid.nodes()))


def onb_error_bound(e_factor_: float, f1: float, n1: int,
                    tail_norm: float, proj_err: float) -> float:
    """(|f1| / (n1 (1 - e))) [ 2 ||sum_{j>m} x_j eta_j||_2 + proj_err ]."""
    if e_factor_ >= 1.0:
        raise BoundInapplicableError(f"bound requires e < 1, got {e_factor_}")
    if tail_norm < 0 or proj_err < 0:
        raise InvalidInputError("norms must be nonnegative")
    return abs(f1) / (n1 * (1.0 - e_factor_)) * (2.0 * tail_norm + proj_err)

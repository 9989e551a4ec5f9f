"""Orthonormal-basis inversion on the subspace of L2 functions vanishing
outside [-A, A].

The Haar system on [-A, A] (scaling function first, then wavelets ordered
by level and shift) is pushed through the forward scaling operator
:func:`model.forward_g_transform` and then scaled by the pivot f1 like
the data function g1bar(x) = (h(x)/h(f1 x)) g1(f1 x), which gives

    eta_j(x) = sum_k (1/|f_k|) (h(x)/h((f1/f_k) x)) psi_j((f1/f_k) x),

Gram-Schmidt turns (eta_j) into an orthonormal family (e_j), and the
coefficients of g0 in the Haar basis solve the triangular system
y_j = sum_i x_i <eta_i, e_j> by backward substitution.  Gram-Schmidt on
the sampled eta_j is the QR factorisation of their sample matrix, and
<eta_i, e_j> is its triangular factor R, so the orthonormalisation runs
on LAPACK and the m-by-m substitution is a short numpy loop.

All inner products use midpoint sampling with the rectangle rule, which
integrates the dyadic step functions exactly; node-based trapezoid rules
cannot reach the orthonormality tolerances with discontinuous bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundInapplicableError,
    DegeneracyError,
    InvalidInputError,
    PreconditionError,
    SingularSystemError,
)
from .grids import Grid1D, GridFunction, _check_budget, _kept
from .model import SimpleKernel, WeightH, e_factor, forward_g_transform

__all__ = [
    "HaarBasis",
    "EtaSystem",
    "build_eta",
    "project_g1bar",
    "solve_coefficients",
    "onb_estimate",
    "onb_error_bound",
]

# cells of the midpoint discretisation before rounding to whole dyadic blocks
_N_CELLS = 2048


@dataclass(frozen=True)
class HaarBasis:
    """First ``m`` Haar functions on [-A, A].

    Ordering: scaling function, then wavelets by (level asc, shift asc).
    The midpoint discretisation has ``n_cells`` cells: _N_CELLS rounded up
    to a multiple of 2^bit_length(m - 1), the half-cell count of the finest
    level in use, so every breakpoint is a cell boundary.  The m * n_cells
    basis values are budgeted before anything is allocated.
    """

    A: float
    m: int
    n_cells: int = field(init=False)

    def __post_init__(self):
        if self.A <= 0:
            raise InvalidInputError("half-width A must be positive")
        if self.m < 1:
            raise InvalidInputError(f"m must be >= 1, got {self.m}")
        block = 2 ** (self.m - 1).bit_length()
        cells = -(-_N_CELLS // block) * block
        _check_budget(self.m * cells, "Haar basis values (m x cells)")
        object.__setattr__(self, "n_cells", cells)
        if not np.finfo(float).tiny <= self.dx < np.inf:
            raise InvalidInputError(f"Haar cell width {self.dx} is not a finite normal float")

    @property
    def dx(self) -> float:
        return 2 * self.A / self.n_cells

    def midpoints(self) -> np.ndarray:
        return -self.A + (np.arange(self.n_cells) + 0.5) * self.dx

    def evaluate(self, j: int, x) -> np.ndarray:
        """Pointwise values of basis function j (0-based), zero off [-A, A].

        Each point is looked up by the number of the function's breakpoints
        at or below it, which is what comparisons with those breakpoints
        give, ties included.
        """
        if j == 0:
            edges = [-self.A, self.A]
            values = np.array([0.0, 1.0 / np.sqrt(2 * self.A), 0.0])
        else:
            level = int(j).bit_length() - 1
            width = 2 * self.A / 2 ** level
            left = -self.A + (j - 2 ** level) * width
            amp = np.sqrt(2 ** level / (2 * self.A))
            edges = [left, left + width / 2, left + width]
            values = np.array([0.0, amp, -amp, 0.0])
        return values[np.searchsorted(edges, np.asarray(x, dtype=float), side="right")]

    def values(self, x) -> np.ndarray:
        """(m, len(x)) stack of the basis functions' values at x."""
        return np.stack([self.evaluate(j, x) for j in range(self.m)])

    @_kept(lambda self, grid: self.m * grid.n)
    def _grid_values(self, grid: Grid1D) -> np.ndarray:
        """:meth:`values` at the grid's nodes, read-only."""
        return self.values(grid.nodes())

    def combine(self, coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """sum_j coeffs_j psi_j from the (m, n) stack of :meth:`values` at
        n points, adding its rows in order of j and skipping zero
        coefficients: the one routine that sums a Haar expansion."""
        coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != self.m:
            raise InvalidInputError(f"expected {self.m} coefficients")
        out = np.zeros(values.shape[1:])
        for c, row in zip(coeffs, values):
            if c != 0.0:
                out += c * row
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


@_kept(lambda basis, kernel, h: basis.m * basis.n_cells)
def build_eta(basis: HaarBasis, kernel: SimpleKernel, h: WeightH) -> EtaSystem:
    """Construct the eta system and orthonormalise it.

    Preconditions: the pivot has maximal absolute value among the
    coefficients and the contraction factor satisfies e(f, h) < 1.
    Gram-Schmidt is the QR factorisation of the sqrt(dx)-scaled samples,
    signed so that diag(mix) > 0; a diagonal entry below 1e-8 of the eta
    norm raises a degeneracy error.  The system is kept, with read-only
    arrays.
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
    # the forward operator maps each row of the (m, n) basis samples
    eta = _g1bar(forward_g_transform(basis.values, kernel, h), pivot, h, basis.midpoints())
    samples = np.sqrt(basis.dx) * eta.T
    q, mix = np.linalg.qr(samples)
    small = np.abs(np.diag(mix)) < 1e-8 * np.linalg.norm(samples, axis=0)
    if np.any(small):
        raise DegeneracyError(
            f"eta_{np.argmax(small) + 1} is numerically dependent on its predecessors"
        )
    sign = np.sign(np.diag(mix))[:, None]
    e_values, mix = sign * q.T / np.sqrt(basis.dx), sign * mix
    return EtaSystem(basis=basis, pivot_value=pivot, n1=n1, h=h, e_contraction=e,
                     eta_values=eta, e_values=e_values, mix=mix)


def _g1bar(g1_eval, pivot: float, h: WeightH, x: np.ndarray) -> np.ndarray:
    """The scaled data function g1bar(x) = (h(x)/h(f1 x)) g1(f1 x)."""
    return h.ratio(pivot) * np.asarray(g1_eval(pivot * x), dtype=float)


def project_g1bar(g1_eval, system: EtaSystem) -> np.ndarray:
    """Coefficients y_j = <g1bar, e_j> of the scaled data function
    g1bar(x) = (h(x)/h(f1 x)) g1(f1 x) against the orthonormal family."""
    g1bar = _g1bar(g1_eval, system.pivot_value, system.h, system.basis.midpoints())
    return np.array([system.ip(g1bar, e_row) for e_row in system.e_values])


def solve_coefficients(yhat: np.ndarray, system: EtaSystem) -> np.ndarray:
    """Backward substitution for y_j = sum_i x_i mix[j, i]; mix is upper
    triangular, so x_i = (y_i - sum_{k > i} mix[i, k] x_k) / mix[i, i] from
    i = m - 1 down.  On the Section 7 system this gives the bits of
    LAPACK's triangular solve, and the tests pin 1e-14 relative against
    scipy.linalg.solve_triangular."""
    yhat = np.asarray(yhat, dtype=float)
    if len(yhat) != system.m:
        raise InvalidInputError(f"expected {system.m} projection coefficients")
    if np.any(np.abs(np.diag(system.mix)) < 1e-14):
        raise SingularSystemError("triangular system has a zero diagonal entry")
    mix = system.mix
    x = np.zeros(system.m)
    for i in range(system.m - 1, -1, -1):
        x[i] = (yhat[i] - mix[i, i + 1:] @ x[i + 1:]) / mix[i, i]
    return x


def onb_estimate(xhat: np.ndarray, basis: HaarBasis, x_grid: Grid1D) -> GridFunction:
    """g0 estimate sum_i x_i psi_i, evaluated on x_grid; supported in
    [-A, A]."""
    return GridFunction(x_grid, basis.combine(xhat, basis._grid_values(x_grid)))


def onb_error_bound(e_factor_: float, f1: float, n1: int,
                    tail_norm: float, proj_err: float) -> float:
    """(|f1| / (n1 (1 - e))) [ 2 ||sum_{j>m} x_j eta_j||_2 + proj_err ]."""
    if e_factor_ >= 1.0:
        raise BoundInapplicableError(f"bound requires e < 1, got {e_factor_}")
    if tail_norm < 0 or proj_err < 0:
        raise InvalidInputError("norms must be nonnegative")
    return abs(f1) / (n1 * (1.0 - e_factor_)) * (2.0 * tail_norm + proj_err)

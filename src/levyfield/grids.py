"""Grid-sampled functions, quadrature, L2 geometry and Fourier transforms.

All functions live on uniform 1-d grids and are treated as zero off-grid.
The Fourier convention is

    forward:  F(u) = integral exp(+i u x) f(x) dx
    inverse:  g(x) = (1/2pi) integral exp(-i x u) F(u) du

so that Plancherel reads ||F f||_2^2 = 2 pi ||f||_2^2.

Quadrature is composite trapezoid.  The transforms have a direct O(n*m)
reference path and a chirp-z accelerated path evaluating the *same*
quadrature sum; the two agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import czt

from .errors import GridMismatchError, InvalidInputError

__all__ = [
    "Grid1D",
    "GridFunction",
    "symmetric_grid",
    "trapezoid_weights",
    "l2_norm",
    "fourier_forward",
    "fourier_inverse_truncated",
    "inverse_transform_at",
    "convolve",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with nodes x_i = lo + i * spacing, i = 0..n-1."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InvalidInputError("grid endpoints must be finite")
        if not self.lo < self.hi:
            raise InvalidInputError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 2:
            raise InvalidInputError(f"grid needs n >= 2 nodes, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def is_symmetric(self, rel_tol: float = 1e-9) -> bool:
        return abs(self.lo + self.hi) <= rel_tol * (self.hi - self.lo)


def symmetric_grid(half_width: float, n: int) -> Grid1D:
    """Grid on [-half_width, half_width].  Odd n puts a node at 0."""
    return Grid1D(-half_width, half_width, n)


@dataclass(frozen=True)
class GridFunction:
    """Real- or complex-valued function sampled on a uniform grid."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim != 1 or len(vals) != self.grid.n:
            raise InvalidInputError(
                f"values length {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals.view(float) if vals.dtype.kind == "c" else vals)):
            raise InvalidInputError("grid function contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def __call__(self, x) -> np.ndarray:
        """Linear interpolation with zero extension outside the grid."""
        x = np.asarray(x, dtype=float)
        nodes = self.grid.nodes()
        if self.is_complex:
            re = np.interp(x, nodes, self.values.real, left=0.0, right=0.0)
            im = np.interp(x, nodes, self.values.imag, left=0.0, right=0.0)
            return re + 1j * im
        return np.interp(x, nodes, self.values, left=0.0, right=0.0)

    @staticmethod
    def from_callable(grid: Grid1D, fn) -> "GridFunction":
        return GridFunction(grid, np.asarray(fn(grid.nodes())))


def trapezoid_weights(grid: Grid1D) -> np.ndarray:
    w = np.full(grid.n, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def l2_norm(f: GridFunction) -> float:
    """Trapezoid approximation of the L2 norm, zero extension off-grid."""
    w = trapezoid_weights(f.grid)
    return float(np.sqrt(np.sum(w * np.abs(f.values) ** 2)))


def _phase_sum(coef: np.ndarray, x: np.ndarray, u: np.ndarray, sign: float,
               method: str) -> np.ndarray:
    """Evaluate S(u_k) = sum_j coef_j exp(sign * i * u_k * x_j).

    ``direct`` builds the phase matrix in chunks (reference path);
    ``czt`` evaluates the identical sum through a chirp-z transform,
    which requires both point sets to be uniformly spaced.
    """
    u = np.asarray(u, dtype=float)
    if method == "direct":
        out = np.empty(len(u), dtype=complex)
        chunk = max(1, int(4e6 // max(len(x), 1)))
        for start in range(0, len(u), chunk):
            ub = u[start:start + chunk]
            out[start:start + chunk] = np.exp(sign * 1j * np.outer(ub, x)) @ coef
        return out
    if method == "czt":
        if len(u) == 1:
            return np.array([np.sum(coef * np.exp(sign * 1j * u[0] * x))])
        dx = x[1] - x[0]
        du = u[1] - u[0]
        w = np.exp(sign * 1j * du * dx)
        out = np.zeros(len(u), dtype=complex)
        # blocking keeps the chirp phases small, which holds the rounding
        # error of the fast path below the 1e-10 agreement gate
        block = 128
        for start in range(0, len(x), block):
            xb = x[start:start + block]
            a = coef[start:start + block] * np.exp(sign * 1j * u[0] * (xb - xb[0]))
            s = czt(a, m=len(u), w=w, a=1.0 + 0j)
            out += s * np.exp(sign * 1j * u * xb[0])
        return out
    raise InvalidInputError(f"unknown transform method {method!r}")


def _uniform(points: np.ndarray) -> bool:
    if len(points) < 2:
        return True
    d = np.diff(points)
    return bool(np.all(np.abs(d - d[0]) <= 1e-9 * max(abs(d[0]), 1e-300)))


def fourier_forward(f: GridFunction, u_grid: Grid1D, method: str = "auto") -> GridFunction:
    """F(u) = integral exp(i u x) f(x) dx by trapezoid quadrature on f's grid."""
    if f.grid.n < 2:
        raise InvalidInputError("empty grid")
    coef = trapezoid_weights(f.grid) * f.values
    x = f.grid.nodes()
    u = u_grid.nodes()
    if method == "auto":
        method = "czt"
    vals = _phase_sum(coef.astype(complex), x, u, +1.0, method)
    return GridFunction(u_grid, vals)


def _inverse_sum(F: GridFunction, x: np.ndarray, method: str) -> np.ndarray:
    """(1/2pi) integral_{-pi l}^{pi l} e^{-ixu} F(u) du at the points x, by
    trapezoid quadrature on F's symmetric u-grid (complex result)."""
    if not F.grid.is_symmetric():
        raise InvalidInputError(
            f"inverse transform requires a symmetric u-grid, got [{F.grid.lo}, {F.grid.hi}]"
        )
    if method == "auto":
        method = "czt" if _uniform(x) else "direct"
    coef = (trapezoid_weights(F.grid) * F.values / (2.0 * np.pi)).astype(complex)
    return _phase_sum(coef, F.grid.nodes(), x, -1.0, method)


def fourier_inverse_truncated(F: GridFunction, x_grid: Grid1D,
                              method: str = "auto") -> tuple[GridFunction, float]:
    """Truncated inverse transform (1/2pi) integral_{-pi l}^{pi l} e^{-ixu} F(u) du.

    F must live on a symmetric u-grid [-pi l, pi l].  Returns the real part
    as a GridFunction together with the maximal imaginary residue, which is
    a diagnostic for how far F is from Hermitian symmetry.
    """
    vals = _inverse_sum(F, x_grid.nodes(), method)
    return GridFunction(x_grid, vals.real), float(np.max(np.abs(vals.imag)))


def inverse_transform_at(F: GridFunction, points: np.ndarray,
                         method: str = "auto") -> np.ndarray:
    """Real part of the truncated inverse transform at arbitrary points.

    Same quadrature sum as :func:`fourier_inverse_truncated`; ``points``
    need not form a grid (the chirp-z path is used when they are uniform).
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    return _inverse_sum(F, points, method).real


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f * g)(x) = sum_y f(y) g(x - y) spacing, evaluated on f's grid.

    The grids must share their spacing.  When g's origin is off f's
    lattice the result is linearly interpolated between neighbouring
    lattice shifts.
    """
    dx = f.grid.spacing
    if abs(g.grid.spacing - dx) > 1e-9 * dx:
        raise GridMismatchError(
            f"convolution needs equal spacings, got {dx} vs {g.grid.spacing}"
        )
    full = np.convolve(f.values, g.values) * dx
    # full[k] approximates (f*g) at f.lo + g.lo + k dx; resample onto f's grid.
    shift = g.grid.lo / dx
    idx = np.arange(f.grid.n) - shift
    base = np.floor(idx).astype(int)
    frac = idx - base
    if np.max(np.abs(frac)) < 1e-9 or np.max(np.abs(frac - 1)) < 1e-9:
        base = np.rint(idx).astype(int)
        frac = np.zeros_like(idx)
    lo = np.clip(base, 0, len(full) - 1)
    hi = np.clip(base + 1, 0, len(full) - 1)
    valid_lo = (base >= 0) & (base < len(full))
    valid_hi = (base + 1 >= 0) & (base + 1 < len(full))
    vals = np.where(valid_lo, full[lo], 0.0) * (1 - frac) + np.where(valid_hi, full[hi], 0.0) * frac
    return GridFunction(f.grid, vals)

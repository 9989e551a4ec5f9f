"""Smoothing kernels, convolution smoothing, the bandwidth-bias rate and
bandwidth selection.

All kernels are probability densities, so sup |F[K_b]| = 1 independently
of the bandwidth, and they satisfy the small-bias inequality

    |1 - F[K_b](x)| <= c1 min{1, b |x|}

with a kernel constant c1 (2 for the Gaussian, max{1, L} for band-limited
kernels with an L-Lipschitz transform).  The band-limited representative
is the Fejer kernel, whose transform is the unit triangle.

Smoothing samples a kernel only at the taps the convolution reads, but
normalises those taps by the trapezoid mass over the kernel's whole
effective radius.  For the Fejer kernel that mass has a closed form
(:func:`_fejer_mass`); the other kernels, and the Fejer kernel on a grid
coarser than pi b, sum it over the full-radius grid.  The taps are kept
(:meth:`SmoothingKernel.grid_function`), and :func:`grids.convolve` keeps
their spectrum and its FFT length, so smoothing an estimate takes two
FFTs, of the estimate and of the product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentBoundError, InvalidInputError, ResourceLimitError
from .grids import (
    Grid1D,
    GridFunction,
    _gauss_panels,
    _kept,
    convolve,
    fourier_forward,
    symmetric_grid,
    trapezoid_weights,
)

__all__ = [
    "SmoothingKernel",
    "smooth",
    "a_delta",
    "check_k3",
    "k1_mass_error",
    "select_bandwidth",
]

_FAMILIES = ("gaussian", "epanechnikov", "bandlimited")

# the (b, x) product grid on which check_k3 fits c1
_B_CHECK = np.arange(0.1, 2.05, 0.1)
_X_CHECK = np.concatenate([np.linspace(1e-4, 5, 2001), np.geomspace(5, 500, 500)])


def _ft_gaussian(t):
    return np.exp(-0.5 * t ** 2)


def _ft_epanechnikov(t):
    """3 (sin t - t cos t) / t^3, with a series guard near 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-3
    ts = t[small]
    out[small] = 1.0 - ts ** 2 / 10.0 + ts ** 4 / 280.0
    tl = t[~small]
    out[~small] = 3.0 * (np.sin(tl) - tl * np.cos(tl)) / tl ** 3
    return out


def _ft_fejer(t):
    return np.clip(1.0 - np.abs(t), 0.0, None)


def _ft_epanechnikov_deriv(t):
    """d/dt of the Epanechnikov transform."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-3
    ts = t[small]
    out[small] = -ts / 5.0 + ts ** 3 / 70.0
    tl = t[~small]
    out[~small] = 3.0 * (tl ** 2 * np.sin(tl) - 3.0 * np.sin(tl) + 3.0 * tl * np.cos(tl)) / tl ** 4
    return out


_FT = {"gaussian": _ft_gaussian, "epanechnikov": _ft_epanechnikov,
       "bandlimited": _ft_fejer}


@dataclass(frozen=True)
class SmoothingKernel:
    """A smoothing density K_b with bandwidth b."""

    family: str
    b: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInputError(f"unknown kernel family {self.family!r}")
        if self.b <= 0:
            raise InvalidInputError("bandwidth must be positive")
        if not 1.0 / float(self.b) < math.inf:
            raise InvalidInputError(f"bandwidth {self.b!r} has no finite reciprocal")

    @np.errstate(over="ignore")
    def density(self, x) -> np.ndarray:
        """K_b(x), which is 0 where a square of x / b overflows to inf."""
        x = np.asarray(x, dtype=float)
        b = self.b
        if self.family == "gaussian":
            return np.exp(-0.5 * (x / b) ** 2) / (b * math.sqrt(2 * math.pi))
        if self.family == "epanechnikov":
            return np.where(np.abs(x) <= b, 0.75 / b * (1 - (x / b) ** 2), 0.0)
        t = x / b
        out = np.empty_like(t)
        small = np.abs(t) < 1e-4
        out[small] = (0.25 - t[small] ** 2 / 48.0) * 2 / math.pi
        tl = t[~small]
        out[~small] = (2 / math.pi) * np.sin(0.5 * tl) ** 2 / tl ** 2
        return out / b

    def fourier(self, x) -> np.ndarray:
        """F[K_b](x) = F[K](b x), closed form per family."""
        return _FT[self.family](self.b * np.asarray(x, dtype=float))

    def fourier_db(self, x) -> np.ndarray:
        """d F[K_b](x) / db."""
        x = np.asarray(x, dtype=float)
        b = self.b
        if self.family == "gaussian":
            return -b * x ** 2 * np.exp(-0.5 * (b * x) ** 2)
        if self.family == "epanechnikov":
            return x * _ft_epanechnikov_deriv(b * x)
        return np.where(b * np.abs(x) < 1.0, -np.abs(x), 0.0)

    def effective_radius(self) -> float:
        if self.family == "gaussian":
            return 10.0 * self.b
        if self.family == "epanechnikov":
            return self.b
        # Fejer tails decay like 1/(pi x^2 / b); this radius keeps ~1e-4 mass out
        return 6e3 * self.b

    @_kept(lambda self, spacing, reach: 2 * min(reach, self.effective_radius() / spacing) + 1)
    def grid_function(self, spacing: float, reach: int) -> GridFunction:
        """Kernel taps at the nodes k * spacing, |k| <= reach, of the
        symmetric lattice grid over the effective radius r * spacing.

        The taps are divided by the trapezoid mass of the kernel over all
        2r + 1 nodes, so that they equal the same taps of the full-radius
        kernel renormalised to unit discrete mass.  The taps are kept,
        read-only.
        """
        radius_nodes = self.effective_radius() / spacing
        if not math.isfinite(radius_nodes):
            raise ResourceLimitError(f"a kernel radius of {radius_nodes} nodes exceeds the budget")
        r = max(1, int(math.ceil(radius_nodes)))
        m = min(r, reach)
        if self.family == "bandlimited" and spacing <= math.pi * self.b:
            # np.linspace(-r dx, r dx, 2r + 1)'s arithmetic, at |k| <= m only
            lo = -r * spacing
            step = (r * spacing - lo) / (2 * r)
            taps = self.density((np.arange(-m, m + 1) + float(r)) * step + lo)
            mass = _fejer_mass(self.b, spacing, r)
        else:
            grid = Grid1D(-r * spacing, r * spacing, 2 * r + 1)
            full = self.density(grid.nodes())
            mass = float(np.sum(trapezoid_weights(grid) * full))
            taps = full[r - m:r + m + 1]
        return GridFunction(Grid1D(-m * spacing, m * spacing, 2 * m + 1), taps / mass)


def _fejer_mass(b: float, spacing: float, r: int) -> float:
    """Trapezoid mass dx * sum_{|k| <= r} K_b(k dx), end nodes halved, of the
    Fejer density K_b(x) = (b / pi) (1 - cos(x / b)) / x^2, for dx <= pi b.

    F[K_b] vanishes beyond 1/b, so by Poisson summation the mass of the
    whole lattice, dx * sum_k K_b(k dx), is exactly 1.  With theta = dx / b
    the trapezoid mass is therefore

        1 - (2b / (pi dx)) [(1 - cos r theta) / (2 r^2)
                            + psi_1(r + 1) - Re sum_{k > r} e^{ik theta} / k^2].

    Summation by parts, applied three times, gives the oscillating tail.
    Each round is smaller by about 3 / (r |e^{i theta} - 1|), below 1e-3
    since r theta >= 6000 at the effective radius and theta <= pi; so
    r >= 6000 / pi, and psi_1(r + 1) is :func:`_trigamma`'s series.
    """
    theta = spacing / b
    n = r + 1.0
    q = 1.0 / n
    z = cmath.exp(1j * theta)
    w = z / (z - 1)
    # 1/k^2 and its first two backward differences, at k = n, n + 1, n + 2,
    # in powers of q = 1/n so that no intermediate overflows
    d0 = q * q
    d1 = q ** 3 * (2 + q) / (1 + q) ** 2
    d2 = q ** 4 * (6 + 12 * q + 4 * q * q) / ((1 + q) * (1 + 2 * q)) ** 2
    tail = -cmath.exp(1j * n * theta) / (z - 1) * (d0 + w * (d1 + w * d2))
    outside = (1 - math.cos(r * theta)) / (2.0 * r * r) + _trigamma(r + 1) - tail.real
    return 1.0 - 2 * b / (math.pi * spacing) * outside


def _trigamma(n: int) -> float:
    """psi_1(n) = sum_{k >= n} 1/k^2 for an integer n >= 1911, correctly
    rounded: its asymptotic series 1/n + 1/(2n^2) + 1/(6n^3) - 1/(30n^5)
    + 1/(42n^7), whose next term is below 2e-28 of the sum there, taken as
    one integer fraction over 210 n^7, which Python's int / int rounds once.
    The tests pin it within 2 ulp of scipy.special.polygamma(1, n)."""
    return ((((210 * n + 105) * n + 35) * n * n - 7) * n * n + 5) / (210 * n ** 7)


def smooth(est: GridFunction, kern: SmoothingKernel) -> GridFunction:
    """Convolution smoothing est * K_b on est's grid.  On an n-node grid
    the convolution reads the kernel only at |k| <= n - 1 nodes, so only
    those taps are sampled."""
    return convolve(est, kern.grid_function(est.grid.spacing, est.grid.n - 1))


def a_delta(b: float, delta: float, c1: float) -> float:
    """Fourth root of the smoothing-bias integral

        (c1 / 2pi) integral min{1, b|x|}^4 (1 + x^2)^{-delta} dx,

    which is the rate term multiplying the Sobolev mass in the smoothed
    error bound.  Scales like b^{min(1, (2 delta - 1)/4)} for delta != 5/2
    and b (-log b)^{1/4} at delta = 5/2.
    """
    if delta <= 0.5:
        raise DivergentBoundError("the bias integral diverges for delta <= 1/2")
    if not 0 < b < 1:
        raise InvalidInputError("bandwidth must lie in (0, 1)")
    if c1 <= 0:
        raise InvalidInputError("c1 must be positive")
    # inner on panels [0, 1], [1, 2], [2, 4], ... up to 1/b; outer, by x = s^-p with
    # p = 1/(2 delta - 1), the bounded p integral_0^{b^(1/p)} (1 + s^(2p))^-delta ds
    edges = np.minimum(2.0 ** np.arange(math.ceil(-math.log2(b)) + 1), 1.0 / b)
    x, w = _gauss_panels(np.append(0.0, edges))
    inner = float(np.sum(w * (b * x) ** 4 * (1 + x * x) ** (-delta)))
    p = 1.0 / (2 * delta - 1)
    s, w = _gauss_panels(np.append(0.0, b ** (2 * delta - 1) * 2.0 ** np.arange(-60.0, 1.0)))
    outer = p * float(np.sum(w * (1 + s ** (2 * p)) ** (-delta)))
    val = c1 / (2 * math.pi) * 2.0 * (inner + outer)
    return val ** 0.25


def check_k3(family: str) -> tuple[bool, float]:
    """Smallest c1 with |1 - F[K_b](x)| <= c1 min{1, b|x|} for the kernel
    family on the product grid of b in [0.1, 2] and x in [1e-4, 500];
    holds = (the fit is finite)."""
    if family not in _FAMILIES:
        raise InvalidInputError(f"unknown kernel family {family!r}")
    ft = _FT[family]
    worst = 0.0
    for b in _B_CHECK:
        ratio = np.abs(1.0 - ft(b * _X_CHECK)) / np.minimum(1.0, b * np.abs(_X_CHECK))
        worst = max(worst, float(np.max(ratio)))
    return bool(np.isfinite(worst)), worst


def k1_mass_error(family: str, b: float) -> float:
    """|integral K_b - 1|, the density summed on [-t b, t b] in panels of width
    b, and the Fejer density's mass beyond, 1 - (2/pi) [Si(t) - (1 - cos t) / t]."""
    kern = SmoothingKernel(family, b)
    t = {"gaussian": 12, "epanechnikov": 1, "bandlimited": 400}[family]
    x, w = _gauss_panels(b * np.arange(-t, t + 1.0))
    mass = float(np.sum(w * kern.density(x)))
    if family == "bandlimited":
        # Si(t) = pi/2 - f cos t - g sin t, four terms of each asymptotic series
        f = (1 - 2 / t ** 2 + 24 / t ** 4 - 720 / t ** 6) / t
        g = (1 - 6 / t ** 2 + 120 / t ** 4 - 5040 / t ** 6) / t ** 2
        mass += (2 / math.pi) * (f * math.cos(t) + g * math.sin(t) + (1 - math.cos(t)) / t)
    return abs(mass - 1.0)


def select_bandwidth(est: GridFunction, family: str) -> float:
    """Pick the bandwidth minimising the smoothness objective

        || F[est](u) * dF[K_b](u)/db ||_2

    by grid search over 50 log-spaced points in [0.05, 3], with the
    integral taken on 2049 nodes of [-40, 40]; ties resolve to the smaller
    bandwidth."""
    b_range = np.geomspace(0.05, 3.0, 50)
    u_grid = symmetric_grid(40.0, 2049)
    spectrum = fourier_forward(est, u_grid)
    w = trapezoid_weights(u_grid)
    amp2 = np.abs(spectrum.values) ** 2
    u = u_grid.nodes()
    objectives = np.array([
        math.sqrt(float(np.sum(w * amp2 * SmoothingKernel(family, b).fourier_db(u) ** 2)))
        for b in b_range
    ])
    return float(b_range[int(np.argmin(objectives))])

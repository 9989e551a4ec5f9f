"""Levy triplets, jump laws, simple kernels and the forward maps.

The forward maps take the characteristics (a0, b0, v0) of the integrator
measure to the characteristics (a1, b1, v1) of the stationary field
sampled at a point:

    a1 = sum_k U(f_k) vol_k
    b1 = b0 sum_k f_k^2 vol_k
    v1(x) = sum_k (vol_k / |f_k|) v0(x / f_k)

with U(u) = u (a0 + integral x [1_{[-1,1]}(ux) - 1_{[-1,1]}(x)] v0(x) dx).
The algebraic recovery of (a0, b0) from (a1, b1) inverts the first two
relations; it is singular when sum_k f_k vol_k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate

from .errors import (
    CoverageError,
    InvalidInputError,
    SingularRecoveryError,
)
from .grids import GridFunction, trapezoid_weights

__all__ = [
    "JumpLaw",
    "LevyTriplet",
    "SimpleKernel",
    "WeightH",
    "u_function",
    "forward_drift",
    "forward_gaussian",
    "forward_levy_density",
    "forward_g_transform",
    "recover_a0_b0",
    "cumulant",
    "charfn_x0",
    "field_char_fn",
    "field_char_fn_deriv",
    "field_theta",
    "field_moments",
    "fourier_g1_model",
    "e_factor",
]

_SNAP_RTOL = 1e-12


# ---------------------------------------------------------------------------
# jump laws


@dataclass(frozen=True)
class JumpLaw:
    """A Levy density v0 with finite total mass, plus its sampler.

    ``mass`` is integral v0; the normalised density v0/mass is a probability
    density and is what :meth:`sample` draws from.  For the benchmark laws
    the mass is 1 and v0 itself is a probability density.
    """

    kind: str
    mass: float = 1.0
    mean_: float = 0.0
    sd_: float = 1.0
    rate_: float = 1.0
    density_: GridFunction | None = field(default=None, repr=False)

    # -- constructors

    @staticmethod
    def gaussian(mean: float = 0.0, sd: float = 1.0, mass: float = 1.0) -> "JumpLaw":
        if sd <= 0:
            raise InvalidInputError("gaussian law needs sd > 0")
        return JumpLaw("gaussian", mass=mass, mean_=mean, sd_=sd)

    @staticmethod
    def exponential(rate: float = 1.0, mass: float = 1.0) -> "JumpLaw":
        if rate <= 0:
            raise InvalidInputError("exponential law needs rate > 0")
        return JumpLaw("exponential", mass=mass, rate_=rate)

    @staticmethod
    def tabulated(density: GridFunction, mass: float | None = None) -> "JumpLaw":
        vals = np.asarray(density.values, dtype=float)
        if np.any(vals < -1e-12):
            raise InvalidInputError("tabulated density must be nonnegative")
        vals = np.clip(vals, 0.0, None)
        density = GridFunction(density.grid, vals)
        total = float(np.sum(trapezoid_weights(density.grid) * vals))
        if total <= 0:
            raise InvalidInputError("tabulated density has zero mass")
        if mass is None:
            mass = total
        else:
            # rescale the table so it integrates to the requested mass
            density = GridFunction(density.grid, vals * (mass / total))
        return JumpLaw("tabulated", mass=mass, density_=density)

    # -- basic evaluations; pdf refers to the (unnormalised) Levy density

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = (x - self.mean_) / self.sd_
            return self.mass * np.exp(-0.5 * z * z) / (self.sd_ * math.sqrt(2 * math.pi))
        if self.kind == "exponential":
            xx = np.clip(x, 0.0, None)
            return self.mass * np.where(x > 0, self.rate_ * np.exp(-self.rate_ * xx), 0.0)
        return self.density_(x)

    def support_bounds(self) -> tuple[float, float]:
        if self.kind == "gaussian":
            return (self.mean_ - 14 * self.sd_, self.mean_ + 14 * self.sd_)
        if self.kind == "exponential":
            return (0.0, 50.0 / self.rate_)
        return (self.density_.grid.lo, self.density_.grid.hi)

    def char_fn(self, u) -> np.ndarray:
        """Characteristic function of the normalised jump density."""
        u = np.asarray(u, dtype=float)
        if self.kind == "gaussian":
            return np.exp(1j * self.mean_ * u - 0.5 * self.sd_ ** 2 * u ** 2)
        if self.kind == "exponential":
            return self.rate_ / (self.rate_ - 1j * u)
        nodes = self.density_.grid.nodes()
        w = trapezoid_weights(self.density_.grid) * self.density_.values / self.mass
        return np.exp(1j * np.multiply.outer(u, nodes)) @ w

    def char_fn_deriv(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == "gaussian":
            return (1j * self.mean_ - self.sd_ ** 2 * u) * self.char_fn(u)
        if self.kind == "exponential":
            return 1j * self.rate_ / (self.rate_ - 1j * u) ** 2
        nodes = self.density_.grid.nodes()
        w = trapezoid_weights(self.density_.grid) * self.density_.values / self.mass
        return np.exp(1j * np.multiply.outer(u, nodes)) @ (1j * nodes * w)

    def raw_moment(self, r: int) -> float:
        """E[J^r] of the normalised jump distribution."""
        if self.kind == "gaussian":
            m, s = self.mean_, self.sd_
            return {
                1: m,
                2: m * m + s * s,
                3: m ** 3 + 3 * m * s * s,
                4: m ** 4 + 6 * m * m * s * s + 3 * s ** 4,
            }[r]
        if self.kind == "exponential":
            return math.factorial(r) / self.rate_ ** r
        nodes = self.density_.grid.nodes()
        w = trapezoid_weights(self.density_.grid) * self.density_.values / self.mass
        return float(np.sum(w * nodes ** r))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw from the normalised jump density."""
        if self.kind == "gaussian":
            return rng.normal(self.mean_, self.sd_, size)
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate_, size)
        nodes = self.density_.grid.nodes()
        dens = self.density_.values / self.mass
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * self.density_.grid.spacing)])
        cdf /= cdf[-1]
        # strictly increasing knots only, otherwise interp is ill-defined
        keep = np.concatenate([[True], np.diff(cdf) > 0])
        return np.interp(rng.uniform(size=size), cdf[keep], nodes[keep])

    def partial_first_moment(self, a: float, b: float) -> float:
        """integral_a^b x v0(x) dx (with the unnormalised density)."""
        if a >= b:
            return 0.0
        lo, hi = self.support_bounds()
        if self.kind == "tabulated":
            g = self.density_.grid
            if a < g.lo - 1e-9 or b > g.hi + 1e-9:
                raise CoverageError(
                    f"tabulated density on [{g.lo}, {g.hi}] does not cover [{a}, {b}]"
                )
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            return 0.0
        if self.kind == "tabulated":
            # dense trapezoid over the (piecewise-linear) table; adaptive
            # quadrature converges poorly on interpolants
            step = self.density_.grid.spacing / 4
            xs = np.linspace(a, b, max(9, int(np.ceil((b - a) / step)) + 1))
            return float(np.trapezoid(xs * self.pdf(xs), xs))
        val, _ = integrate.quad(lambda x: x * float(self.pdf(x)), a, b, limit=200)
        return val


# ---------------------------------------------------------------------------
# triplets


@dataclass(frozen=True)
class LevyTriplet:
    """(a, b, v): drift, Gaussian variance and Levy density."""

    a: float
    b: float
    v: JumpLaw | None

    def __post_init__(self):
        if self.b < 0:
            raise InvalidInputError("gaussian variance b must be >= 0")
        if isinstance(self.v, GridFunction):
            object.__setattr__(self, "v", JumpLaw.tabulated(self.v))


# ---------------------------------------------------------------------------
# weights h


@dataclass(frozen=True)
class WeightH:
    """Power weight h(x) = |x|^beta, or x^beta for integer beta when signed.

    beta = 0 means h = 1.  Its scaling envelope is
    s(y) = sup_x |h(x)| / |h(yx)| = |y|^(-beta).
    """

    beta: float = 1.0
    signed: bool = False

    def __post_init__(self):
        if self.beta < 0:
            raise InvalidInputError("weight exponent beta must be >= 0")
        if self.signed and abs(self.beta - round(self.beta)) > 1e-12:
            raise InvalidInputError("signed weights x^beta need integer beta")

    def h(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.beta == 0:
            return np.ones_like(x)
        if self.signed:
            return x ** int(round(self.beta))
        return np.abs(x) ** self.beta

    def s(self, y: float) -> float:
        if y == 0:
            raise InvalidInputError("s(y) defined for y != 0")
        return abs(y) ** (-self.beta)

    def ratio(self, c: float) -> float:
        """h(x) / h(c x), which is constant in x for power weights."""
        if c == 0:
            raise InvalidInputError("scaling by zero")
        out = abs(c) ** (-self.beta)
        if self.signed and (int(round(self.beta)) % 2 == 1) and c < 0:
            out = -out
        return out


# ---------------------------------------------------------------------------
# simple kernels


def _snap_groups(coeffs: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Group equal coefficients, snapping within relative 1e-12."""
    order = np.argsort(coeffs, kind="stable")
    groups: list[tuple[float, list[int]]] = []
    for i in order:
        v = coeffs[i]
        if groups and abs(v - groups[-1][0]) <= _SNAP_RTOL * max(abs(v), abs(groups[-1][0])):
            groups[-1][1].append(int(i))
        else:
            groups.append((float(v), [int(i)]))
    return [(v, np.array(sorted(ix))) for v, ix in groups]


@dataclass(frozen=True)
class SimpleKernel:
    """A simple function sum_k f_k 1_{cell_k} on unit lattice cells.

    ``offsets`` holds the integer lattice corner of each cell
    cell_k = offset_k + [0,1)^d; ``volumes`` the cell volumes (all 1 for
    lattice cells).  ``pivot_value`` optionally fixes the pivot group;
    by default the group minimising the contraction factor is used.
    """

    coeffs: np.ndarray
    offsets: np.ndarray
    volumes: np.ndarray | None = None
    pivot_value: float | None = None

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        offsets = np.asarray(self.offsets, dtype=int)
        if offsets.ndim == 1:
            offsets = offsets[:, None]
        if len(coeffs) != len(offsets):
            raise InvalidInputError("coeffs and offsets must have equal length")
        if np.any(coeffs == 0) or not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("all kernel coefficients must be nonzero finite")
        if len({tuple(o) for o in offsets}) != len(offsets):
            raise InvalidInputError("cell offsets must be pairwise distinct")
        volumes = self.volumes
        if volumes is None:
            volumes = np.ones(len(coeffs))
        volumes = np.atleast_1d(np.asarray(volumes, dtype=float))
        if np.any(volumes <= 0):
            raise InvalidInputError("cell volumes must be positive")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "volumes", volumes)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def d(self) -> int:
        return self.offsets.shape[1]

    @property
    def m_range(self) -> int:
        """Diameter of the offset set in sup-norm; dependence range of the
        integer-sampled field."""
        if self.n == 1:
            return 0
        diffs = self.offsets[:, None, :] - self.offsets[None, :, :]
        return int(np.max(np.abs(diffs)))

    def groups(self) -> list[tuple[float, np.ndarray]]:
        return _snap_groups(self.coeffs)

    def pivot_info(self, h: WeightH | None = None,
                   pivot_value: float | None = None) -> tuple[float, np.ndarray, int]:
        """Return (pivot value, pivot index set Q, n1).

        An explicitly requested pivot must match one of the coefficient
        groups.  The default pivot minimises e(f, h), ties broken by the
        largest |f|.
        """
        groups = self.groups()
        want = pivot_value if pivot_value is not None else self.pivot_value
        if want is not None:
            for v, idx in groups:
                if abs(v - want) <= max(_SNAP_RTOL * max(abs(v), abs(want)), 0.0):
                    return v, idx, len(idx)
            raise InvalidInputError(f"pivot value {want} matches no coefficient group")
        if h is None:
            h = WeightH(beta=1.0)
        best = None
        for v, idx in groups:
            e = e_factor(self, h, v)
            key = (e, -abs(v))
            if best is None or key < best[0]:
                best = (key, v, idx)
        _, v, idx = best
        return v, idx, len(idx)

    def with_pivot(self, pivot_value: float) -> "SimpleKernel":
        return replace(self, pivot_value=pivot_value)

    def sum_f_vol(self) -> float:
        return float(np.sum(self.coeffs * self.volumes))

    def sum_f2_vol(self) -> float:
        return float(np.sum(self.coeffs ** 2 * self.volumes))


def e_factor(kernel: SimpleKernel, h: WeightH, pivot_value: float) -> float:
    """Contraction factor e(f, h) = (1/n1) sum_{k not in Q} s_k (|f1|/|f_k|)^{1/2}."""
    _, q_idx, n1 = kernel.pivot_info(pivot_value=pivot_value)
    mask = np.ones(kernel.n, dtype=bool)
    mask[q_idx] = False
    fk = kernel.coeffs[mask]
    if len(fk) == 0:
        return 0.0
    sk = np.abs(fk / pivot_value) ** h.beta
    return float(np.sum(sk * np.sqrt(np.abs(pivot_value) / np.abs(fk))) / n1)


# ---------------------------------------------------------------------------
# forward maps


def u_function(u: float, a0: float, v0: JumpLaw | None) -> float:
    """U(u) = u (a0 + integral x [1_{[-1,1]}(ux) - 1_{[-1,1]}(x)] v0(x) dx)."""
    if u == 0:
        return 0.0
    if v0 is None:
        return u * a0
    c = 1.0 / abs(u)
    if v0.kind == "tabulated":
        need = max(1.0, c)
        g = v0.density_.grid
        if g.lo > -need + 1e-9 or g.hi < need - 1e-9:
            raise CoverageError(
                f"tabulated density on [{g.lo}, {g.hi}] does not cover [-{need}, {need}]"
            )
    if c > 1:
        corr = v0.partial_first_moment(1.0, c) + v0.partial_first_moment(-c, -1.0)
    elif c < 1:
        corr = -(v0.partial_first_moment(c, 1.0) + v0.partial_first_moment(-1.0, -c))
    else:
        corr = 0.0
    return u * (a0 + corr)


def forward_drift(kernel: SimpleKernel, a0: float, v0: JumpLaw | None) -> float:
    """a1 = sum_k U(f_k) vol_k."""
    return float(sum(u_function(fk, a0, v0) * vk
                     for fk, vk in zip(kernel.coeffs, kernel.volumes)))


def forward_gaussian(kernel: SimpleKernel, b0: float) -> float:
    """b1 = b0 sum_k f_k^2 vol_k."""
    if b0 < 0:
        raise InvalidInputError("b0 must be >= 0")
    return b0 * kernel.sum_f2_vol()


def forward_levy_density(kernel: SimpleKernel, v0):
    """Pointwise evaluator of v1(x) = sum_k (vol_k / |f_k|) v0(x / f_k).

    ``v0`` may be a JumpLaw or any vectorised callable.
    """
    pdf = v0.pdf if isinstance(v0, JumpLaw) else v0

    def v1(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for fk, vk in zip(kernel.coeffs, kernel.volumes):
            out = out + (vk / abs(fk)) * np.asarray(pdf(x / fk))
        return out

    return v1


def forward_g_transform(g0_eval, kernel: SimpleKernel, h: WeightH):
    """The forward operator on weighted densities g = h * v:

        g1(x) = sum_k vol_k (1/|f_k|) (h(x)/h(x/f_k)) g0(x/f_k).

    Returns a pointwise evaluator; g0_eval may be a callable or GridFunction.
    """

    def g1(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for fk, vk in zip(kernel.coeffs, kernel.volumes):
            out = out + vk / abs(fk) * h.ratio(1.0 / fk) * np.asarray(g0_eval(x / fk))
        return out

    return g1


def recover_a0_b0(kernel: SimpleKernel, a1: float, b1: float,
                  v0: JumpLaw | None) -> tuple[float, float]:
    """Invert the (a, b) forward maps given the known jump density v0.

    b0 = b1 / sum f_k^2 vol_k.  For the drift, U(f_k) = f_k (a0 + I_k) with
    I_k independent of a0, so a1 = a0 sum f_k vol_k + sum f_k vol_k I_k is
    linear in a0; it is singular when sum f_k vol_k = 0.
    """
    s2 = kernel.sum_f2_vol()
    if s2 <= 0:
        raise InvalidInputError("sum f_k^2 vol_k must be positive")
    b0 = b1 / s2
    s1 = kernel.sum_f_vol()
    if abs(s1) < 1e-14 * float(np.sum(np.abs(kernel.coeffs * kernel.volumes))):
        raise SingularRecoveryError(
            "sum f_k vol_k = 0: drift not identifiable from a1 by this route"
        )
    known = sum(u_function(fk, 0.0, v0) * vk
                for fk, vk in zip(kernel.coeffs, kernel.volumes))
    a0 = (a1 - known) / s1
    return float(a0), float(b0)


# ---------------------------------------------------------------------------
# cumulants and characteristic functions


def cumulant(triplet: LevyTriplet, t: float) -> complex:
    """K(t) = i t a - t^2 b / 2 + integral (e^{itx} - 1 - itx 1_{[-1,1]}(x)) v(x) dx."""
    out = 1j * t * triplet.a - 0.5 * t * t * triplet.b
    v = triplet.v
    if v is None or t == 0:
        return out
    lo, hi = v.support_bounds()

    def quad_piece(fn, a, b):
        if a >= b:
            return 0.0
        if v.kind == "tabulated":
            step = v.density_.grid.spacing / 4
            xs = np.linspace(a, b, max(9, int(np.ceil((b - a) / step)) + 1))
            return float(np.trapezoid(fn(xs) * v.pdf(xs), xs))
        val, _ = integrate.quad(lambda x: float(fn(np.array([x]))[0]) * float(v.pdf(x)),
                                a, b, limit=200)
        return val

    re = 0.0
    im = 0.0
    pieces = [(lo, -1.0), (-1.0, 1.0), (1.0, hi)]
    for a, b in pieces:
        a_, b_ = max(a, lo), min(b, hi)
        if a_ >= b_:
            continue
        re += quad_piece(lambda x: np.cos(t * x) - 1.0, a_, b_)
        inside = a >= -1.0 and b <= 1.0
        if inside:
            im += quad_piece(lambda x: np.sin(t * x) - t * x, a_, b_)
        else:
            im += quad_piece(lambda x: np.sin(t * x), a_, b_)
    return out + re + 1j * im


def charfn_x0(kernel: SimpleKernel, triplet: LevyTriplet, u: float) -> complex:
    """Characteristic function of X(0): exp{ sum_k vol_k K(u f_k) }."""
    return complex(np.exp(sum(vk * cumulant(triplet, u * fk)
                              for fk, vk in zip(kernel.coeffs, kernel.volumes))))


def field_char_fn(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """psi(u) for the pure-jump compound Poisson field:
    exp{ sum_k vol_k mass (phi_J(u f_k) - 1) }."""
    u = np.asarray(u, dtype=float)
    expo = np.zeros(u.shape, dtype=complex)
    for fk, vk in zip(kernel.coeffs, kernel.volumes):
        expo += vk * law.mass * (law.char_fn(u * fk) - 1.0)
    return np.exp(expo)


def field_char_fn_deriv(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """psi'(u) = psi(u) sum_k vol_k mass f_k phi_J'(u f_k)."""
    u = np.asarray(u, dtype=float)
    inner = np.zeros(u.shape, dtype=complex)
    for fk, vk in zip(kernel.coeffs, kernel.volumes):
        inner += vk * law.mass * fk * law.char_fn_deriv(u * fk)
    return field_char_fn(kernel, law, u) * inner


def field_theta(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """theta(u) = E[Y0 e^{iuY0}] = -i psi'(u)."""
    return -1j * field_char_fn_deriv(kernel, law, u)


def field_moments(kernel: SimpleKernel, law: JumpLaw) -> dict:
    """Exact moments of Y0 = X(0) for the compound Poisson field.

    Cumulants: kappa_r = mass sum_k vol_k f_k^r m_r with m_r the raw jump
    moments.
    """
    kappa = {r: law.mass * float(np.sum(kernel.volumes * kernel.coeffs ** r)) * law.raw_moment(r)
             for r in (1, 2, 3, 4)}
    k1, k2, k3, k4 = kappa[1], kappa[2], kappa[3], kappa[4]
    mean = k1
    var = k2
    m2 = k2 + k1 ** 2
    m4 = k4 + 4 * k3 * k1 + 3 * k2 ** 2 + 6 * k2 * k1 ** 2 + k1 ** 4
    return {"mean": mean, "var": var, "second": m2, "fourth": m4}


def fourier_g1_model(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """Closed-form F[g1](u) for g1 = x v1:
    -i sum_k vol_k mass f_k phi_J'(f_k u)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=complex)
    for fk, vk in zip(kernel.coeffs, kernel.volumes):
        out += vk * law.mass * fk * law.char_fn_deriv(fk * u)
    return -1j * out

"""Jump laws, simple kernels and the forward maps.

The forward maps take the characteristics (a0, b0, v0) of the integrator
measure to the characteristics (a1, b1, v1) of the stationary field
sampled at a point:

    a1 = sum_k U(f_k)
    b1 = b0 sum_k f_k^2
    v1(x) = sum_k v0(x / f_k) / |f_k|

with U(u) = u (a0 + integral x [1_{[-1,1]}(ux) - 1_{[-1,1]}(x)] v0(x) dx).
The algebraic recovery of (a0, b0) from (a1, b1) inverts the first two
relations; it is singular when sum_k f_k = 0.

:func:`forward_g_transform` is the one forward scaling operator: v1 is its
image with h = 1, the ONB system pushes the Haar basis through it, and
F[g1] (:func:`fourier_g1_model`) is its closed-form transform, of which
theta = psi F[g1].  Every integral against v0 goes through
``JumpLaw._integral``.

Jump laws have closed-form characteristic functions, except tabulated ones,
whose trapezoid sums go through :func:`grids.phase_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoverageError,
    InvalidInputError,
    SingularRecoveryError,
)
from .grids import GridFunction, _freeze, _gauss_panels, phase_sum, trapezoid_weights

__all__ = [
    "JumpLaw",
    "SimpleKernel",
    "WeightH",
    "u_function",
    "forward_drift",
    "forward_gaussian",
    "forward_levy_density",
    "forward_g_transform",
    "recover_a0_b0",
    "field_char_fn",
    "field_theta",
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
    def gaussian(mean: float = 0.0, sd: float = 1.0) -> "JumpLaw":
        if sd <= 0:
            raise InvalidInputError("gaussian law needs sd > 0")
        return JumpLaw("gaussian", mean_=mean, sd_=sd)

    @staticmethod
    def exponential(rate: float = 1.0) -> "JumpLaw":
        if rate <= 0:
            raise InvalidInputError("exponential law needs rate > 0")
        return JumpLaw("exponential", rate_=rate)

    @staticmethod
    def tabulated(density: GridFunction) -> "JumpLaw":
        """The law whose Levy density is the table, with the table's
        trapezoid integral as its mass; it keeps a read-only copy."""
        vals = np.asarray(density.values, dtype=float)
        if np.any(vals < -1e-12):
            raise InvalidInputError("tabulated density must be nonnegative")
        vals = _freeze(np.clip(vals, 0.0, None))
        density = GridFunction(density.grid, vals)
        total = float(np.sum(trapezoid_weights(density.grid) * vals))
        if total <= 0:
            raise InvalidInputError("tabulated density has zero mass")
        return JumpLaw("tabulated", mass=total, density_=density)

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
        w = trapezoid_weights(self.density_.grid) * self.density_.values / self.mass
        return phase_sum(w, self.density_.grid, u.ravel()).reshape(u.shape)

    def char_fn_deriv(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == "gaussian":
            return (1j * self.mean_ - self.sd_ ** 2 * u) * self.char_fn(u)
        if self.kind == "exponential":
            return 1j * self.rate_ / (self.rate_ - 1j * u) ** 2
        nodes = self.density_.grid.nodes()
        w = trapezoid_weights(self.density_.grid) * self.density_.values / self.mass
        return phase_sum(1j * nodes * w, self.density_.grid, u.ravel()).reshape(u.shape)

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
        if self.kind == "tabulated":
            g = self.density_.grid
            if a < g.lo - 1e-9 or b > g.hi + 1e-9:
                raise CoverageError(
                    f"tabulated density on [{g.lo}, {g.hi}] does not cover [{a}, {b}]"
                )
        return self._integral(lambda x: x, a, b)

    def _integral(self, fn, a: float, b: float) -> float:
        """integral fn(x) v0(x) dx over [a, b] intersected with the support.

        ``fn`` is vectorised.  One rule for every law: Gauss-Legendre panels
        at a table's nodes, exact on its interpolant for a polynomial ``fn``,
        and otherwise no wider than the law's scale.
        """
        lo, hi = self.support_bounds()
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            return 0.0
        if self.kind == "tabulated":
            nodes = self.density_.grid.nodes()
            edges = np.concatenate([[a], nodes[(nodes > a) & (nodes < b)], [b]])
        else:
            scale = self.sd_ if self.kind == "gaussian" else 1.0 / self.rate_
            edges = np.linspace(a, b, math.ceil((b - a) / scale) + 1)
        x, w = _gauss_panels(edges)
        return float(np.sum(w * fn(x) * self.pdf(x)))


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

    def ratio(self, c: float) -> float:
        """h(x) / h(c x), which is constant in x for power weights; c = 0 and
        a ratio that overflows raise InvalidInputError."""
        if c == 0:
            raise InvalidInputError("scaling by zero")
        try:
            out = abs(c) ** (-self.beta)
        except OverflowError:
            raise InvalidInputError(f"the weight ratio h(x)/h({c:.6g} x) overflows") from None
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


@dataclass(frozen=True, eq=False)
class SimpleKernel:
    """A simple function sum_k f_k 1_{cell_k} on unit lattice cells.

    ``offsets`` holds the integer lattice corner of each cell
    cell_k = offset_k + [0,1)^d, so every cell has volume 1 and the forward
    maps read a1 = sum_k U(f_k), b1 = b0 sum_k f_k^2 and
    v1(x) = sum_k v0(x / f_k) / |f_k|.

    A kernel is a value: it keeps read-only copies of its arrays, and
    kernels with equal array bytes are equal and hash alike.
    """

    coeffs: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.array(self.coeffs, dtype=float))
        offsets = np.array(self.offsets, dtype=int)
        if offsets.ndim == 1:
            offsets = offsets[:, None]
        if len(coeffs) != len(offsets):
            raise InvalidInputError("coeffs and offsets must have equal length")
        if np.any(coeffs == 0) or not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("all kernel coefficients must be nonzero finite")
        if len({tuple(o) for o in offsets}) != len(offsets):
            raise InvalidInputError("cell offsets must be pairwise distinct")
        _freeze((coeffs, offsets))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offsets", offsets)

    def _bytes(self) -> tuple:
        return self.coeffs.tobytes(), self.offsets.tobytes(), self.offsets.shape

    def __eq__(self, other):
        if not isinstance(other, SimpleKernel):
            return NotImplemented
        return self._bytes() == other._bytes()

    def __hash__(self):
        return hash(self._bytes())

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def d(self) -> int:
        return self.offsets.shape[1]

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
        if pivot_value is not None:
            for v, idx in groups:
                if abs(v - pivot_value) <= max(_SNAP_RTOL * max(abs(v), abs(pivot_value)), 0.0):
                    return v, idx, len(idx)
            raise InvalidInputError(f"pivot value {pivot_value} matches no coefficient group")
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

    def sum_f(self) -> float:
        return float(np.sum(self.coeffs))

    def sum_f2(self) -> float:
        return float(np.sum(self.coeffs ** 2))


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
    if c > 1:
        corr = v0.partial_first_moment(1.0, c) + v0.partial_first_moment(-c, -1.0)
    elif c < 1:
        corr = -(v0.partial_first_moment(c, 1.0) + v0.partial_first_moment(-1.0, -c))
    else:
        corr = 0.0
    return u * (a0 + corr)


def forward_drift(kernel: SimpleKernel, a0: float, v0: JumpLaw | None) -> float:
    """a1 = sum_k U(f_k)."""
    return float(sum(u_function(fk, a0, v0) for fk in kernel.coeffs))


def forward_gaussian(kernel: SimpleKernel, b0: float) -> float:
    """b1 = b0 sum_k f_k^2."""
    if b0 < 0:
        raise InvalidInputError("b0 must be >= 0")
    return b0 * kernel.sum_f2()


def forward_levy_density(kernel: SimpleKernel, v0):
    """Pointwise evaluator of v1(x) = sum_k v0(x / f_k) / |f_k|.

    ``v0`` may be a JumpLaw or any vectorised callable.  This is the
    forward operator with the weight h = 1.
    """
    pdf = v0.pdf if isinstance(v0, JumpLaw) else v0
    return forward_g_transform(pdf, kernel, WeightH(beta=0.0))


def forward_g_transform(g0_eval, kernel: SimpleKernel, h: WeightH):
    """The forward operator on weighted densities g = h * v:

        g1(x) = sum_k (1/|f_k|) (h(x)/h(x/f_k)) g0(x/f_k).

    Returns a pointwise evaluator; g0_eval may be a callable or GridFunction.
    """

    def g1(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for fk in kernel.coeffs:
            out = out + 1.0 / abs(fk) * h.ratio(1.0 / fk) * np.asarray(g0_eval(x / fk))
        return out

    return g1


def recover_a0_b0(kernel: SimpleKernel, a1: float, b1: float,
                  v0: JumpLaw | None) -> tuple[float, float]:
    """Invert the (a, b) forward maps given the known jump density v0.

    b0 = b1 / sum f_k^2.  For the drift, U(f_k) = f_k (a0 + I_k) with I_k
    independent of a0, so a1 = a0 sum f_k + sum f_k I_k is linear in a0;
    it is singular when sum f_k = 0.
    """
    s2 = kernel.sum_f2()
    if s2 <= 0:
        raise InvalidInputError("sum f_k^2 must be positive")
    b0 = b1 / s2
    s1 = kernel.sum_f()
    if abs(s1) < 1e-14 * float(np.sum(np.abs(kernel.coeffs))):
        raise SingularRecoveryError("sum f_k = 0: drift not identifiable from a1 by this route")
    a0 = (a1 - forward_drift(kernel, 0.0, v0)) / s1
    return float(a0), float(b0)


# ---------------------------------------------------------------------------
# characteristic functions


def field_char_fn(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """psi(u) for the pure-jump compound Poisson field:
    exp{ sum_k mass (phi_J(u f_k) - 1) }."""
    u = np.asarray(u, dtype=float)
    expo = np.zeros(u.shape, dtype=complex)
    for fk in kernel.coeffs:
        expo += law.mass * (law.char_fn(u * fk) - 1.0)
    return np.exp(expo)


def field_theta(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """theta(u) = E[Y0 e^{iuY0}] = -i psi'(u) = psi(u) F[g1](u)."""
    return field_char_fn(kernel, law, u) * fourier_g1_model(kernel, law, u)


def fourier_g1_model(kernel: SimpleKernel, law: JumpLaw, u) -> np.ndarray:
    """Closed-form F[g1](u) for g1 = x v1:
    -i sum_k mass f_k phi_J'(f_k u)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=complex)
    for fk in kernel.coeffs:
        out += law.mass * fk * law.char_fn_deriv(fk * u)
    return -1j * out

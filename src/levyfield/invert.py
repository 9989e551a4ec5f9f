"""The inverse problem g1 -> g0: contraction verification, the truncated
fixed-point series, the plug-in and Fourier-method estimators and their
error bounds.

The fixed-point series for the weighted density g0 = h v0 reads

    g0(x) = (|f1|/n1) (h(x)/h(f1 x)) g1(f1 x)
          + sum_{j>=1} (-1)^j sum_{i_1,..,i_j not in Q}
            ((|f1|/n1)^{j+1} / |f_{i1}..f_{ij}|)
            (h(x)/h(scale x)) g1(scale x),   scale = f1^{j+1}/(f_{i1}..f_{ij}).

Raw enumeration is exponential in the depth; terms are grouped by the
multiset of non-pivot coefficient values with multinomial multiplicities,
which is polynomial in the depth and exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundInapplicableError,
    CoverageError,
    InvalidInputError,
    ResourceLimitError,
)
from .grids import Grid1D, GridFunction, fourier_inverse_truncated, symmetric_grid
from .model import SimpleKernel, WeightH, e_factor

__all__ = [
    "ContractionReport",
    "SeriesTerm",
    "SeriesPlan",
    "contraction_factor",
    "build_series_plan",
    "plugin_estimate",
    "plugin_error_bound",
    "fourier_estimate",
    "fourier_error_bound",
]


@dataclass(frozen=True)
class ContractionReport:
    """Evaluation of the contraction factor e(f, h) for a pivot choice."""

    pivot_value: float
    n1: int
    e_factor: float
    per_term: tuple  # (index k, s_k, contribution to e)
    satisfied: bool


def contraction_factor(kernel: SimpleKernel, h: WeightH,
                       pivot_value: float | None = None) -> ContractionReport:
    """e(f, h) = (1/n1) sum_{k: f_k != f1} s_k (|f1|/|f_k|)^{1/2},
    s_k = |f_k/f1|^beta.  Reports satisfied = (e < 1) instead of raising."""
    pivot, q_idx, n1 = kernel.pivot_info(h, pivot_value)
    per_term = []
    for k in range(kernel.n):
        if k in q_idx:
            continue
        sk = h.s(pivot / kernel.coeffs[k])
        contrib = sk * math.sqrt(abs(pivot) / abs(kernel.coeffs[k])) / n1
        per_term.append((k, sk, contrib))
    total = e_factor(kernel, h, pivot)
    return ContractionReport(pivot_value=pivot, n1=n1, e_factor=total,
                             per_term=tuple(per_term), satisfied=total < 1.0)


@dataclass(frozen=True)
class SeriesTerm:
    """One grouped series term: ``count`` raw multi-indices of length
    ``depth`` whose coefficient product equals ``product``.

    ``multiplicities`` records how often each distinct non-pivot value
    (in the order of SeriesPlan.values) occurs in the underlying multiset.
    """

    depth: int
    product: float
    count: float
    multiplicities: tuple = ()

    def scale(self, pivot: float) -> float:
        return pivot ** (self.depth + 1) / self.product


@dataclass(frozen=True)
class SeriesPlan:
    """Grouped truncation of the fixed-point series up to depth n_N."""

    pivot_value: float
    n1: int
    h: WeightH
    n_trunc: int
    values: tuple = ()
    terms: tuple = field(default=(), repr=False)

    def grouped_terms(self):
        """(scale, weight, sign, depth) rows of the series.

        ``weight`` is the nonnegative magnitude factor of the raw series,
        multiplicity included: count * (|f1|/n1)^{depth+1} / |product|.
        Consumers multiply by sign and by the h-ratio h(x)/h(scale x).
        """
        rows = []
        for t in self.terms:
            scale = t.scale(self.pivot_value)
            sign = -1.0 if t.depth % 2 else 1.0
            w = t.count * (abs(self.pivot_value) / self.n1) ** (t.depth + 1) / abs(t.product)
            rows.append((scale, w, sign, t.depth))
        return rows

    def spectral_terms(self, beta: int):
        """(scale, weight) rows for assembling F[g0] from F[g1]:
        the term reads weight * F[g1](u / scale)."""
        rows = []
        for t in self.terms:
            scale = t.scale(self.pivot_value)
            sign = -1.0 if t.depth % 2 else 1.0
            w = sign * t.count * (np.sign(scale) ** beta) * abs(scale) ** (-beta) \
                / self.n1 ** (t.depth + 1)
            rows.append((scale, w))
        return rows


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of length ``parts`` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def build_series_plan(kernel: SimpleKernel, h: WeightH, n_trunc: int,
                      term_budget: int = 200_000) -> SeriesPlan:
    """Group the raw multi-index series by multisets of non-pivot values.

    Term count is sum_j C(j + g - 1, g - 1) with g the number of distinct
    non-pivot values, versus (n - n1)^j raw tuples.
    """
    if not np.allclose(kernel.volumes, 1.0):
        raise InvalidInputError("series inversion assumes unit cell volumes")
    if n_trunc < 0:
        raise InvalidInputError("truncation depth must be >= 0")
    pivot, q_idx, n1 = kernel.pivot_info(h)
    e = e_factor(kernel, h, pivot)
    if e >= 1.0:
        warnings.warn(
            f"contraction factor e = {e:.6g} >= 1; the series need not converge",
            RuntimeWarning,
        )
    # distinct non-pivot values with multiplicities
    values = []
    counts = []
    for v, idx in kernel.groups():
        if v == pivot:
            continue
        values.append(v)
        counts.append(len(idx))
    g = len(values)
    terms = [SeriesTerm(depth=0, product=1.0, count=1.0, multiplicities=(0,) * g)]
    if g > 0:
        budget = sum(math.comb(j + g - 1, g - 1) for j in range(1, n_trunc + 1))
        if budget > term_budget:
            raise ResourceLimitError(
                f"grouped series needs {budget} terms (> {term_budget}); "
                f"reduce n_N below {n_trunc}"
            )
        for j in range(1, n_trunc + 1):
            for m in _compositions(j, g):
                count = math.factorial(j)
                prod = 1.0
                for mt, vt, ct in zip(m, values, counts):
                    count //= math.factorial(mt)
                    count *= ct ** mt
                    prod *= vt ** mt
                terms.append(SeriesTerm(depth=j, product=prod, count=float(count),
                                        multiplicities=tuple(m)))
    return SeriesPlan(pivot_value=pivot, n1=n1, h=h, n_trunc=n_trunc,
                      values=tuple(values), terms=tuple(terms))


def plugin_estimate(g1_eval, kernel: SimpleKernel, h: WeightH, n_trunc: int,
                    x_grid: Grid1D) -> GridFunction:
    """Truncated fixed-point series applied to an estimate (or exact
    evaluation) of g1; off-grid GridFunction arguments use linear
    interpolation with zero extension."""
    plan = build_series_plan(kernel, h, n_trunc)
    x = x_grid.nodes()
    out = np.zeros(len(x))
    for scale, w, sign, _depth in plan.grouped_terms():
        out += sign * w * h.ratio(scale) * np.asarray(g1_eval(scale * x), dtype=float)
    return GridFunction(x_grid, out)


def plugin_error_bound(e_factor_: float, s_f1: float, f1: float, n1: int,
                       n_trunc: int, err_g1: float, norm_g1: float) -> float:
    """L2-error bound of the truncated plug-in series:

        (|f1|^{1/2}/n1) s(f1) [ (1 + sum_{j<=n_N} e^j) err_g1
                                + e^{n_N+1} ||g1||_2 / (1 - e) ].
    """
    if e_factor_ >= 1.0:
        raise BoundInapplicableError(f"bound requires e < 1, got {e_factor_}")
    if e_factor_ < 0 or err_g1 < 0 or norm_g1 < 0:
        raise InvalidInputError("inputs must be nonnegative")
    geom = sum(e_factor_ ** j for j in range(1, n_trunc + 1))
    tail = e_factor_ ** (n_trunc + 1) * norm_g1 / (1.0 - e_factor_)
    return (math.sqrt(abs(f1)) / n1) * s_f1 * ((1.0 + geom) * err_g1 + tail)


def fourier_estimate(fg1_hat: GridFunction, kernel: SimpleKernel, beta: int,
                     n_trunc: int, l: float, x_grid: Grid1D) -> GridFunction:
    """Spectral-domain inversion: assemble the F[g0] estimate on
    [-pi l, pi l] from F[g1] evaluated at scaled arguments, then apply the
    truncated inverse transform.

    Requires h(x) = x^beta with integer beta.  The sufficient condition
    e(f, |.|^{beta+1/2}) < 1 is checked and reported as a warning when
    violated.
    """
    if beta != int(beta) or beta < 0:
        raise InvalidInputError("the Fourier method needs integer beta >= 0")
    beta = int(beta)
    h = WeightH(beta=beta, signed=True)
    plan = build_series_plan(kernel, h, n_trunc)
    e_cond = e_factor(kernel, WeightH(beta=beta + 0.5), plan.pivot_value)
    if e_cond >= 1.0:
        warnings.warn(
            f"e(f, |.|^(beta+1/2)) = {e_cond:.6g} >= 1; the spectral series "
            "need not converge", RuntimeWarning,
        )
    rows = plan.spectral_terms(beta)
    max_arg = np.pi * l / min(abs(s) for s, _ in rows)
    if fg1_hat.grid.hi < max_arg * (1 - 1e-9):
        raise CoverageError(
            f"F[g1] grid reaches {fg1_hat.grid.hi:.6g} but scaled arguments "
            f"need {max_arg:.6g}"
        )
    du = fg1_hat.grid.spacing
    n_u = int(np.ceil(2 * np.pi * l / du)) + 1
    if n_u % 2 == 0:
        n_u += 1
    n_u = max(n_u, 129)
    u_grid = symmetric_grid(np.pi * l, n_u)
    u = u_grid.nodes()
    f0 = np.zeros(len(u), dtype=complex)
    for scale, w in rows:
        f0 += w * fg1_hat(u / scale)
    est, _resid = fourier_inverse_truncated(GridFunction(u_grid, f0), x_grid)
    return est


def fourier_error_bound(kernel: SimpleKernel, beta: int, n_trunc: int, l: float,
                        err_of_cutoff, norm_g1: float) -> float:
    """Literal evaluation of the Fourier-method error bound

        (1/(n1 |f1|^beta)) [ err(l/|f1|)
            + sum_{j<=n_N} sum_{multi} (s_{i1}..s_{ij}/n1^j) err(|P/f1^{j+1}| l)
            + e_F^{n_N+1} ||g1||_2 / (1 - e_F) ]

    with s_k = (|f_k|/|f1|)^beta and e_F = (1/n1) sum s_k.
    ``err_of_cutoff`` maps a cutoff to the corresponding g1 error norm.
    """
    h = WeightH(beta=beta, signed=True)
    plan = build_series_plan(kernel, h, n_trunc)
    f1, n1 = plan.pivot_value, plan.n1
    e_cond = e_factor(kernel, WeightH(beta=beta + 0.5), f1)
    if e_cond >= 1.0:
        raise BoundInapplicableError(
            f"bound requires e(f,|.|^(beta+1/2)) < 1, got {e_cond}"
        )
    total = 0.0
    for t in plan.terms:
        if t.depth == 0:
            total += err_of_cutoff(l / abs(f1))
        else:
            s_prod = (abs(t.product) / abs(f1) ** t.depth) ** beta
            cutoff = abs(t.product / f1 ** (t.depth + 1)) * l
            total += t.count * s_prod / n1 ** t.depth * err_of_cutoff(cutoff)
    total += e_cond ** (n_trunc + 1) / (1.0 - e_cond) * norm_g1
    return total / (n1 * abs(f1) ** beta)

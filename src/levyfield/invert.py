"""The inverse problem g1 -> g0: contraction verification, the truncated
fixed-point series, the plug-in and Fourier-method estimators and their
error bounds.

The fixed-point series for the weighted density g0 = h v0 is one table
of (scale, coefficient) rows, g0(x) = sum_t c_t g1(s_t x), over depths
j >= 0 and multi-indices i_1..i_j not in Q (P = f_{i1}..f_{ij}):

    s_t = f1^{j+1} / P,   c_t = (-1)^j ((|f1|/n1)^{j+1} / |P|) h(x)/h(s_t x).

The plug-in method sums it directly, and the Fourier method sums its
transform F[g0](u) = sum_t (c_t/|s_t|) F[g1](u/s_t).  Raw enumeration is
exponential in the depth; terms are grouped by the multiset of non-pivot
coefficient values with multinomial multiplicities, which is polynomial
in the depth and exact.
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
from .grids import Grid1D, GridFunction, _kept, _restrict_symmetric, fourier_inverse_truncated
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

# most points one g1_eval call of plugin_estimate is given
_G1_CALL_POINTS = 1 << 18
# most grouped terms build_series_plan builds
_TERM_BUDGET = 200_000


@dataclass(frozen=True)
class ContractionReport:
    """Evaluation of the contraction factor e(f, h) for a pivot choice."""

    pivot_value: float
    n1: int
    e_factor: float
    satisfied: bool


def contraction_factor(kernel: SimpleKernel, h: WeightH,
                       pivot_value: float | None = None) -> ContractionReport:
    """e(f, h) = (1/n1) sum_{k: f_k != f1} s_k (|f1|/|f_k|)^{1/2},
    s_k = |f_k/f1|^beta.  Reports satisfied = (e < 1) instead of raising."""
    pivot, _, n1 = kernel.pivot_info(h, pivot_value)
    e = e_factor(kernel, h, pivot)
    return ContractionReport(pivot_value=pivot, n1=n1, e_factor=e, satisfied=e < 1.0)


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


@dataclass(frozen=True)
class SeriesPlan:
    """Grouped truncation of the fixed-point series up to depth n_N, with the
    contraction factors e(f, h) and e(f, |.|^(beta+1/2)) at its pivot."""

    pivot_value: float
    n1: int
    h: WeightH
    n_trunc: int
    e: float
    e_spectral: float
    values: tuple = ()
    terms: tuple = field(default=(), repr=False)

    @np.errstate(all="ignore")
    def grouped_terms(self):
        """The series table: one (scale, coefficient) row per term of
        ``terms``, its count times the module docstring's s_t and c_t,
        computed when read.  A scale that is 0 or not finite, or a
        coefficient that is not finite, raises InvalidInputError."""
        f1 = np.float64(self.pivot_value)
        rows = []
        for t in self.terms:
            scale = float(f1 ** (t.depth + 1) / t.product)
            if scale == 0 or not math.isfinite(scale):
                raise InvalidInputError(f"a series scale f1^{t.depth + 1}/product is "
                                        f"{scale:.6g}, not a finite nonzero number")
            sign = -1.0 if t.depth % 2 else 1.0
            coef = float(sign * t.count * (abs(f1) / self.n1) ** (t.depth + 1)
                         / abs(t.product)) * self.h.ratio(scale)
            if not math.isfinite(coef):
                raise InvalidInputError(f"a series coefficient at depth {t.depth} is {coef:.6g}")
            rows.append((scale, coef))
        return rows

    def spectral_terms(self, beta: int):
        """The table's Fourier view: (scale, coefficient/|scale|) per row, the
        term reading weight * F[g1](u / scale).  The plan's h must be x^beta."""
        if self.h != WeightH(beta=beta, signed=True):
            raise InvalidInputError(f"the plan's weight is {self.h}, not x^{beta}")
        return [(scale, coef / abs(scale)) for scale, coef in self.grouped_terms()]


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of length ``parts`` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def build_series_plan(kernel: SimpleKernel, h: WeightH, n_trunc: int) -> SeriesPlan:
    """Group the raw multi-index series by multisets of non-pivot values,
    into a plan whose (scale, coefficient) table :meth:`SeriesPlan.grouped_terms` reads.

    Term count is sum_j C(j + g - 1, g - 1) with g the number of distinct
    non-pivot values, versus (n - n1)^j raw tuples; a plan of more than
    _TERM_BUDGET terms raises ResourceLimitError.  The plan is kept, and
    every call warns when the contraction factor e(f, h) is at least 1.
    """
    if n_trunc < 0:
        raise InvalidInputError("truncation depth must be >= 0")
    plan = _series_plan(kernel, h, n_trunc)
    if plan.e >= 1.0:
        warnings.warn(
            f"contraction factor e = {plan.e:.6g} >= 1; the series need not converge",
            RuntimeWarning,
        )
    return plan


# counting the rows of a plan whose distinct coefficient values stay apart when
# snapped into groups: at least its rows, C(n_trunc + g, g)
@_kept(lambda kernel, h, n_trunc: math.comb(n_trunc + len(set(kernel.coeffs.tolist())) - 1,
                                            n_trunc))
@np.errstate(over="ignore")  # a product out of range is 0 or inf, which the table refuses
def _series_plan(kernel: SimpleKernel, h: WeightH, n_trunc: int) -> SeriesPlan:
    """The plan of :func:`build_series_plan`."""
    pivot, q_idx, n1 = kernel.pivot_info(h)
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
        budget = math.comb(n_trunc + g, g) - 1  # the docstring's sum, in closed form
        if budget > _TERM_BUDGET:
            raise ResourceLimitError(
                f"grouped series needs {budget} terms (> {_TERM_BUDGET}); "
                f"reduce n_N below {n_trunc}"
            )
        for j in range(1, n_trunc + 1):
            for m in _compositions(j, g):
                count = math.factorial(j)
                prod = 1.0
                for mt, vt, ct in zip(m, values, counts):
                    count //= math.factorial(mt)
                    count *= ct ** mt
                    prod *= np.float64(vt) ** mt
                try:
                    count = float(count)
                except OverflowError:  # past the float range: the table refuses the row
                    count = math.inf
                terms.append(SeriesTerm(depth=j, product=float(prod), count=count,
                                        multiplicities=tuple(m)))
    return SeriesPlan(pivot_value=pivot, n1=n1, h=h, n_trunc=n_trunc,
                      e=e_factor(kernel, h, pivot),
                      e_spectral=e_factor(kernel, WeightH(beta=h.beta + 0.5), pivot),
                      values=tuple(values), terms=tuple(terms))


def plugin_estimate(g1_eval, kernel: SimpleKernel, h: WeightH, n_trunc: int,
                    x_grid: Grid1D) -> GridFunction:
    """Truncated fixed-point series applied to an estimate (or exact
    evaluation) of g1; off-grid GridFunction arguments use linear
    interpolation with zero extension.

    g1_eval is called on the points scale * x of as many terms in turn as
    fit in _G1_CALL_POINTS points (at least one term), so that an estimate
    evaluated by one transform shares it across terms while the points of
    one call stay bounded whatever the series depth.
    """
    x = x_grid.nodes()
    rows = build_series_plan(kernel, h, n_trunc).grouped_terms()
    per_call = max(1, _G1_CALL_POINTS // len(x))
    out = np.zeros(len(x))
    for start in range(0, len(rows), per_call):
        chunk = rows[start:start + per_call]
        g1 = np.asarray(g1_eval(np.concatenate([scale * x for scale, _ in chunk])),
                        dtype=float)
        for (_, coef), g1_scaled in zip(chunk, g1.reshape(len(chunk), len(x))):
            out += coef * g1_scaled
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
    """Spectral-domain inversion: assemble the F[g0] estimate on F[g1]'s
    grid restricted to |u| <= pi l, as g1_hat_at restricts it, from F[g1]
    at scaled arguments (up to pi l / min|scale|, which the grid must
    reach), then apply the truncated inverse transform.  The rows are the
    plan's :meth:`SeriesPlan.spectral_terms`.

    Requires h(x) = x^beta with integer beta >= 0 (WeightH refuses others).
    The sufficient condition e(f, |.|^{beta+1/2}) < 1 is checked and
    reported as a warning when violated.
    """
    plan = build_series_plan(kernel, WeightH(beta=beta, signed=True), n_trunc)
    if plan.e_spectral >= 1.0:
        warnings.warn(
            f"e(f, |.|^(beta+1/2)) = {plan.e_spectral:.6g} >= 1; the spectral series "
            "need not converge", RuntimeWarning,
        )
    rows = plan.spectral_terms(beta)
    max_arg = np.pi * l / min(abs(s) for s, _ in rows)
    if fg1_hat.grid.hi < max_arg * (1 - 1e-9):
        raise CoverageError(
            f"F[g1] grid reaches {fg1_hat.grid.hi:.6g} but scaled arguments "
            f"need {max_arg:.6g}"
        )
    u_grid = _restrict_symmetric(fg1_hat, np.pi * l).grid
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
    plan = build_series_plan(kernel, WeightH(beta=beta, signed=True), n_trunc)
    f1, n1, e_cond = plan.pivot_value, plan.n1, plan.e_spectral
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

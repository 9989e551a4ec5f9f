"""Grid-sampled functions, quadrature, L2 geometry and Fourier transforms.

All functions live on uniform 1-d grids and are treated as zero off-grid.
The Fourier convention is

    forward:  F(u) = integral exp(+i u x) f(x) dx
    inverse:  g(x) = (1/2pi) integral exp(-i x u) F(u) du

so that Plancherel reads ||F f||_2^2 = 2 pi ||f||_2^2.

Quadrature on grids is composite trapezoid, and off them one fixed
Gauss-Legendre rule on panels (:func:`_gauss_panels`).  Every transform of the package (and
the empirical characteristic function) is one exponential sum
sum_j c_j exp(+-i u_k x_j), by one of two non-uniform FFTs chosen by the
kind of its sources.  Sources on a Grid1D (every transform of a
GridFunction) go through :func:`phase_sum`, the type-2 NUFFT, which
takes one coefficient row, at any targets; one sample's scattered values
go through :func:`_nufft_sum`, the type-1 NUFFT, which returns the ECF's
two sums over it, of 1 and of Y, on its half-grid u_m = m du from
u = 0; it spreads by per-cell Chebyshev moments of the sources, not by
evaluating the kernel at each source's taps.  Both serve every size from
2 sources or targets up and agree with the direct O(n*m) sum
:func:`_direct_sum` to about 1e-13 of sum_j |c_j|; the direct sum is the
tests' reference, and they pin 1e-10.
Every spectral method reads F[g1] on one grid, the ECF's u-grid
restricted to |u| <= pi l (:func:`_restrict_symmetric`, a view).
Convolution is one circular FFT product (:func:`convolve`) of the
smallest 5-smooth length (:func:`_fast_len`) at which no lag folds onto a
kept one.  No grid or FFT may have more than ``_MAX_CELLS`` nodes
(:func:`_check_budget`), the periodic grid of either NUFFT included, and
neither NUFFT places a point more than ``_MAX_POSITION`` grid points from
the origin.

Work that depends on the config alone is kept, by one rule, :func:`_kept`:
the series plans, ONB systems, smoothing taps and each pipeline's setup,
and here the grids' nodes and trapezoid weights, the NUFFTs' fine grid,
type-1 cell series and type-2 plans, the |u| <= pi l window and the
convolution's spectrum.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, GridMismatchError, InvalidInputError, ResourceLimitError

__all__ = [
    "Grid1D",
    "GridFunction",
    "symmetric_grid",
    "trapezoid_weights",
    "l2_norm",
    "phase_sum",
    "fourier_forward",
    "fourier_inverse_truncated",
    "inverse_transform_at",
    "convolve",
]

# Largest node count of any allocated grid (x-, u- and kernel grids, Haar
# cells, simulation cells, convolution FFTs)
_MAX_CELLS = 50_000_000
# Width, in grid points, of the exponential-of-semicircle spreading kernel of
# the non-uniform FFT: with beta = 2.30 * width and oversampling 2 it leaves
# a relative error near 1e-14.
_ES_WIDTH = 16
# sources spread per block of the type-1 NUFFT, targets per plan of the
# type-2 NUFFT, and the most points a kept result holds (:func:`_kept`);
# bounds the type-1 per-block scratch, eight rows of the block and the
# moments of its occupied nodes, at about 1.4 MB, and a type-2 plan at
# 4.5 MB, while each numpy call still covers many points
_SPREAD_BLOCK = 1 << 14
# Largest |position|, in fine-grid points, that either NUFFT places: past 2^52
# adjacent doubles lie a whole grid point apart, so no offset between taps is left
_MAX_POSITION = 2.0 ** 52
# argument sets whose results each kept function keeps (:func:`_kept`)
_KEEP = 8
# Chebyshev terms of each tap's kernel series on one fine-grid cell
# (:func:`_cell_series`): the fewest within 1e-14 of the kernel's peak, the
# kernel's own error, so that the series adds none of its own (13 terms give
# 9.4e-15; 12 give 4.6e-14 and 11 give 1.1e-12)
_CELL_TERMS = 13
# Gauss-Legendre nodes per panel of :func:`_gauss_panels`, exact to degree 39
_GAUSS_NODES = 20
# Bytes of the block allocated and freed once at import.  glibc serves a
# block this large, more than the heap's free top holds at import, with its
# own mapping and, when it is freed, raises its dynamic mmap threshold to the
# block's size and its trim threshold to twice that, as it does for any
# large freed array; under other allocators it is one short-lived block.
# Below those thresholds the pipelines' per-op arrays (about 0.6 MB in one
# oracle Fourier op's inverse transform) are reused from the heap between
# ops instead of being trimmed and faulted back in each op.  Without this
# the thresholds rose only if some earlier large temporary happened to be
# mapped rather than cut from free heap, which depended on the process's
# heap layout.
_HEAP_FLOOR = 1 << 21
np.empty(_HEAP_FLOOR, dtype=np.uint8)


def _freeze(value):
    """value, with its arrays made read-only: value itself or the members of
    a tuple, and the fields of a dataclass among them, recursively, except
    a tuple held by a dataclass, so the rows of a series plan are never
    visited."""
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
        elif dataclasses.is_dataclass(item):
            _freeze(tuple(v for v in vars(item).values() if not isinstance(v, tuple)))
    return value


def _kept(size):
    """The one rule by which a function whose results depend on its
    arguments alone (in the pipelines, on the config alone) keeps them:

    - the results of its last _KEEP argument sets are kept and handed out
      again (``functools.lru_cache``; ``cache_clear`` and ``cache_info``
      stay on the kept function);
    - each result's arrays are made read-only (:func:`_freeze`) inside the
      kept function, so no thread sees a writable kept array;
    - a call that raises keeps nothing;
    - a call whose ``size(*args)`` is over _SPREAD_BLOCK points computes
      afresh and keeps nothing.  Each site counts, before computing, the
      points its result holds (grid nodes, taps, series rows); a type-2
      plan counts its call's targets over _KEEP, so a call of more than
      _KEEP blocks keeps none.  So a one-off grid of up to _MAX_CELLS nodes
      is never kept."""

    def wrap(fn):
        @functools.wraps(fn)
        def frozen(*args):
            return _freeze(fn(*args))

        keep = functools.lru_cache(maxsize=_KEEP)(frozen)

        @functools.wraps(fn)
        def call(*args):
            return (keep if size(*args) <= _SPREAD_BLOCK else frozen)(*args)

        call.cache_clear, call.cache_info = keep.cache_clear, keep.cache_info
        return call

    return wrap


def _check_budget(n: int, what: str) -> None:
    """Refuse, before anything is allocated, a grid of more than _MAX_CELLS
    nodes or cells, with ResourceLimitError (CLI exit 3)."""
    if n > _MAX_CELLS:
        raise ResourceLimitError(f"{n} {what} exceed the budget of {_MAX_CELLS}")


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
        _check_budget(self.n, "grid nodes")
        if not np.finfo(float).tiny <= self.spacing < np.inf:
            raise InvalidInputError(f"grid spacing {self.spacing} is not a finite normal float")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @_kept(lambda self: self.n)
    def nodes(self) -> np.ndarray:
        """The n nodes, read-only."""
        return np.linspace(self.lo, self.hi, self.n)

    def is_symmetric(self) -> bool:
        """lo = -hi within 1e-9 of the grid's width."""
        return abs(self.lo + self.hi) <= 1e-9 * (self.hi - self.lo)


def symmetric_grid(half_width: float, n: int) -> Grid1D:
    """Grid on [-half_width, half_width].  Odd n puts the middle node at 0
    only up to rounding: it may sit a few ulps of half_width off 0."""
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
        """Linear interpolation with zero extension outside the grid, of
        complex values too, in one np.interp call."""
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.grid.nodes(), self.values, left=0.0, right=0.0)


@_kept(lambda grid: grid.n)
def trapezoid_weights(grid: Grid1D) -> np.ndarray:
    """The grid's n trapezoid weights, read-only."""
    w = np.full(grid.n, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _gauss_panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_GAUSS_NODES``-point Gauss-Legendre rule
    on each panel [edges[i], edges[i + 1]], flattened.  On [-1, 1] the nodes
    are the eigenvalues of the Legendre recurrence's Jacobi matrix and the
    weights twice their eigenvectors' squared first components (Golub-Welsch)."""
    k = np.arange(1.0, _GAUSS_NODES)
    t, v = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1 + t)).ravel(), (half * 2 * v[0] ** 2).ravel()


def l2_norm(f: GridFunction) -> float:
    """Trapezoid approximation of the L2 norm, zero extension off-grid."""
    w = trapezoid_weights(f.grid)
    return float(np.sqrt(np.sum(w * np.abs(f.values) ** 2)))


def _direct_sum(coef: np.ndarray, x: np.ndarray, u: np.ndarray, sign: float) -> np.ndarray:
    """sum_j coef_j exp(sign * i * u_k * x_j) by the phase matrix, built in
    chunks of about 4e6 entries, applied to every coefficient row: the
    reference that the tests hold both NUFFTs to."""
    coef = np.asarray(coef)
    out = np.empty(coef.shape[:-1] + (len(u),), dtype=complex)
    chunk = max(1, int(4e6 // max(len(x), 1)))
    for start in range(0, len(u), chunk):
        ub = u[start:start + chunk]
        out[..., start:start + chunk] = coef @ np.exp(sign * 1j * np.outer(x, ub))
    return out


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """The exponential-of-semicircle kernel exp(beta (sqrt(1 - z^2) - 1)) on
    |z| <= 1, with beta = 2.30 * _ES_WIDTH, evaluated in place: z is
    overwritten by the kernel values and returned."""
    np.multiply(z, z, out=z)
    np.subtract(1.0, z, out=z)
    np.sqrt(z, out=z)
    z -= 1.0
    z *= 2.30 * _ES_WIDTH
    return np.exp(z, out=z)


@_kept(lambda max_index: 4 * max_index)
def _fine_grid(max_index: int) -> tuple[int, np.ndarray]:
    """The periodic grid of both NUFFTs for Fourier indices |m| <= max_index:
    its size m_r, the power of two >= 4 max_index (oversampling >= 2) and
    >= 4 _ES_WIDTH (so that the kernel's taps fit on it at any index), and
    the DFT of the kernel sampled on it at indices 0 .. m_r / 2 (2 to 4
    max_index values above the floor; :func:`_kept` counts 4 max_index).
    A grid past _MAX_CELLS points is refused before it is allocated."""
    m_r = max(4 * _ES_WIDTH, 1 << (4 * max_index - 1).bit_length())
    _check_budget(m_r, "non-uniform FFT grid points")
    half = _ES_WIDTH // 2
    sampled = np.zeros(m_r)
    nodes = np.arange(-half, half + 1)
    sampled[nodes] = _es_kernel(nodes / half)
    return m_r, np.fft.rfft(sampled).real


def _tap_nodes(t: np.ndarray, m_r: int) -> np.ndarray:
    """The nodes floor(t) mod m_r of grid positions t; t becomes, in place, the
    offset past its node in units of half the kernel width.  A position beyond
    _MAX_POSITION, or not finite, raises InvalidInputError before the cast."""
    peak = np.max(np.abs(t), initial=0.0)
    if not peak <= _MAX_POSITION:
        raise InvalidInputError(f"non-uniform FFT position {peak:.6g} is beyond 2^52 grid points")
    base = np.floor(t)
    t -= base
    t /= _ES_WIDTH // 2
    return base.astype(np.int64) & (m_r - 1)


@_kept(lambda: _ES_WIDTH * _CELL_TERMS)
def _cell_series() -> np.ndarray:
    """The (_ES_WIDTH, _CELL_TERMS) Chebyshev coefficients C of the kernel's
    taps on one fine-grid cell: a source f in [0, 1) grid points past its
    node gives tap tau, at the node tau - half + 1 from it, the kernel value
    _es_kernel((tau - half + 1 - f) / half) = sum_d C[tau, d] T_d(2 f - 1).
    Each row interpolates its tap at the _CELL_TERMS Chebyshev points of the
    first kind, by the cosine sum of the discrete Chebyshev transform."""
    n, half = _CELL_TERMS, _ES_WIDTH // 2
    k = np.arange(n) + 0.5
    f = (np.cos(np.pi / n * k) + 1) / 2
    values = _es_kernel(np.subtract.outer(np.arange(_ES_WIDTH) - (half - 1.0), f) / half)
    coef = values @ np.cos(np.pi / n * np.outer(k, np.arange(n))) * (2 / n)
    coef[:, 0] /= 2
    return coef


def _cell_moments(x: np.ndarray, y: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The Chebyshev moments M[0, d, b] = sum_j T_d(x_j) and
    M[1, d, b] = sum_j y_j T_d(x_j), d < _CELL_TERMS, over the runs
    j = first[b] .. first[b + 1] - 1 of sources sorted by node, as a
    (2, _CELL_TERMS, len(first)) array.  T_d comes from the three-term
    recurrence, two rows at a time; x is overwritten."""
    moments = np.empty((2, _CELL_TERMS, len(first)))
    lower, upper = np.ones_like(x), x.copy()
    x *= 2
    scratch = np.empty_like(x)
    for d in range(_CELL_TERMS):
        # lower is T_d and upper T_{d+1}; T_{d+2} = 2 x T_{d+1} - T_d
        np.add.reduceat(lower, first, out=moments[0, d])
        np.multiply(lower, y, out=scratch)
        np.add.reduceat(scratch, first, out=moments[1, d])
        np.multiply(x, upper, out=scratch)
        lower, upper = upper, np.subtract(scratch, lower, out=lower)
    return moments


def _nufft_sum(y: np.ndarray, du: float, n_u: int, sign: float) -> np.ndarray:
    """Type-1 (spreading) non-uniform FFT of one sample: the two sums
    sum_j exp(sign * i * u_m * y_j) and sum_j y_j exp(sign * i * u_m * y_j)
    as the rows of a (2, n_u) array, at the uniform targets u_m = m du,
    m = 0 .. n_u - 1 (n_u >= 2), the ECF's half-grid.

    Each row is the Fourier coefficients S(m) = sum_j w_j e^{i m du x_j},
    x_j = sign y_j, of the weights w_j = 1 and w_j = y_j.  Both rows are
    spread by the exponential-of-semicircle kernel onto the periodic grid of
    :func:`_fine_grid`, one real FFT per row gives the kernel-weighted
    coefficients, and dividing by the DFT of the sampled kernel recovers
    S(m) (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41(5),
    2019).  Spreading runs cell by cell over blocks of _SPREAD_BLOCK
    sources.  On one grid cell each tap's kernel value is a Chebyshev
    series in the source's offset (:func:`_cell_series`), so a block, sorted
    by node, sums the Chebyshev moments of each occupied node
    (:func:`_cell_moments`), and one (_ES_WIDTH, _CELL_TERMS) product per
    row gives every tap's spread value: no exp or sqrt per source.  It
    agrees with :func:`_direct_sum` to about 1e-13 of sum_j |w_j|, and
    tests/test_ecf.py pins 1e-10 for both signs from 2 targets up.
    """
    m_r, kernel_dft = _fine_grid(n_u - 1)
    half = _ES_WIDTH // 2
    series = _cell_series()
    taps = np.arange(_ES_WIDTH)[:, None]
    # Source j sits at t_j = -du x_j / h grid points, h = 2 pi / m_r, so that
    # the forward FFT's e^{-i m n h} gives e^{+i m du x_j}.  Its taps are the
    # nodes floor(t_j) - half + 1 + tau, tau = 0 .. _ES_WIDTH - 1 (mod m_r);
    # node n is stored at index n + half - 1 of a grid padded by half - 1
    # points below node 0 and half points above node m_r - 1, so tap tau of
    # a source whose floor(t_j) is b (mod m_r) lands at index b + tau.
    spread = np.zeros((2, m_r + _ES_WIDTH - 1))
    for start in range(0, len(y), _SPREAD_BLOCK):
        yb = y[start:start + _SPREAD_BLOCK]
        with np.errstate(over="ignore"):  # an infinite position is refused below
            t = yb * (-sign * du * m_r / (2 * np.pi))
        node = _tap_nodes(t, m_r)
        # a stable sort by node, a radix sort when a 16-bit key holds the span
        key = node - node.min()
        if key.max() < 1 << 15:
            key = key.astype(np.int16)
        order = np.argsort(key, kind="stable")
        node = node[order]
        first = np.flatnonzero(np.diff(node, prepend=-1))
        x = t[order]
        x *= _ES_WIDTH  # 2 (offset past the node) - 1, in [-1, 1)
        x -= 1.0
        moments = _cell_moments(x, yb[order], first)
        # the taps of the occupied nodes, from the lowest node's first tap on
        lo = node[0]
        cols = (node[first] - lo + taps).ravel()
        for row, moment in zip(spread, moments):
            added = np.bincount(cols, weights=(series @ moment).ravel())
            row[lo:lo + len(added)] += added
    # fold the overhangs onto the periodic grid of nodes 0 .. m_r - 1
    grid = spread[:, half - 1:m_r + half - 1]
    grid[:, m_r - half + 1:] += spread[:, :half - 1]
    grid[:, :half] += spread[:, m_r + half - 1:]
    return np.fft.rfft(grid, axis=1)[:, :n_u] / kernel_dft[:n_u]


@_kept(lambda x, targets, sign, n_targets: -(-n_targets // _KEEP))
def _interp_plan(x: Grid1D, targets: bytes, sign: float, n_targets: int):
    """The interpolation plan of :func:`phase_sum` for sources on x and
    the targets u (float64 bytes, one block of at most _SPREAD_BLOCK of the
    call's n_targets): the fine-grid columns of the _ES_WIDTH taps of each
    target and their kernel weights, two tap-major (_ES_WIDTH, len(u))
    arrays, and the centring phase e^{i s u x_c} (None when x_c = 0); 272
    bytes per target, all read-only."""
    u = np.frombuffer(targets)
    c = x.n // 2
    m_r, _ = _fine_grid(max(c, x.n - 1 - c))
    half = _ES_WIDTH // 2
    # target k sits at t_k grid points of the fine grid; its taps are the
    # nodes floor(t_k) - half + 1 + tau, tau = 0 .. _ES_WIDTH - 1 (mod m_r)
    with np.errstate(over="ignore"):  # an infinite position is refused below
        t = u * (sign * x.spacing * m_r / (2 * np.pi))
    node = _tap_nodes(t, m_r)
    offsets = np.arange(1 - half, half + 1, dtype=np.intp)
    cols = np.add.outer(offsets, node)
    cols &= m_r - 1
    weights = _es_kernel(np.subtract.outer(offsets / half, t))
    centre = x.lo + c * x.spacing
    phase = np.exp(1j * sign * centre * u) if centre != 0.0 else None
    return cols, weights, phase


@_kept(lambda n: 2 * n)
def _scatter_plan(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The source side of :func:`phase_sum` for sources on an n-node grid:
    the size m_r of the fine grid, the fine-grid index m mod m_r of each
    source, m = j - n // 2, and the kernel DFT at |m| that divides its
    coefficient; n integers and n floats, read-only."""
    c = n // 2
    m = np.arange(n) - c
    m_r, kernel_dft = _fine_grid(max(c, n - 1 - c))
    index = m & (m_r - 1)
    return m_r, index, kernel_dft[np.abs(m)]


def phase_sum(coef: np.ndarray, x: Grid1D, u: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """S(u_k) = sum_j coef_j exp(sign * i * u_k * x_j) for one row of x.n
    coefficients, with the sources x_j on the nodes of the uniform grid x,
    at any targets u.

    This is the type-2 (interpolating) non-uniform FFT, in
    O(x.n log x.n + 16 len(u)) work.  With x_j = x_c + m dx, m = j - c,
    c = n // 2, the sum is the Fourier series
    S(u) = e^{i s u x_c} sum_m coef_m e^{i m t}, t = s u dx, s = sign.
    The coefficients, divided by the DFT of the exponential-of-semicircle
    kernel sampled on the periodic grid of :func:`_fine_grid`, go through
    one complex FFT onto that grid; each block of up to _SPREAD_BLOCK
    targets then gathers, tap by tap from its kept plan
    (:func:`_interp_plan`), the grid values at the tap's columns times its
    weights into a zeroed row (a csr product's summation order), and takes
    the centring phase; no (_ES_WIDTH, len(u)) array is made per call.
    This is the adjoint of :func:`_nufft_sum` (Barnett, Magland & af
    Klinteberg, 2019).
    It agrees with :func:`_direct_sum` to about 1e-13 of sum_j |coef_j|,
    and tests/test_grids.py pins 1e-10 for both signs from 2 nodes up.
    """
    u = np.asarray(u, dtype=float)
    m_r, index, divisor = _scatter_plan(x.n)
    fine = np.zeros(m_r, dtype=complex)
    fine[index] = coef / divisor
    # node n holds sum_m fine_m e^{+i m n h}, h = 2 pi / m_r; in place, so
    # the call holds one fine-grid array, not two
    grid = np.fft.ifft(fine, norm="forward", out=fine)
    out = np.zeros(len(u), dtype=complex)
    gathered = np.empty(min(len(u), _SPREAD_BLOCK), dtype=complex)
    for start in range(0, len(u), _SPREAD_BLOCK):
        block = slice(start, start + _SPREAD_BLOCK)
        row = out[block]
        tap = gathered[:len(row)]
        cols, weights, phase = _interp_plan(x, u[block].tobytes(), sign, len(u))
        for col, weight in zip(cols, weights):
            # col is in range; "wrap" gathers into tap, "raise" through a buffer
            np.take(grid, col, out=tap, mode="wrap")
            tap *= weight
            row += tap
        if phase is not None:
            row *= phase
    return out


def _restrict_symmetric(F: GridFunction, cutoff: float) -> GridFunction:
    """F on the nodes of its symmetric u-grid with |u| <= cutoff: the grid
    every spectral method reads F[g1] on, with a view of F's values.  A grid
    that ends below the cutoff raises CoverageError."""
    sub, sel = _symmetric_window(F.grid, cutoff)
    return GridFunction(sub, F.values[sel])


@_kept(lambda g, cutoff: 0)
def _symmetric_window(g: Grid1D, cutoff: float) -> tuple[Grid1D, slice]:
    """The sub-grid of :func:`_restrict_symmetric` and the slice of g's
    nodes it covers: no array, so at any grid size two small objects."""
    if g.hi < cutoff * (1 - 1e-9):
        raise CoverageError(
            f"u-grid reaches only {g.hi:.6g}, below the requested cutoff {cutoff:.6g}"
        )
    u = g.nodes()
    sel = np.flatnonzero(np.abs(u) <= cutoff * (1 + 1e-12))
    return Grid1D(u[sel[0]], u[sel[-1]], len(sel)), slice(int(sel[0]), int(sel[-1]) + 1)


def fourier_forward(f: GridFunction, u_grid: Grid1D) -> GridFunction:
    """F(u) = integral exp(i u x) f(x) dx by trapezoid quadrature on f's grid."""
    coef = trapezoid_weights(f.grid) * f.values
    return GridFunction(u_grid, phase_sum(coef, f.grid, u_grid.nodes()))


def _inverse_sum(F: GridFunction, x: np.ndarray) -> np.ndarray:
    """(1/2pi) integral_{-pi l}^{pi l} e^{-ixu} F(u) du at the points x, by
    trapezoid quadrature on F's symmetric u-grid (complex result)."""
    if not F.grid.is_symmetric():
        raise InvalidInputError(
            f"inverse transform requires a symmetric u-grid, got [{F.grid.lo}, {F.grid.hi}]"
        )
    coef = trapezoid_weights(F.grid) * F.values / (2.0 * np.pi)
    return phase_sum(coef, F.grid, x, -1.0)


def fourier_inverse_truncated(F: GridFunction, x_grid: Grid1D) -> tuple[GridFunction, float]:
    """Truncated inverse transform (1/2pi) integral_{-pi l}^{pi l} e^{-ixu} F(u) du.

    F must live on a symmetric u-grid [-pi l, pi l].  Returns the real part
    as a GridFunction together with the maximal imaginary residue, which is
    a diagnostic for how far F is from Hermitian symmetry.
    """
    vals = _inverse_sum(F, x_grid.nodes())
    return GridFunction(x_grid, vals.real), float(np.max(np.abs(vals.imag)))


def inverse_transform_at(F: GridFunction, points: np.ndarray) -> np.ndarray:
    """Real part of the truncated inverse transform at arbitrary points.

    Same quadrature sum as :func:`fourier_inverse_truncated`; ``points``
    need not form a grid.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    return _inverse_sum(F, points).real


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length whose FFT numpy runs in
    radix-2, 3 and 5 passes; scipy.fft.next_fast_len(n, real=True) gives
    the same."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power of two times odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@_kept(lambda taps, dtype, real, need: len(taps) // np.dtype(dtype).itemsize + need)
def _kernel_spectrum(taps: bytes, dtype: str, real: bool, need: int) -> tuple[int, np.ndarray]:
    """The FFT length of :func:`convolve`, _fast_len(need), refused past
    _MAX_CELLS points before anything is allocated, and the forward FFT of
    the taps (the bytes of a ``dtype`` array) at that length: a real FFT of
    size // 2 + 1 values when ``real``, else a complex one of size values.
    Read-only, and keyed on the taps' bytes as :func:`_interp_plan` is on
    its targets."""
    size = _fast_len(need)
    _check_budget(size, "convolution FFT points")
    return size, (np.fft.rfft if real else np.fft.fft)(np.frombuffer(taps, dtype), size)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f * g)(x) = sum_y f(y) g(x - y) spacing, evaluated on f's grid.

    g's nodes must lie on f's lattice: equal spacings, and g.lo a whole
    number of spacings (within 1e-9).  Output i is then lag
    i - g.lo / spacing of the full discrete convolution, zero beyond its
    ends.

    The convolution of lengths n and L is one circular FFT product (real
    FFTs for real inputs) whose length is _fast_len(max(hi, n + L - 1 - lo))
    for the kept lags [lo, hi): the smallest at which the lags that exist,
    0 .. n + L - 2, fold onto no kept lag, since lag k >= size lands on
    k - size <= n + L - 2 - size < lo.  An input longer than the FFT is cut
    to it, which drops only lags at or past size >= hi.  A length past
    _MAX_CELLS points is refused before anything is allocated; g's spectrum
    and the length are kept (:func:`_kernel_spectrum`), so a call makes two
    FFTs.  Fejer smoothing (n points, 2n - 1 taps) takes _fast_len(2n - 1)
    points, 4096 at n = 2048 where the full convolution took 6144.
    In the tests each lag is within 5e-17 of dx sum|f| max|g| of its direct
    sum, and they pin 1e-15 of that scale against ``np.convolve``.
    """
    dx = f.grid.spacing
    shift = g.grid.lo / dx
    if abs(g.grid.spacing - dx) > 1e-9 * dx or abs(shift - np.rint(shift)) > 1e-9:
        raise GridMismatchError(
            f"convolution needs g on f's lattice, got spacings {dx} vs "
            f"{g.grid.spacing} and g.lo = {shift} spacings"
        )
    n, taps = f.grid.n, g.grid.n
    real = not (f.is_complex or g.is_complex)
    first = -int(np.rint(shift))  # the lag of output 0
    lo, hi = max(first, 0), min(first + n, n + taps - 1)  # kept lags that exist
    size, spectrum = _kernel_spectrum(g.values.tobytes(), g.values.dtype.str, real,
                                      max(hi, n + taps - 1 - lo))
    out = np.zeros(n, dtype=np.result_type(f.values, g.values, dx))
    if lo < hi:
        forward, inverse = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
        lags = inverse(forward(f.values, size) * spectrum, size)
        out[lo - first:hi - first] = lags[lo:hi] * dx
    return GridFunction(f.grid, out)

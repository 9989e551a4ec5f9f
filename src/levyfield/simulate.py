"""Sampling the compound Poisson integrator on lattice cells and the
moving-average field on a finite window.

Each unit lattice cell c + [0,1)^d carries an i.i.d. compound Poisson
variable W_c (Poisson number of jumps times i.i.d. jump sizes); the field
observed on the window is the finite moving average

    Y_j = sum_k f_k W_{j - offset_k},  j in W.

Cells are materialised once per replication over the Minkowski-extended
window and consumed in row-major order, which makes every draw a pure
function of (master_seed, replication), independent of any parallelism in
the caller.

A sample travels as a CSV with header j1,...,jd,value and one row per
lattice point.  The writer formats one block of rows per leading
coordinate (per _BLOCK_ROWS rows of a 1-d window), through a single
%-template of that block's rows filled with the block's values.  The
reader hands np.loadtxt the lines in chunks of about 64 KiB, checks each
chunk for a blank line with one list scan, and checks the box with index
arithmetic.  So Python steps run per block and
per chunk, and the per-row work is the repr of each value and the parse.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grids import _check_budget
from .model import JumpLaw, SimpleKernel

__all__ = ["SeedSpec", "GridSample", "sample_field", "write_sample_csv", "read_sample_csv"]

_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream derivation from a single master seed.

    Identical SeedSpec and replication index give bit-identical samples on
    every platform (PCG64 behind numpy's Generator).
    """

    master_seed: int

    def replication_rng(self, rep: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(rep,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class GridSample:
    """Observations Y_j over a box window of Z^d: nonempty and finite."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 0:
            raise InvalidInputError("window must have at least one dimension")
        if vals.size < 1:
            raise InvalidInputError("window must contain at least one point")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("sample contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def window(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def n(self) -> int:
        return int(self.values.size)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def _cp_sums(law: JumpLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of n independent compound Poisson sums, one per unit cell."""
    counts = rng.poisson(law.mass, n)
    total = int(counts.sum())
    out = np.zeros(n)
    if total == 0:
        return out
    jumps = law.sample(rng, total)
    edges = np.concatenate([[0], np.cumsum(counts)])
    nonzero = counts > 0
    with np.errstate(over="ignore"):  # GridSample refuses a non-finite field
        out[nonzero] = np.add.reduceat(jumps, edges[:-1][nonzero])
    return out


def sample_field(kernel: SimpleKernel, law: JumpLaw, window: tuple[int, ...],
                 seeds: SeedSpec, rep: int = 0, mesh: float = 1.0) -> GridSample:
    """Simulate Y_j = sum_k f_k W_{j - offset_k} on the given box window;
    an integer mesh k > 1 observes every k-th lattice point, X(k j).

    All lattice cells touching window (-) offsets are drawn i.i.d. in
    row-major order, then combined by shifted slices, so the dependence
    structure of the field is exact and m-dependence holds by construction,
    with m the largest extent of the offsets along any axis.
    """
    window = tuple(int(w) for w in window)
    if len(window) != kernel.d:
        raise InvalidInputError(
            f"window dimension {len(window)} does not match kernel d={kernel.d}"
        )
    if any(w < 1 for w in window):
        raise InvalidInputError("window must be nonempty in every dimension")
    stride = int(round(mesh))
    if abs(mesh - stride) > 1e-12 or stride < 1:
        raise InvalidInputError(
            "lattice-cell simulation supports positive integer mesh only"
        )
    if stride > 1:
        # observe every stride-th point of the dilated lattice window
        dilated = tuple((w - 1) * stride + 1 for w in window)
        full = sample_field(kernel, law, dilated, seeds, rep=rep, mesh=1.0)
        sub = full.values[tuple(slice(None, None, stride) for _ in window)]
        return GridSample(sub.copy())
    off = kernel.offsets
    lo = off.min(axis=0)
    hi = off.max(axis=0)
    ext_shape = tuple(w + int(h - l) for w, l, h in zip(window, lo, hi))
    n_cells = math.prod(ext_shape)
    _check_budget(n_cells, "window cells")
    rng = seeds.replication_rng(rep)
    cells = _cp_sums(law, n_cells, rng).reshape(ext_shape)
    out = np.zeros(window)
    for fk, ck in zip(kernel.coeffs, off):
        # Y_j uses cell j - ck; cell x sits at slot x + hi in the extended array
        start = hi - ck
        sl = tuple(slice(int(s), int(s + w)) for s, w in zip(start, window))
        with np.errstate(over="ignore", invalid="ignore"):  # refused by GridSample
            out += fk * cells[sl]
    return GridSample(out)


def _repr_rows(head: str, bodies: list[str], values: list) -> str:
    """CSV rows in csv.writer's format: row i is ``head + bodies[i]``, each
    ``%r`` (``%d``) of it filled with the repr (str) of the next of
    ``values``, and ended by "\\r\\n"."""
    return (head + f"\r\n{head}".join(bodies) + "\r\n") % tuple(values)


def write_sample_csv(sample: GridSample, path) -> None:
    """CSV with header j1,...,jd,value; one row per lattice point, row-major.

    The bytes are those of ``csv.writer`` writing the coordinates and
    ``repr`` of each value: no field needs quoting, and lines end in
    "\\r\\n".  One block of rows is written per leading coordinate, or per
    _BLOCK_ROWS rows of a 1-d window, whose coordinates share no text.
    """
    shape = sample.window
    header = [f"j{i + 1}" for i in range(sample.d)] + ["value"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if sample.d == 1:
            for lo in range(0, shape[0], _BLOCK_ROWS):
                block = sample.values[lo:lo + _BLOCK_ROWS].tolist()
                fields = [None] * (2 * len(block))
                fields[0::2], fields[1::2] = range(lo, lo + len(block)), block
                fh.write(_repr_rows("", ["%d,%r"] * len(block), fields))
            return
        # the fields "j2,...,jd,value" of the rows of one block, in row-major order
        bodies = ["".join(f"{i}," for i in idx) + "%r"
                  for idx in itertools.product(*map(range, shape[1:]))]
        for lead, block in enumerate(sample.values.reshape(shape[0], -1)):
            fh.write(_repr_rows(f"{lead},", bodies, block.tolist()))


def _data_chunks(fh):
    """The remaining lines of fh in lists of about 64 KiB, refusing a blank
    one, which np.loadtxt would skip, and an empty remainder, on which it
    would only warn."""
    n = 0
    while chunk := fh.readlines(1 << 16):
        if "\n" in chunk:  # universal newlines end every line in "\n"
            n += chunk.index("\n") + 1
            raise ValueError(f"blank line {n} after the header")
        n += len(chunk)
        yield chunk
    if n == 0:
        raise ValueError("no observations")


def read_sample_csv(path) -> GridSample:
    """Inverse of :func:`write_sample_csv`.  Every row holds d integer
    coordinates >= 0 and a finite value, fields may be quoted, no line is
    blank, and the rows enumerate a full box window in any order; any other
    file raises InvalidInputError."""
    try:
        with open(path) as fh:
            header = next(csv.reader(fh))
            d = len(header) - 1
            if d < 1 or header[-1] != "value":
                raise ValueError(f"unexpected header {header}")
            dtype = [(f"j{i + 1}", np.int64) for i in range(d)] + [("value", float)]
            lines = itertools.chain.from_iterable(_data_chunks(fh))
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    except (ValueError, StopIteration, csv.Error) as exc:
        raise InvalidInputError(f"malformed sample CSV {path}: {exc}") from exc
    coords = np.stack([rows[f"j{i + 1}"] for i in range(d)])
    if coords.min() < 0:
        raise InvalidInputError(f"sample CSV {path} has a negative coordinate")
    shape = tuple(int(c) + 1 for c in coords.max(axis=1))
    if len(rows) != math.prod(shape):
        raise InvalidInputError(
            f"sample CSV {path} does not enumerate a full {shape} window"
        )
    flat = np.ravel_multi_index(coords, shape)
    if np.any(np.bincount(flat, minlength=len(rows)) != 1):
        raise InvalidInputError(f"sample CSV {path} repeats a lattice point")
    arr = np.empty(len(rows))
    arr[flat] = rows["value"]
    return GridSample(arr.reshape(shape))

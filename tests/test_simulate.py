import csv
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfield.errors import InvalidInputError, ResourceLimitError
from levyfield.grids import symmetric_grid
from levyfield.model import SimpleKernel, field_char_fn
from levyfield.simulate import (
    GridSample,
    SeedSpec,
    _cp_sums,
    read_sample_csv,
    sample_field,
    write_sample_csv,
)
from levyfield.ecf import compute_ecf
from oracles import field_moments


class TestCpCell:
    # _cp_sums draws the cells of sample_field: one compound Poisson sum per unit cell
    def test_tiny_volume_is_almost_surely_zero(self, gaussian_law):
        rng = SeedSpec(1).replication_rng(0)
        draws = _cp_sums(replace(gaussian_law, mass=1e-9), 100_000, rng)
        frac = np.mean(draws != 0)
        assert frac < 1e-6 + 3 * np.sqrt(1e-9)

    def test_exponential_mean_wald(self, exponential_law):
        # E = mass * E[jump] = 1
        rng = SeedSpec(2).replication_rng(0)
        draws = _cp_sums(exponential_law, 20_000, rng)
        sd = draws.std(ddof=1)
        assert abs(draws.mean() - 1.0) <= 3 * sd / np.sqrt(len(draws))

    def test_gaussian_cp_moments(self, gaussian_law):
        rng = SeedSpec(3).replication_rng(0)
        draws = _cp_sums(gaussian_law, 20_000, rng)
        n = len(draws)
        assert abs(draws.mean()) <= 3 / np.sqrt(n)  # var = lambda E[J^2] = 1
        assert abs(draws.var() - 1.0) <= 3 * np.sqrt(6.0 / n)


class TestSampleField:
    def test_single_cell_kernel_iid(self, gaussian_law):
        k = SimpleKernel(coeffs=np.array([1.0]), offsets=np.array([[0, 0]]))
        s = sample_field(k, gaussian_law, (50, 50), SeedSpec(11))
        y = s.flat()
        # lag-1 sample correlation of an i.i.d. field is O(1/sqrt(N))
        a, b = s.values[:, :-1].ravel(), s.values[:, 1:].ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4 / np.sqrt(len(a))
        assert abs(y.var() - 1.0) <= 3 * np.sqrt(6.0 / len(y))

    def test_bench_variance(self, bench_kernel, gaussian_law):
        s = sample_field(bench_kernel, gaussian_law, (100, 100), SeedSpec(12))
        y = s.flat()
        mom = field_moments(bench_kernel, gaussian_law)
        n = len(y)
        sd_of_var = np.sqrt((mom["fourth"] - mom["var"] ** 2) / n)
        assert abs(y.var() - mom["var"]) <= 3 * sd_of_var

    def test_m_dependence(self, bench_kernel, gaussian_law):
        s = sample_field(bench_kernel, gaussian_law, (80, 80), SeedSpec(13))
        v = s.values
        m = np.ptp(bench_kernel.offsets, axis=0).max()
        assert m == 1
        for lag in (m + 1, m + 2):
            a = v[:, :-lag].ravel()
            b = v[:, lag:].ravel()
            corr = np.corrcoef(a, b)[0, 1]
            assert abs(corr) <= 4 / np.sqrt(len(a))

    def test_dependent_at_short_lag(self, bench_kernel, gaussian_law):
        # within the dependence range the overlap is real: correlation at
        # lag 1 is Var-normalised shared-cell mass, far above noise level
        s = sample_field(bench_kernel, gaussian_law, (80, 80), SeedSpec(14))
        v = s.values
        a, b = v[:, :-1].ravel(), v[:, 1:].ravel()
        assert np.corrcoef(a, b)[0, 1] > 0.05

    def test_reproducibility_bit_identical(self, bench_kernel, gaussian_law):
        s1 = sample_field(bench_kernel, gaussian_law, (30, 30), SeedSpec(99), rep=4)
        s2 = sample_field(bench_kernel, gaussian_law, (30, 30), SeedSpec(99), rep=4)
        assert np.array_equal(s1.values, s2.values)
        s3 = sample_field(bench_kernel, gaussian_law, (30, 30), SeedSpec(99), rep=5)
        assert not np.array_equal(s1.values, s3.values)

    def test_marginal_matches_model_charfn(self, bench_kernel, gaussian_law):
        s = sample_field(bench_kernel, gaussian_law, (100, 100), SeedSpec(2024))
        grid = symmetric_grid(3.0, 61)
        ecf = compute_ecf(s, grid)
        psi = field_char_fn(bench_kernel, gaussian_law, grid.nodes())
        assert np.max(np.abs(ecf.psi_hat - psi)) <= 5 / np.sqrt(s.n)

    def test_marginal_exponential(self, bench_kernel, exponential_law):
        s = sample_field(bench_kernel, exponential_law, (100, 100), SeedSpec(2025))
        grid = symmetric_grid(3.0, 61)
        ecf = compute_ecf(s, grid)
        psi = field_char_fn(bench_kernel, exponential_law, grid.nodes())
        assert np.max(np.abs(ecf.psi_hat - psi)) <= 5 / np.sqrt(s.n)

    def test_window_validation(self, bench_kernel, gaussian_law):
        with pytest.raises(InvalidInputError):
            sample_field(bench_kernel, gaussian_law, (0, 10), SeedSpec(1))
        with pytest.raises(InvalidInputError):
            sample_field(bench_kernel, gaussian_law, (10,), SeedSpec(1))

    def test_resource_budget(self, gaussian_law):
        k = SimpleKernel(coeffs=np.array([1.0]), offsets=np.array([[0, 0]]))
        with pytest.raises(ResourceLimitError, match="cells"):
            sample_field(k, gaussian_law, (100_000, 100_000), SeedSpec(1))

    def test_integer_mesh_subsamples_the_lattice(self, bench_kernel, gaussian_law):
        full = sample_field(bench_kernel, gaussian_law, (21, 21), SeedSpec(8))
        coarse = sample_field(bench_kernel, gaussian_law, (11, 11), SeedSpec(8), mesh=2.0)
        assert coarse.window == (11, 11)
        assert np.array_equal(coarse.values, full.values[::2, ::2])
        with pytest.raises(InvalidInputError):
            sample_field(bench_kernel, gaussian_law, (5, 5), SeedSpec(8), mesh=0.5)


class TestGridSample:
    # the ECF's only input guard: every sample it reads is a GridSample
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, bad):
        with pytest.raises(InvalidInputError, match="^sample contains non-finite values$"):
            GridSample(np.array([[0.0, 1.0], [bad, 2.0]]))

    def test_empty_window_refused(self):
        with pytest.raises(InvalidInputError, match="at least one point"):
            GridSample(np.zeros((0, 3)))

    def test_zero_dimensional_window_refused(self):
        # a 0-d sample has no window; the CSV writer would have no leading axis
        with pytest.raises(InvalidInputError, match="at least one dimension"):
            GridSample(np.array(1.5))


def _csv_writer_bytes(vals: np.ndarray, quoting=csv.QUOTE_MINIMAL) -> bytes:
    """The sample file as csv.writer writes the coordinates and repr of each value."""
    ref = io.StringIO()
    writer = csv.writer(ref, quoting=quoting)
    writer.writerow([f"j{i + 1}" for i in range(vals.ndim)] + ["value"])
    for idx, v in zip(np.ndindex(*vals.shape), vals.reshape(-1)):
        writer.writerow([*idx, repr(float(v))])
    return ref.getvalue().encode()


def _mixed_values(shape, seed=0) -> np.ndarray:
    """Floats of every magnitude and both signs, with the awkward reprs mixed in."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1e16, 123456789.0]
    vals.reshape(-1)[:len(special)] = special
    return vals


class TestSampleCsv:
    def test_round_trip(self, bench_kernel, gaussian_law, tmp_path):
        s = sample_field(bench_kernel, gaussian_law, (7, 5), SeedSpec(5))
        path = tmp_path / "sample.csv"
        write_sample_csv(s, path)
        back = read_sample_csv(path)
        assert back.window == (7, 5)
        assert np.array_equal(back.values, s.values)

    def test_header_and_row_order(self, tmp_path):
        s = GridSample(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "s.csv"
        write_sample_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j1,j2,value"
        assert lines[1].startswith("0,0,") and lines[2].startswith("0,1,")

    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_csv_writer_and_round_trip(self, shape, data):
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([-0.0, 5e-324, 1e308, -1e308]),
                          st.integers(-10 ** 9, 10 ** 9).map(float))
        n = int(np.prod(shape))
        vals = np.array(data.draw(st.lists(value, min_size=n, max_size=n))).reshape(shape)
        s = GridSample(vals)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_sample_csv(s, path)
            assert path.read_bytes() == _csv_writer_bytes(vals)
            back = read_sample_csv(path)
        assert back.window == tuple(shape)
        assert np.array_equal(back.values, vals)
        assert np.array_equal(np.signbit(back.values), np.signbit(vals))

    def test_header_field_beyond_the_csv_limit_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("j1," + "x" * (csv.field_size_limit() + 1) + ",value\n0,0,0.5\n")
        with pytest.raises(InvalidInputError):
            read_sample_csv(path)

    def test_fully_quoted_file_loads(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_bytes(_csv_writer_bytes(np.arange(6.0).reshape(2, 3) - 2.5, csv.QUOTE_ALL))
        assert np.array_equal(read_sample_csv(path).values, np.arange(6.0).reshape(2, 3) - 2.5)

    # the hypothesis test above reaches extents of 6 at most
    @pytest.mark.parametrize("shape", [(2, 3000), (5000,), (3, 4, 500)])
    def test_large_windows_match_csv_writer(self, shape, tmp_path):
        vals = _mixed_values(shape)
        path = tmp_path / "s.csv"
        write_sample_csv(GridSample(vals), path)
        assert path.read_bytes() == _csv_writer_bytes(vals)
        back = read_sample_csv(path)
        assert np.array_equal(back.values, vals)
        assert np.array_equal(np.signbit(back.values), np.signbit(vals))


class TestSampleCsvChunks:
    """The reader takes lines in chunks of about 64 KiB; these samples span many."""

    SHAPE = (40, 500)

    @pytest.fixture
    def lines(self, tmp_path):
        """The lines, CRLF ended, of a sample file of about 0.9 MB."""
        vals = _mixed_values(self.SHAPE, seed=1)
        path = tmp_path / "s.csv"
        write_sample_csv(GridSample(vals), path)
        text = path.read_bytes().decode()
        assert len(text) > 8 << 16
        return vals, text.splitlines(keepends=True)

    def _read(self, tmp_path, text: str):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        return read_sample_csv(path)

    @pytest.mark.parametrize("after", [1, 14_999, 19_999])
    def test_blank_line_refused_with_its_line_number(self, lines, tmp_path, after):
        _, lines = lines
        # lines[0] is the header; the blank line is data line `after + 1`
        text = "".join(lines[:after + 1] + ["\r\n"] + lines[after + 1:])
        with pytest.raises(InvalidInputError, match=f"blank line {after + 1} after the header$"):
            self._read(tmp_path, text)

    def test_trailing_blank_line_refused(self, lines, tmp_path):
        _, lines = lines
        with pytest.raises(InvalidInputError, match="blank line 20001 after the header$"):
            self._read(tmp_path, "".join(lines) + "\r\n")

    @pytest.mark.parametrize("form", ["cr", "no final newline", "quote all"])
    def test_line_forms_load(self, lines, tmp_path, form):
        vals, lines = lines
        if form == "cr":
            text = "".join(line.replace("\r\n", "\r") for line in lines)
        elif form == "no final newline":
            text = "".join(lines).removesuffix("\r\n")
        else:
            text = _csv_writer_bytes(vals, csv.QUOTE_ALL).decode()
        assert np.array_equal(self._read(tmp_path, text).values, vals)

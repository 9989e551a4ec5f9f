#!/usr/bin/env python3
"""Print one sha256 per group of fixed pipeline runs, over the bytes of
their estimates and MSEs (and, for the CLI group, of the sample and
estimate CSVs), and the MSEs of one group whose bits may move.

Two trees that print the same lines produce byte-identical estimates on
every group.  The script uses only levyfield's public API, so it runs
against any tree of the package:

    PYTHONPATH=src python scripts/estimate_digests.py
    PYTHONPATH=<other tree>/src python scripts/estimate_digests.py

Groups:

- the six Section 7 cells at replications 0-3, each replication running
  the cells law-major (plugin, fourier, onb), as the table1_n10k
  benchmark workload runs them;
- the six cells with the exact g1 and band-limited (Fejer) smoothing;
- the six cells on a 300x300 window;
- a CLI ``simulate`` / ``estimate`` round trip per cell;
- a 1-d and a 3-d sample of fixed values written and read back, which
  covers the sample writer in the dimensions the Section 7 cells do not;
- a 5-node and a 41-node tabulated jump law, each plain and with the
  exact g1, for every method;
- the six cells with ``grid_points`` = 8 and ``"bandwidth": "auto"``;
- the six cells with the kernel coefficients [0.6, 0.2, 0.1], whose
  smallest series scale, 0.6, widens the Fourier method's u-grid;
- a deep, mixed-sign series: n_N = 3 and the coefficients
  [2.0, -0.7, 0.3, 0.3] on the benchmark offsets, a 60x60 window, both
  laws, plain and with the exact g1.  Its plug-in runs print a sha256;
  its Fourier runs print their MSEs to 17 digits, since their spectral
  weights are coefficient/|scale| of the series table, which may round
  differently from a closed formula of another tree.

With ``--record PATH`` the script also writes, as JSON, the MSE of every
run of each group that has MSEs (every group but the sample CSVs): the
numerics record ``tests/data/numerics.json`` that
``tests/test_numerics.py`` checks at 1e-9 relative.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from levyfield import cli
from levyfield.bench import run_pipeline
from levyfield.config import ExperimentConfig, section7_config
from levyfield.grids import Grid1D, GridFunction, l2_norm
from levyfield.simulate import GridSample, read_sample_csv, write_sample_csv

LAWS = ("gaussian", "exponential")
METHODS = ("plugin", "fourier", "onb")
CELLS = [(law, method) for law in LAWS for method in METHODS]


def _pipeline_digest(runs) -> tuple[str, list[float]]:
    """sha256 over the estimate values and the MSE of each (config, rep),
    and the MSEs."""
    h = hashlib.sha256()
    mses = []
    for cfg, rep in runs:
        out = run_pipeline(cfg, rep)
        h.update(out.estimate.values.tobytes())
        h.update(np.float64(out.mse).tobytes())
        mses.append(out.mse)
    return h.hexdigest(), mses


def _mses(runs) -> tuple[str, list[float]]:
    """The MSE of each (config, rep), to 17 significant digits, and the MSEs."""
    mses = [run_pipeline(cfg, rep).mse for cfg, rep in runs]
    return " ".join(f"{mse:.17g}" for mse in mses), mses


def _deep_runs(method: str):
    kernel = {**ExperimentConfig().kernel, "coeffs": [2.0, -0.7, 0.3, 0.3]}
    return [(section7_config(law, method, window=[60, 60], n_N=3, kernel=kernel,
                             oracle_g1=oracle), 0)
            for law in LAWS for oracle in (False, True)]


def _cli_digest() -> tuple[str, list[float]]:
    """sha256 over the sample and estimate CSV bytes of one CLI round trip
    per cell, and the squared L2 error of each estimate CSV."""
    h = hashlib.sha256()
    mses = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for law, method in CELLS:
            cfg = work / "config.json"
            cfg.write_text(json.dumps(section7_config(law, method).to_dict()))
            sample, estimate = work / "sample.csv", work / "estimate.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["simulate", "--config", str(cfg), "--out", str(sample)],
                             ["estimate", "--config", str(cfg), "--sample", str(sample),
                              "--out", str(estimate)]):
                    code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"cli {argv[0]} for {law}/{method} exited {code}")
            h.update(sample.read_bytes())
            h.update(estimate.read_bytes())
            x, truth, hat = np.loadtxt(estimate, delimiter=",", skiprows=1, unpack=True)
            mses.append(l2_norm(GridFunction(Grid1D(x[0], x[-1], len(x)), hat - truth)) ** 2)
    return h.hexdigest(), mses


def _sample_csv_digest() -> tuple[str, list[float]]:
    """sha256 over the CSV bytes of fixed 1-d and 3-d samples and the values
    read back; the group has no MSEs."""
    h = hashlib.sha256()
    rng = np.random.default_rng(31)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        for shape in ((5000,), (3, 4, 500)):
            values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            write_sample_csv(GridSample(values), path)
            h.update(path.read_bytes())
            h.update(read_sample_csv(path).values.tobytes())
    return h.hexdigest(), []


def _tabulated(n: int) -> dict:
    x = np.linspace(-4.0, 4.0, n)
    return {"kind": "tabulated", "x": x.tolist(),
            "density": (np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)).tolist()}


def _tabulated_runs(n: int):
    return [(ExperimentConfig(jump_law=_tabulated(n), method=method, oracle_g1=oracle), 0)
            for oracle in (False, True) for method in METHODS]


def groups():
    """(name, zero-argument function returning the line and the group's
    MSEs) per group, in print order."""
    small_kernel = {"coeffs": [0.6, 0.2, 0.1], "offsets": [[0, 0], [1, 0], [0, 1]]}
    return [
        ("section7 reps 0-3", lambda: _pipeline_digest(
            (section7_config(law, method), rep) for rep in range(4) for law, method in CELLS)),
        ("oracle fejer", lambda: _pipeline_digest(
            (section7_config(law, method, oracle_g1=True, smooth_family="bandlimited"), 0)
            for law, method in CELLS)),
        ("window 300x300", lambda: _pipeline_digest(
            (section7_config(law, method, window=[300, 300]), 0) for law, method in CELLS)),
        ("cli round trip", _cli_digest),
        ("sample csv 1-d 3-d", _sample_csv_digest),
        ("tabulated 5-node", lambda: _pipeline_digest(_tabulated_runs(5))),
        ("tabulated 41-node", lambda: _pipeline_digest(_tabulated_runs(41))),
        ("grid_points 8 auto", lambda: _pipeline_digest(
            (section7_config(law, method, grid_points=8, bandwidth="auto"), 0)
            for law, method in CELLS)),
        ("kernel 0.6 0.2 0.1", lambda: _pipeline_digest(
            (section7_config(law, method, kernel=small_kernel), 0) for law, method in CELLS)),
        ("deep mixed-sign plugin", lambda: _pipeline_digest(_deep_runs("plugin"))),
        ("deep mixed-sign fourier MSEs", lambda: _mses(_deep_runs("fourier"))),
    ]


def results() -> dict[str, tuple[str, list[float]]]:
    """The line and the MSEs of each group, by name, in print order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # contraction and coverage warnings are not bytes
        return {name: group() for name, group in groups()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", metavar="PATH",
                        help="also write the MSEs of every group to PATH as JSON")
    args = parser.parse_args(argv)
    out = results()
    for name, (line, _) in out.items():
        print(f"{line}  {name}")
    if args.record:
        record = {name: mses for name, (_, mses) in out.items() if mses}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

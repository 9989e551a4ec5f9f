"""The three benchmark workloads, driven through levyfield's public API.

Every workload runs in a closed loop with one caller and one thread.
An operation (op) is what one timing covers:

- ``table1_n10k``: one replication of the paper's six-cell Monte Carlo
  table (Section 7, Table 1) at a 100x100 window, N = 10^4: six
  ``bench.run_pipeline`` calls, one per (jump law, method) cell, all at
  replication ``k`` with ``master_seed`` = the workload seed.  At seed
  20259 op k is replication k of ``scripts/reproduce_benchmark.py``.
  The six cells take 0.1-0.2 s each; timing them as one op keeps the
  median off the gap between the fast and slow cells.
- ``cli_roundtrip_n90k``: ``cli.main(["simulate", ...])`` writes a
  300x300 sample (N = 9*10^4), then ``cli.main(["estimate", ...])`` reads
  it back and writes the estimate CSV.  Op k uses cell k mod 6 and a
  sample seed derived from the recorded seed and k, so the workload seed
  changes nothing here: a run holds about four replications per cell,
  and with seeded samples the Monte Carlo spread of the gaussian/fourier
  MSE across seeds reached 23% of its median (ten seeds), next to the 25%
  cap on any bound.  Fixed samples make that metric exact and let every
  run check its first six ops against the recorded MSEs.
- ``oracle_fejer``: the six cells with ``oracle_g1`` on and band-limited
  (Fejer) smoothing at the Section 7 bandwidths.  Op k runs method
  k mod 3 at both jump laws.  Simulation and the ECF are bypassed, so the
  seed changes nothing here.  Cell times differ by 2x (the kernel length
  grows with the bandwidth); pairing the laws leaves three op costs
  within 20% of each other, and runs end on a whole pass over the three
  methods, so the median falls inside a cost group, not between two.

``run`` is the timed part of an op; ``evaluate`` is the untimed check of
its outputs, returning an ``Op``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levyfield import bench, cli
from levyfield.config import section7_config
from levyfield.grids import Grid1D, GridFunction, l2_norm

CELLS = [(law, method) for law in ("gaussian", "exponential")
         for method in ("plugin", "fourier", "onb")]
CELL_NAMES = [f"{law}.{method}" for law, method in CELLS]


@dataclass
class Op:
    """One op: its wall time, per-cell MSEs, a digest of the estimate
    bytes, and the checks that failed."""

    k: int
    seconds: float = 0.0
    mses: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _finite_problems(cell: str, values, mse: float) -> list[str]:
    if not (np.all(np.isfinite(values)) and math.isfinite(mse)):
        return [f"{cell}: non-finite estimate or mse"]
    return []


class PipelineWorkload:
    """Op k runs one group of cells through ``bench.run_pipeline`` at
    replication k // (number of groups); the groups are taken in turn."""

    name = ""
    seed_used = True
    stop_on_cycle = False
    groups: list[list[tuple[str, object]]]

    @property
    def cycle(self) -> int:
        return len(self.groups)

    def cells_of(self, k: int) -> list[str]:
        return [cell for cell, _ in self.groups[k % self.cycle]]

    def run(self, k: int):
        # bench.run_pipeline is looked up at call time, so a traced run sees its wrapper
        return [bench.run_pipeline(cfg, k // self.cycle) for _, cfg in self.groups[k % self.cycle]]

    def evaluate(self, k: int, outs) -> Op:
        h = hashlib.sha256()
        op = Op(k)
        for cell, out in zip(self.cells_of(k), outs):
            h.update(out.estimate.values.tobytes())
            op.mses[cell] = out.mse
            op.problems += _finite_problems(cell, out.estimate.values, out.mse)
        op.digest = h.hexdigest()
        return op


class Table1(PipelineWorkload):
    name = "table1_n10k"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.groups = [[(cell, section7_config(law, method, master_seed=seed))
                        for cell, (law, method) in zip(CELL_NAMES, CELLS)]]


class OracleFejer(PipelineWorkload):
    name = "oracle_fejer"
    seed_used = False
    stop_on_cycle = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.groups = [[(f"{law}.{method}",
                         section7_config(law, method, oracle_g1=True, smooth_family="bandlimited"))
                        for law in ("gaussian", "exponential")]
                       for method in ("plugin", "fourier", "onb")]


class CliRoundtrip:
    name = "cli_roundtrip_n90k"
    cycle = len(CELLS)
    stop_on_cycle = False
    seed_used = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sample = workdir / "sample.csv"
        self.estimate = workdir / "estimate.csv"
        self.configs = []
        for (law, method), cell in zip(CELLS, CELL_NAMES):
            path = workdir / f"{cell}.json"
            path.write_text(json.dumps(section7_config(law, method, window=[300, 300]).to_dict()))
            self.configs.append(path)

    def cells_of(self, k: int) -> list[str]:
        return [CELL_NAMES[k % self.cycle]]

    def op_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def run(self, k: int):
        cfg = str(self.configs[k % self.cycle])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                _exit_code(["simulate", "--config", cfg, "--seed", str(self.op_seed(k)),
                            "--out", str(self.sample)]),
                _exit_code(["estimate", "--config", cfg, "--sample", str(self.sample),
                            "--out", str(self.estimate)]),
            )
        return codes

    def evaluate(self, k: int, codes) -> Op:
        cell = CELL_NAMES[k % self.cycle]
        if codes != (0, 0):
            return Op(k, problems=[f"{cell}: cli exit codes {codes}"])
        raw = self.estimate.read_bytes()
        digest = hashlib.sha256(self.sample.read_bytes() + raw).hexdigest()
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2)
        x, truth, hat = table[:, 0], table[:, 1], table[:, 2]
        if not np.all(np.isfinite(table)):
            return Op(k, digest=digest, problems=[f"{cell}: non-finite estimate"])
        mse = l2_norm(GridFunction(Grid1D(x[0], x[-1], len(x)), hat - truth)) ** 2
        return Op(k, mses={cell: mse}, digest=digest, problems=_finite_problems(cell, hat, mse))


def _exit_code(argv: list[str]) -> int:
    # cli.main is looked up at call time, so a traced run sees its wrapper
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


WORKLOADS = {w.name: w for w in (Table1, CliRoundtrip, OracleFejer)}

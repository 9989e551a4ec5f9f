#!/usr/bin/env python3
"""Reproduce the Monte Carlo benchmark table.

Runs all six (jump law, method) cells with the benchmark parameters and
prints mean/sd of the per-replication squared L2 errors next to the
published reference values.  Writes one results CSV per cell.

Usage:
    python scripts/reproduce_benchmark.py [--reps 20] [--outdir results]
"""

import argparse
import time
from pathlib import Path

from levyfield.bench import emit_manifest, emit_results_csv, run_bench
from levyfield.config import TABLE1, section7_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=20259)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'law':12s} {'method':8s} {'mean MSE':>12s} {'sd':>10s} "
          f"{'reference':>12s} {'ratio':>7s} {'time':>7s}")
    for law in ("gaussian", "exponential"):
        for method in ("fourier", "plugin", "onb"):
            cfg = section7_config(law, method, reps=args.reps, master_seed=args.seed)
            t0 = time.perf_counter()
            result, _ = run_bench(cfg, workers=args.workers)
            elapsed = time.perf_counter() - t0
            ref, _ = TABLE1[(law, method)]
            stem = outdir / f"{law}_{method}"
            emit_results_csv(f"{stem}.csv", [result])
            emit_manifest(f"{stem}.manifest.json", cfg,
                          extra={"mean_mse": result.mean, "sd_mse": result.sd})
            print(f"{law:12s} {method:8s} {result.mean:12.4e} {result.sd:10.2e} "
                  f"{ref:12.4e} {result.mean / ref:7.2f} {elapsed:6.1f}s")


if __name__ == "__main__":
    main()

"""Batch command line interface.

Subcommands:

    simulate --config C.json [--seed S] --out sample.csv
    estimate --sample sample.csv --config C.json --out est.csv
             [--method plugin|fourier|onb]   (default: the config's method)
    bench    --config C.json [--reps R] [--workers W] --out results.csv
             [--manifest manifest.json] [--dump-estimates DIR]
    validate --suite SUITE [--config C.json] [--reps R]
             (each SUITE and the options it reads: levyfield.validate.SUITES)

Exit codes: 0 ok, 2 config error, 3 numeric or precondition error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .config import _METHODS, ExperimentConfig
from .errors import ConfigError, LevyFieldError
from .simulate import read_sample_csv, sample_field, write_sample_csv


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides(master_seed=int(args.seed))
    sample = sample_field(cfg.kernel_obj(), cfg.law_obj(), tuple(cfg.window),
                          cfg.seed_spec(), rep=0, mesh=cfg.mesh)
    write_sample_csv(sample, args.out)
    print(f"wrote {sample.n} observations to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.method is not None:
        cfg = cfg.with_overrides(method=args.method)
    sample = read_sample_csv(args.sample)
    out = bench.run_pipeline(cfg, rep=0, sample=sample)
    bench.emit_estimate_csv(args.out, out.estimate, out.truth)
    print(f"method={cfg.method} mse={out.mse:.6g} -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.reps is not None:
        cfg = cfg.with_overrides(reps=int(args.reps))
    result, outputs = bench.run_bench(cfg, workers=args.workers)
    bench.emit_results_csv(args.out, [result])
    if args.manifest:
        bench.emit_manifest(args.manifest, cfg,
                            extra={"mean_mse": result.mean, "sd_mse": result.sd})
    if args.dump_estimates is not None:
        est_dir = Path(args.dump_estimates)
        est_dir.mkdir(parents=True, exist_ok=True)
        for rep, out in enumerate(outputs):
            bench.emit_estimate_csv(est_dir / f"est_{rep:03d}.csv",
                                    out.estimate, out.truth)
    print(f"{cfg.method}/{cfg.jump_law['kind']}: mean MSE {result.mean:.6g} "
          f"(sd {result.sd:.3g}) over {cfg.reps} replications -> {args.out}")
    return 0


class _SuiteNames:
    """The --suite choices, validate.SUITES, imported when argparse reads them."""

    def __iter__(self):
        from . import validate
        return iter(validate.SUITES)


def _cmd_validate(args) -> int:
    from . import validate
    lines, ok = validate.run_suite(args.suite, config=args.config, reps=args.reps)
    print(*lines, sep="\n")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyfield",
        description="Simulate moving-average infinitely divisible fields and "
                    "recover the integrator's Levy density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw one field sample and write it as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate g0 from a sample CSV")
    p.add_argument("--method", choices=_METHODS, default=None)
    p.add_argument("--sample", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bench", help="Monte Carlo MSE batch")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--dump-estimates", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", help="run a validation suite")
    p.add_argument("--suite", required=True, choices=_SuiteNames(), metavar="SUITE",
                   help="one of %(choices)s")
    p.add_argument("--config", default=None)
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(func=_cmd_validate)
    return parser


def run_with_exit_codes(func, *args) -> int:
    """func(*args) as an exit code: its own on success; 2, 3 or 4 with a
    one-line message on stderr for a config, numeric or I/O error."""
    try:
        return func(*args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevyFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_with_exit_codes(args.func, args)


if __name__ == "__main__":
    sys.exit(main())

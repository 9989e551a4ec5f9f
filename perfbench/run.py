#!/usr/bin/env python3
"""levyfield benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1_n10k --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): table1_n10k, cli_roundtrip_n90k, oracle_fejer;
``--workload all`` runs each of them in turn, in a process of its own.

``--trace 0`` measures the end-to-end metrics with no tracing installed:

- ops_per_s     successful ops per second of timed op work (1/s)
- op_s.p50      median op wall time (s)
- op_s.tail     the highest percentile with at least 10 samples beyond it:
                the 11th-slowest op, percentile 100 (n - 10) / n (s)
- setup_s       median over three processes (this one and two fresh
                ones) of script start to the end of set-up: imports,
                workload construction and one warm-up op (s)
- peak_rss_mb   ru_maxrss of this process after the timed phase (MB)
- mse.<law>.<method>  mean squared L2 error of the cell over the run's ops
- fail_ratio    failed / attempted ops (printed in the table; the JSON
                carries it as ``failed`` and ``attempted``)

``--trace 1`` alternates each op untraced and traced on the same input,
checks that both give bit-identical MSEs, and reports the per-layer
metrics: ``X.s`` / ``X.self_s`` per layer span, work counts (computed from
argument and result sizes, averaged per op over the first pass over the
six cells), ``trace.overhead_s`` and ``trace.unattributed_share``.

The timed phase runs for ``--seconds`` and for at least 20 ops (so that a
tail exists); ``oracle_fejer`` runs also end on a whole pass over its
three ops.  It stops after at most 100 s.  ``--trace 1`` runs for
``--seconds`` and at least one pass over the six cells.

Checks per op: CLI exit codes 0, finite estimates; every failed check
counts as a failed op.  The warm-up op is op 0 on the inputs of the
recorded seed (baseline.json), whatever ``--seed`` is.  Its estimate bytes
must equal those of the warm-up op of each setup process, and of timed
op 0 when that ran on the same inputs (acceptance criterion 9, checked
from outside).  Its per-cell MSEs, and those of the first pass of timed
ops when it ran on the recorded seed's inputs, must equal the recorded
values to 1e-9 relative, which absorbs last-bit differences between CPU
instruction sets.  Workloads whose inputs do not depend on the seed
(``cli_roundtrip_n90k``, ``oracle_fejer``) are thus checked in every run.
A traced op must give the same MSEs and estimate bytes as the untraced
run of the same op.  BLAS is pinned to one thread.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the environment, sample counts
and the per-cell layer breakdown goes to ``perfbench/out/``; traced runs
also write their spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 20
MAX_TIMED_S = 100.0
SETUP_PROBES = 2
GATE_RTOL = 1e-9
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COUNTS = ("simulate.cells", "simulate.csv_bytes", "ecf.phase_terms", "ecf.u_nodes",
          "grids.transform_terms", "invert.series_terms", "smooth.kernel_taps", "smooth.macs")


def tail(samples):
    """(percentile, value) of the highest percentile with at least 10
    samples beyond it, or None below 20 samples (no percentile >= 50 has
    10 samples beyond it there)."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def parse_args(argv):
    p = argparse.ArgumentParser(description="levyfield benchmark")
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up op, print its timing and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_entry = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "levyfield" / "__init__.py").is_file():
        print(f"error: no levyfield sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import levyfield
    import workloads

    if Path(levyfield.__file__).resolve().parent != (src / "levyfield").resolve():
        print(f"error: imported levyfield from {levyfield.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    baseline = json.loads((HERE / "baseline.json").read_text())
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make = workloads.WORKLOADS[args.workload]
        wl = make(args.seed if make.seed_used else baseline["recorded_seed"], workdir)
        warm_wl = make(baseline["recorded_seed"], workdir)
        warm = measure(warm_wl, 0)
        setup_s = time.perf_counter() - t_entry
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "digest": warm.digest}))
            return 0
        warm.problems += [f"warm-up {p}" for p in check_gate(warm_wl, [warm], baseline)]
        runner = traced_run if args.trace else timed_run
        report = runner(wl, args, warm, setup_s, baseline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = environment(args, baseline)
    report["environment"]["inputs_seed"] = wl.seed
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans = report.pop("spans", None)
    if spans is not None:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_table(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0 if report["correct"] else 1


def run_all(args, names) -> int:
    """Each workload in its own process, one after the other."""
    rc = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        rc = max(rc, subprocess.run(cmd, cwd=ROOT).returncode)
    return rc


# ---------------------------------------------------------------------------
# one op


def measure(wl, k: int, tracer=None):
    """Run op k, timed; traced when a tracer is given.  Exceptions are
    recorded as the op's failure, so one broken op cannot stop the run."""
    from workloads import Op

    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.run(k)
            seconds = time.perf_counter() - t0
        else:
            tracer.op = k
            with tracing.installed(tracer) as missing:
                with tracer.span("op") as root:
                    raw = wl.run(k)
            tracer.missing = missing
            seconds = root.duration
        op = wl.evaluate(k, raw)
        op.seconds = seconds
        return op
    except Exception:  # the loop must keep running; the failure is reported
        seconds = time.perf_counter() - t0
        err = traceback.format_exc()
        print(f"op {k} failed:\n{err}", file=sys.stderr)
        return Op(k, seconds, problems=[err.strip().splitlines()[-1]])


def loop(wl, seconds: float, min_ops: int, step):
    """Call step(k) for k = 0, 1, ... until ``seconds`` have passed and at
    least ``min_ops`` ops ran (and, for workloads whose cells differ in
    cost, a whole pass over the cells ended), or MAX_TIMED_S passed."""
    t0 = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t0
        done = elapsed >= seconds and k >= min_ops and not (wl.stop_on_cycle and k % wl.cycle)
        if done or elapsed >= MAX_TIMED_S:
            return k
        step(k)
        k += 1


# ---------------------------------------------------------------------------
# checks


def check_gate(wl, ops, baseline) -> list[str]:
    """MSEs of the first pass over the cells, when it ran on the recorded
    seed's inputs, against the recorded values."""
    if wl.seed != baseline["recorded_seed"]:
        return []
    recorded = baseline["gate"][wl.name]
    return [f"op {op.k} {cell}: mse {mse!r} != recorded {recorded[cell]!r}"
            for op in ops if op.k < wl.cycle
            for cell, mse in op.mses.items()
            if abs(mse - recorded[cell]) > GATE_RTOL * abs(recorded[cell])]


def determinism(first, digests) -> list[str]:
    return [f"op {first.k} estimate differs from a same-input run ({d[:12]} != {first.digest[:12]})"
            for d in digests if d != first.digest]


def setup_probes(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# runs


def timed_run(wl, args, warm, setup_s, baseline) -> dict:
    ops = []
    loop(wl, args.seconds, MIN_OPS, lambda k: ops.append(measure(wl, k)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = setup_probes(args)
    same_input = [p["digest"] for p in probes]
    if wl.seed == baseline["recorded_seed"]:
        same_input.append(ops[0].digest)
    run_problems = warm.problems + determinism(warm, same_input)
    run_problems += check_gate(wl, ops, baseline)
    if run_problems:
        ops[0].problems += run_problems

    good = [op.seconds for op in ops if op.ok]
    setups = [setup_s] + [p["setup_s"] for p in probes]
    metrics = {
        "ops_per_s": (len(good) / sum(good) if good else 0.0, "1/s"),
        "op_s.p50": (statistics.median(good) if good else 0.0, "s"),
    }
    t = tail(good)
    metrics["op_s.tail"] = (t[1] if t else max(good, default=0.0), "s")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics.update(mse_metrics(ops))
    failed = sum(not op.ok for op in ops)
    return {
        "workload": wl.name,
        "correct": failed == 0 and len(good) > 0,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "metrics": metrics,
        "samples": {
            "ops": len(good),
            "tail_percentile": t[0] if t else None,
            "setup_s": setups,
            "timed_op_seconds": sum(op.seconds for op in ops),
        },
        "problems": [f"op {op.k}: {p}" for op in ops for p in op.problems],
        "op_seconds": [op.seconds for op in ops],
        "op_mses": [op.mses for op in ops],
    }


def mse_metrics(ops) -> dict:
    import workloads

    by_cell: dict[str, list[float]] = {c: [] for c in workloads.CELL_NAMES}
    for op in ops:
        if op.ok:
            for cell, mse in op.mses.items():
                by_cell[cell].append(mse)
    return {f"mse.{c}": (statistics.fmean(v) if v else 0.0, "1") for c, v in by_cell.items()}


def traced_run(wl, args, warm, setup_s, baseline) -> dict:
    tracer = tracing.Tracer()
    plain, traced = [], []

    def pair(k):
        plain.append(measure(wl, k))
        traced.append(measure(wl, k, tracer))
        a, b = plain[-1], traced[-1]
        if a.ok and b.ok and (a.mses != b.mses or a.digest != b.digest):
            b.problems.append(f"traced op {k} differs from untraced: {b.mses} != {a.mses}")

    loop(wl, args.seconds, wl.cycle, pair)
    ops = plain + traced
    run_problems = warm.problems + check_gate(wl, plain, baseline)
    if run_problems:
        plain[0].problems += run_problems

    names = [row[0] for row in tracing.LAYER_SPANS]
    metrics = {k: (v, "1" if k.endswith("share") else "s")
               for k, v in tracing.layer_metrics(tracer.spans, names).items()}
    counts = tracer.take_counts()
    first_pass = [counts.get(k, {}) for k in range(wl.cycle)]
    for name in COUNTS:
        metrics[name] = (statistics.fmean(c.get(name, 0) for c in first_pass), "count")
    kept = sum(c.get("ecf.stabilize.kept", 0) for c in first_pass)
    nodes = sum(c.get("ecf.stabilize.nodes", 0) for c in first_pass)
    metrics["ecf.stabilize.kept_share"] = (kept / nodes if nodes else 0.0, "1")
    good_plain = [op.seconds for op in plain if op.ok]
    good_traced = [op.seconds for op in traced if op.ok]
    overhead = (statistics.median(good_traced) - statistics.median(good_plain)
                if good_plain and good_traced else 0.0)
    metrics["trace.overhead_s"] = (overhead, "s")
    failed = sum(not op.ok for op in ops)
    return {
        "workload": wl.name,
        "correct": failed == 0 and bool(good_traced),
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "metrics": metrics,
        "samples": {"pairs": len(plain), "untraced_op_s": good_plain,
                    "traced_op_s": good_traced},
        "missing_spans": tracer.missing,
        "count_errors": sorted({e for c in counts.values() for e in c.get("count_errors", [])}),
        "per_cell": per_cell_breakdown(wl, tracer.spans, names),
        "problems": [f"op {op.k}: {p}" for op in ops for p in op.problems],
        "spans": [vars(s) for s in tracer.spans],
    }


def per_cell_breakdown(wl, spans, names) -> dict:
    """Median inclusive seconds per layer span inside each cell's
    ``bench.run_pipeline`` call, for comparing with per-replication
    stage tables."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    seen_in_op: dict[int, int] = {}
    per_cell: dict[str, dict[str, list[float]]] = {}
    for i, s in enumerate(spans):
        if s.name != "bench.run_pipeline":
            continue
        j = seen_in_op.get(s.op, 0)
        seen_in_op[s.op] = j + 1
        cells = wl.cells_of(s.op)
        cell = cells[j] if j < len(cells) else f"call{j}"
        totals: dict[str, float] = {"bench.run_pipeline": s.duration}
        stack = list(children.get(i, []))
        while stack:
            c = stack.pop()
            if spans[c].name in names:
                totals[spans[c].name] = totals.get(spans[c].name, 0.0) + spans[c].duration
            stack.extend(children.get(c, []))
        for name, sec in totals.items():
            per_cell.setdefault(cell, {}).setdefault(name, []).append(sec)
    return {cell: {n: statistics.median(v) for n, v in d.items()} for cell, d in per_cell.items()}


# ---------------------------------------------------------------------------
# reporting


def environment(args, baseline) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": baseline["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_table(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  commit {env['git_commit']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':36s} {report['fail_ratio']:>16.6g} 1  "
          f"({report['failed']} of {report['attempted']})")
    samples = report["samples"]
    if "tail_percentile" in samples:
        pct = samples["tail_percentile"]
        print(f"  samples: {samples['ops']} ops; tail = "
              + (f"p{pct:.1f}" if pct is not None else "slowest op (fewer than 20 ops)"))
    for p in report["problems"][:20]:
        print(f"  FAILED {p}")


if __name__ == "__main__":
    sys.exit(main())

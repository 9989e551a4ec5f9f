"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line.  The
benchmark-table criterion is split by jump law; the exponential cells
assert the published factor-2 bands as stated even though this pipeline
lands well below them (see the repository notes for the analysis).
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from levyfield.bench import run_bench
from levyfield.config import TABLE1, ExperimentConfig, section7_config
from levyfield.errors import SingularRecoveryError
from levyfield.invert import build_series_plan, contraction_factor
from levyfield.model import (
    JumpLaw,
    SimpleKernel,
    WeightH,
    forward_drift,
    forward_gaussian,
    recover_a0_b0,
)
from levyfield.validate import (
    validate_appendix_rates,
    validate_fixed_point,
    validate_kernels,
    validate_onb,
)


def _report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}{': ' + detail if detail else ''}")
    return ok


def _run_table_cells(law):
    rows = []
    for method in ("fourier", "plugin", "onb"):
        cfg = section7_config(law, method)
        res, _ = run_bench(cfg)
        target, factor = TABLE1[(law, method)]
        ok = target / factor <= res.mean <= target * factor
        rows.append((method, res.mean, target, factor, ok))
    return rows


def test_criterion_1_table1_gaussian():
    t0 = time.perf_counter()
    rows = _run_table_cells("gaussian")
    elapsed = time.perf_counter() - t0
    ok_all = all(ok for *_, ok in rows)
    detail = "; ".join(f"{m}: {v:.3e} vs {t:.3e} (x{f:g})" for m, v, t, f, _ in rows)
    _report("criterion 1a (Table 1, gaussian jumps, 20 reps)", ok_all,
            detail + f"; runtime {elapsed:.0f}s")
    assert ok_all
    assert elapsed <= 900


def test_criterion_1_table1_exponential():
    t0 = time.perf_counter()
    rows = _run_table_cells("exponential")
    elapsed = time.perf_counter() - t0
    ok_all = all(ok for *_, ok in rows)
    detail = "; ".join(f"{m}: {v:.3e} vs {t:.3e} (x{f:g})" for m, v, t, f, _ in rows)
    _report("criterion 1b (Table 1, exponential jumps, 20 reps)", ok_all,
            detail + f"; runtime {elapsed:.0f}s")
    assert ok_all, (
        "exponential-jump cells sit below the published factor-2 bands; "
        "this pipeline outperforms the reported table values (see notes)"
    )


def test_criterion_2_contraction_arithmetic():
    kernel = SimpleKernel(coeffs=np.array([1.3, 0.2, 0.1, 0.1]),
                          offsets=np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
    h = WeightH(beta=1.0, signed=True)
    rep = contraction_factor(kernel, h)
    oracle = np.sqrt(0.2 / 1.3) + 2 * np.sqrt(0.1 / 1.3)
    ok_value = abs(rep.e_factor - 0.946932) <= 1e-6 and abs(rep.e_factor - oracle) < 1e-12
    flip = contraction_factor(SimpleKernel(coeffs=np.array([1.0, -1.0]),
                                           offsets=np.array([[0], [1]])),
                              h, pivot_value=1.0)
    ok_flip = not flip.satisfied and abs(flip.e_factor - 1.0) < 1e-12
    ok = ok_value and ok_flip
    _report("criterion 2 (contraction arithmetic)", ok,
            f"e = {rep.e_factor:.6f}; sign-flip case satisfied={flip.satisfied}")
    assert ok


def test_criterion_3_fixed_point_oracle():
    rep = validate_fixed_point()
    _report("criterion 3 (fixed-point oracle)", rep["ok"],
            f"rel err {rep['rel_err']:.2e}, residual {rep['residual']:.2e}, "
            f"tol {rep['tol']:.2e}")
    assert rep["ok"]


def test_criterion_4_series_grouping_equivalence():
    rng = np.random.default_rng(20260811)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        coeffs = np.round(rng.uniform(0.2, 2.5, n) * rng.choice([-1, 1], n), 3)
        kernel = SimpleKernel(coeffs=coeffs, offsets=np.arange(n)[:, None])
        h = WeightH(beta=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
        depth = int(rng.integers(0, 7))
        pivot, q_idx, n1 = kernel.pivot_info(h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = build_series_plan(kernel, h, depth)
        values = np.asarray(plan.values, dtype=float)
        grouped = {}
        for term, (_, c) in zip(plan.terms, plan.grouped_terms()):
            grouped[(term.depth, term.multiplicities)] = c
        raw = {}
        others = [kernel.coeffs[k] for k in range(n) if k not in q_idx]
        raw[(0, (0,) * len(values))] = (abs(pivot) / n1) * h.ratio(pivot)
        for j in range(1, depth + 1):
            for combo in itertools.product(others, repeat=j):
                mult = [0] * len(values)
                for c in combo:
                    mult[int(np.argmin(np.abs(values - c)))] += 1
                prod = float(np.prod(combo))
                scale = pivot ** (j + 1) / prod
                val = (-1.0) ** j * (abs(pivot) / n1) ** (j + 1) / abs(prod) * h.ratio(scale)
                key = (j, tuple(mult))
                raw[key] = raw.get(key, 0.0) + val
        if sorted(raw) != sorted(grouped):
            failures += 1
            continue
        for key in raw:
            denom = max(abs(raw[key]), 1e-300)
            if abs(raw[key] - grouped[key]) / denom > 1e-14:
                failures += 1
                break
    ok = failures == 0
    _report("criterion 4 (series grouping equivalence, 100 trials)", ok,
            f"{failures} mismatching trials")
    assert ok


def test_criterion_5_onb_structural_suite():
    rep = validate_onb()
    for name, ok in rep["checks"]:
        print(f"    {'PASS' if ok else 'FAIL'}  {name}")
    _report("criterion 5 (OnB structural suite)", rep["ok"])
    assert rep["ok"]


def test_criterion_6_appendix_rates():
    t0 = time.perf_counter()
    rep = validate_appendix_rates(ExperimentConfig(), reps=200)
    elapsed = time.perf_counter() - t0
    ok = abs(rep["slope_psi"] + 1.0) <= 0.15 and abs(rep["slope_theta"] + 2.0) <= 0.2
    _report("criterion 6 (appendix rate suite)", ok,
            f"slopes {rep['slope_psi']:+.3f} / {rep['slope_theta']:+.3f}; "
            f"runtime {elapsed:.1f}s")
    assert ok
    assert elapsed <= 300


def test_criterion_7_smoothing_kernels():
    rep = validate_kernels()
    for name, ok in rep["checks"]:
        print(f"    {'PASS' if ok else 'FAIL'}  {name}")
    _report("criterion 7 (smoothing-kernel suite)", rep["ok"])
    assert rep["ok"]


def test_criterion_8_forward_backward_algebra():
    rng = np.random.default_rng(8)
    law = JumpLaw.gaussian(mean=0.2, sd=1.1)
    checked = 0
    worst = 0.0
    while checked < 50:
        n = int(rng.integers(1, 6))
        coeffs = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
        kernel = SimpleKernel(coeffs=coeffs, offsets=np.arange(n)[:, None])
        if abs(kernel.sum_f()) < 1e-3:
            continue
        a0, b0 = rng.uniform(-1, 1), rng.uniform(0.1, 3.0)
        a1 = forward_drift(kernel, a0, law)
        b1 = forward_gaussian(kernel, b0)
        a0_hat, b0_hat = recover_a0_b0(kernel, a1, b1, law)
        worst = max(worst, abs(a0_hat - a0), abs(b0_hat - b0))
        checked += 1
    singular = SimpleKernel(coeffs=np.array([1.0, -1.0]), offsets=np.array([[0], [1]]))
    try:
        recover_a0_b0(singular, 0.0, 1.0, law)
        singular_ok = False
    except SingularRecoveryError:
        singular_ok = True
    ok = worst <= 1e-8 and singular_ok
    _report("criterion 8 (forward/backward algebra, 50 kernels)", ok,
            f"worst round-trip error {worst:.2e}; singular case raises: {singular_ok}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    from levyfield.bench import emit_estimate_csv, emit_results_csv

    cfg = section7_config("gaussian", "fourier", window=[40, 40], reps=3,
                          grid_points=512, master_seed=31)
    res1, outs1 = run_bench(cfg, workers=1)
    res2, outs2 = run_bench(cfg, workers=3)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_results_csv(p1, [res1])
    emit_results_csv(p2, [res2])

    def drop_runtime(path):
        return ["," .join(line.split(",")[:4]) for line in path.read_text().splitlines()]

    results_ok = drop_runtime(p1) == drop_runtime(p2)
    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    emit_estimate_csv(e1, outs1[2].estimate, outs1[2].truth)
    emit_estimate_csv(e2, outs2[2].estimate, outs2[2].truth)
    estimates_ok = e1.read_bytes() == e2.read_bytes()
    ok = results_ok and estimates_ok
    _report("criterion 9 (determinism across parallelism)", ok,
            "results identical modulo measured runtime column; "
            f"estimate bytes identical: {estimates_ok}")
    assert ok

import csv
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import warnings
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import levyfield
from levyfield import bench, grids, onb, validate
from levyfield.bench import (
    emit_estimate_csv,
    emit_manifest,
    emit_results_csv,
    run_bench,
    run_pipeline,
)
from levyfield.cli import main as cli_main
from levyfield.config import ExperimentConfig, section7_config
from levyfield.errors import ConfigError, CoverageError, PreconditionError, ResourceLimitError
from levyfield.grids import Grid1D, GridFunction, symmetric_grid
from levyfield.simulate import SeedSpec, sample_field
from levyfield.validate import validate_appendix_rates


def small_cfg(**over):
    base = dict(window=[40, 40], reps=2, grid_points=512, master_seed=77)
    base.update(over)
    method = base.pop("method", "fourier")
    return section7_config("gaussian", method, **base)


class TestConfig:
    def test_defaults_are_benchmark_setting(self):
        cfg = ExperimentConfig()
        assert cfg.kernel["coeffs"] == [1.3, 0.2, 0.1, 0.1]
        assert cfg.window == [100, 100] and cfg.n_N == 1 and cfg.l == 1.0
        assert cfg.A == 6.0 and cfg.m == 7 and cfg.reps == 20

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"metod": "fourier"})

    def test_unknown_nested_keys_rejected(self):
        with pytest.raises(ConfigError, match="kernel"):
            ExperimentConfig(kernel={"coeffs": [1.0], "offsets": [[0, 0]], "vol": [1]},
                             window=[5, 5])
        with pytest.raises(ConfigError, match="jump_law"):
            ExperimentConfig(jump_law={"kind": "gaussian", "scale": 2.0})

    @pytest.mark.parametrize("field,val", [
        ("method", "spline"),
        ("l", 0.0),
        ("bandwidth", "wide"),
        ("window", [100]),
        ("reps", 0),
    ])
    def test_bad_values_rejected(self, field, val):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: val})

    @pytest.mark.parametrize("method", ["plugin", "fourier", "onb"])
    @pytest.mark.parametrize("law", ["gaussian", "exponential"])
    def test_shipped_config_is_section7(self, law, method):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{law}_{method}.json"
        assert json.loads(path.read_text()) == section7_config(law, method).to_dict()

    def test_json_round_trip(self, tmp_path):
        cfg = section7_config("exponential", "onb")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_json(path)
        assert back == cfg
        assert back.content_hash() == cfg.content_hash()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("law", ["gaussian", "exponential"])
    @pytest.mark.parametrize("method", ["plugin", "fourier", "onb"])
    def test_shipped_config_matches_section7(self, law, method):
        path = Path(__file__).parents[1] / "configs" / f"{law}_{method}.json"
        assert json.loads(path.read_text()) == section7_config(law, method).to_dict()

    def test_section7_parameters(self):
        assert section7_config("gaussian", "fourier").bandwidth == 0.5
        assert section7_config("exponential", "plugin").bandwidth == 1.0
        onb_g = section7_config("gaussian", "onb")
        assert onb_g.l == 4.5 and onb_g.bandwidth == 0.7
        onb_e = section7_config("exponential", "onb")
        assert onb_e.l == 4.0 and onb_e.bandwidth == 1.1


class TestPipeline:
    @pytest.mark.parametrize("method", ["plugin", "fourier", "onb"])
    def test_runs_each_method(self, method):
        cfg = small_cfg(method=method)
        if method == "onb":
            cfg = cfg.with_overrides(l=4.5, bandwidth=0.7)
        out = run_pipeline(cfg, rep=0)
        assert out.mse > 0 and np.isfinite(out.mse)
        assert out.estimate.grid.n == cfg.grid_points

    @pytest.mark.parametrize("law,method", [
        ("gaussian", "plugin"), ("gaussian", "fourier"), ("gaussian", "onb"),
        ("exponential", "plugin"), ("exponential", "fourier"), ("exponential", "onb"),
    ])
    def test_oracle_strictly_reduces_mean_mse(self, law, method):
        cfg = section7_config(law, method, reps=3)
        data_res, _ = run_bench(cfg)
        oracle_res, _ = run_bench(cfg.with_overrides(oracle_g1=True))
        assert oracle_res.mean < data_res.mean

    def test_auto_bandwidth_runs(self):
        out = run_pipeline(small_cfg(bandwidth="auto"), rep=0)
        assert np.isfinite(out.mse)

    def test_stage_tag_in_errors(self):
        cfg = small_cfg(method="onb", l=4.5,
                        kernel={"coeffs": [1.0, -1.0], "offsets": [[0, 0], [1, 1]]})
        from levyfield.errors import PreconditionError
        with pytest.raises(PreconditionError, match=r"\[stage onb\]"):
            run_pipeline(cfg, rep=0)


METHODS = ("plugin", "fourier", "onb")


@pytest.fixture
def counted(monkeypatch):
    """Empty sample and ECF entries, and the number of calls run_pipeline
    makes to sample_field and compute_ecf."""
    monkeypatch.setattr(bench, "_last_sample", bench._LastValue())
    monkeypatch.setattr(bench, "_last_ecf", bench._LastValue())
    calls = dict.fromkeys(("sample_field", "compute_ecf"), 0)
    for name in calls:
        def spy(*args, _fn=getattr(bench, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bench, name, spy)
    return calls


def kept_caches():
    """Every functools.lru_cache of levyfield: the functions of its modules
    and the methods of their classes."""
    for info in pkgutil.iter_modules(levyfield.__path__):
        module = importlib.import_module(f"levyfield.{info.name}")
        for obj in vars(module).values():
            for member in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if hasattr(member, "cache_clear"):
                    yield member


def kept_bindings():
    """(owner, name, function) for each binding of a kept function: every
    module attribute of levyfield that holds one, and the kept methods of
    its classes, each once."""
    seen = set()
    for info in pkgutil.iter_modules(levyfield.__path__):
        module = importlib.import_module(f"levyfield.{info.name}")
        for name, obj in vars(module).items():
            owners = [(module, {name: obj})]
            if isinstance(obj, type):
                owners.append((obj, vars(obj)))
            for owner, members in owners:
                for attr, member in members.items():
                    if hasattr(member, "cache_info") and (id(owner), attr) not in seen:
                        seen.add((id(owner), attr))
                        yield owner, attr, member


def arrays_in(value):
    """The numpy arrays in a kept result: the value, the members of tuples
    and the fields of dataclasses, recursively."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple) or dataclasses.is_dataclass(value):
        for item in value if isinstance(value, tuple) else vars(value).values():
            yield from arrays_in(item)


def fresh_estimate(cfg, rep, sample=None):
    """The estimate of a run_pipeline call that finds nothing computed or
    kept before it, as in a fresh process; the shared sample and ECF
    entries are put back afterwards."""
    saved = bench._last_sample, bench._last_ecf
    bench._last_sample, bench._last_ecf = bench._LastValue(), bench._LastValue()
    for cache in kept_caches():
        cache.cache_clear()
    try:
        return run_pipeline(cfg, rep, sample=sample).estimate.values
    finally:
        bench._last_sample, bench._last_ecf = saved


class TestSharing:
    def test_methods_of_one_replication_share_sample_and_ecf(self, counted):
        cfgs = [section7_config("gaussian", m, window=[40, 40]) for m in METHODS]
        outs = [run_pipeline(cfg, 3) for cfg in cfgs]
        # onb runs at l = 4.5, so it needs an ECF of its own
        assert counted == {"sample_field": 1, "compute_ecf": 2}
        for cfg, out in zip(cfgs, outs):
            assert np.array_equal(out.estimate.values, fresh_estimate(cfg, 3))

    def test_repeated_method_computes_afresh(self, counted):
        # an untraced and a traced run of one op must both do the whole work
        cfg = small_cfg()
        first = run_pipeline(cfg, 0).estimate.values
        assert np.array_equal(run_pipeline(cfg, 0).estimate.values, first)
        assert counted == {"sample_field": 2, "compute_ecf": 2}

    @pytest.mark.parametrize("change,simulates", [
        ({"kernel": {"coeffs": [1.4, 0.2, 0.1, 0.1],
                     "offsets": [[0, 0], [1, 0], [0, 1], [1, 1]]}}, 1),
        ({"jump_law": {"kind": "gaussian", "mean": 0.0, "sd": 1.5}}, 1),
        ({"window": [40, 41]}, 1),
        ({"mesh": 2.0}, 1),
        ({"master_seed": 78}, 1),
        ({"rep": 1}, 1),
        ({"l": 1.5}, 0),
    ], ids=["kernel", "law", "window", "mesh", "seed", "rep", "l"])
    def test_changed_input_is_computed_afresh(self, counted, change, simulates):
        # another method, which would take the entry over if nothing had changed
        change = dict(change)
        rep = change.pop("rep", 0)
        run_pipeline(small_cfg(method="plugin"), 0)
        cfg = small_cfg(**change)
        counted.update(sample_field=0, compute_ecf=0)
        est = run_pipeline(cfg, rep).estimate.values
        assert counted == {"sample_field": simulates, "compute_ecf": 1}
        assert np.array_equal(est, fresh_estimate(cfg, rep))

    def test_given_sample_neither_reads_nor_fills(self, counted):
        cfg = small_cfg()
        first = run_pipeline(cfg, 0).estimate.values
        other = sample_field(cfg.kernel_obj(), cfg.law_obj(), (40, 40), SeedSpec(5))
        est = run_pipeline(cfg, 0, sample=other).estimate.values
        assert not np.array_equal(est, first)
        assert np.array_equal(est, fresh_estimate(cfg, 0, sample=other))
        # plug-in takes over the ECF that the first fourier call left
        counted.update(sample_field=0, compute_ecf=0)
        plugin = cfg.with_overrides(method="plugin")
        est = run_pipeline(plugin, 0).estimate.values
        assert counted == {"sample_field": 0, "compute_ecf": 0}
        assert np.array_equal(est, fresh_estimate(plugin, 0))

    def test_shared_arrays_are_read_only(self, counted):
        cfg = small_cfg(method="onb", l=4.5, bandwidth=0.7)
        run_pipeline(cfg, 0)
        _, ecf, _ = bench._last_ecf.entry
        with pytest.raises(ValueError):
            ecf.psi_hat[0] = 0.0
        args = (onb.HaarBasis(cfg.A, cfg.m), cfg.kernel_obj(), bench._WEIGHT)
        system = onb.build_eta(*args)
        assert onb.build_eta(*args) is system
        with pytest.raises(ValueError):
            system.mix[0, 0] = 0.0

    def test_kept_config_work_is_read_only(self, monkeypatch):
        law = {"kind": "tabulated", "x": [-4.0, -2.0, 0.0, 2.0, 4.0],
               "density": [0.05, 0.2, 0.3, 0.2, 0.05]}
        cfg = small_cfg(method="plugin", jump_law=law, oracle_g1=True)
        out = run_pipeline(cfg, 0)
        assert run_pipeline(cfg, 1).truth is out.truth
        kernel = cfg.kernel_obj()
        # a type-2 NUFFT plan, on a grid whose centre is off 0 so that it keeps a phase
        targets = np.linspace(-3.0, 3.0, 50).tobytes()
        _, _, phase = grids._interp_plan(Grid1D(-1.0, 2.0, 64), targets, 1.0, 50)
        for arr in (kernel.coeffs, kernel.offsets, cfg.law_obj().density_.values, phase):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # every kept function: on a second call of each config, each of its
        # results is the object of the first call, and every array in it is
        # read-only
        results = {}
        for owner, attr, fn in kept_bindings():
            def spy(*args, _fn=fn, _seen=results.setdefault(fn.__qualname__, [])):
                _seen.append(_fn(*args))
                return _seen[-1]
            monkeypatch.setattr(owner, attr, spy)

        def kept_by_call(cfg, rep):
            for seen in results.values():
                seen.clear()
            run_pipeline(cfg, rep)
            return {name: list(seen) for name, seen in results.items()}

        reached = set()
        for method in METHODS:
            for oracle in (False, True):
                cfg = small_cfg(method=method, oracle_g1=oracle, smooth_family="bandlimited")
                # the first call also builds the config's setup
                first, second = kept_by_call(cfg, 0), kept_by_call(cfg, 1)
                for name, seen in second.items():
                    where = (method, oracle, name)
                    assert all(any(a is b for b in first[name]) for a in seen), where
                    arrays = [a for r in seen for a in arrays_in(r)]
                    assert not any(a.flags.writeable for a in arrays), where
                    reached |= {name} if seen else set()
        assert reached == set(results)
        assert {"_config_setup", "_series_plan", "build_eta", "_fine_grid", "_interp_plan",
                "SmoothingKernel.grid_function"} <= reached

    def test_one_off_large_grid_is_not_kept(self):
        # 200,001 x-grid points: its truth, nodes, taps, spectrum and the 13
        # blocks of type-2 plans of its inverse transform exceed the keep
        # cap, so repeated calls keep none of them (36 MB stayed kept before)
        import gc
        import tracemalloc

        cfg = section7_config("gaussian", "fourier", oracle_g1=True,
                              smooth_family="bandlimited", grid_points=200_001)
        for cache in kept_caches():
            cache.cache_clear()
        tracemalloc.start()
        try:
            for rep in range(3):
                run_pipeline(cfg, rep)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 4e6

    @pytest.mark.parametrize("case", ["window past the u-grid", "spectrum over budget"])
    def test_kept_call_that_raises_keeps_nothing(self, monkeypatch, case):
        if case == "window past the u-grid":
            cache = grids._symmetric_window
            call = lambda: cache(symmetric_grid(2.0, 65), 3.0)
            error = CoverageError
        else:
            cache = grids._kernel_spectrum
            monkeypatch.setattr(grids, "_MAX_CELLS", 99)
            call = lambda: cache(np.ones(20).tobytes(), "<f8", True, 120)
            error = ResourceLimitError
        cache.cache_clear()
        for _ in range(2):
            with pytest.raises(error):
                call()
        assert cache.cache_info().currsize == 0

    @pytest.mark.parametrize("change", [
        {"bandwidth": 0.8},
        {"jump_law": {"kind": "exponential", "rate": 1.0}},
        {"A": 5.0},
        {"grid_points": 256},
        {"n_N": 2},
        {"l": 1.5},
        {"kernel": {"coeffs": [1.4, 0.2, 0.1, 0.1],
                    "offsets": [[0, 0], [1, 0], [0, 1], [1, 1]]}},
        {"kernel": {"coeffs": [1.3, 0.2, 0.1, 0.1],
                    "offsets": [[0, 0], [1, 0], [0, 1], [2, 1]]}},
    ], ids=["bandwidth", "law", "A", "grid_points", "n_N", "l", "coeffs", "offsets"])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_field_apart_matches_fresh_process(self, change, method):
        # what the first config leaves kept must not reach the second
        base = small_cfg(method=method)
        other = base.with_overrides(**change)
        outs = [run_pipeline(cfg, 1).estimate.values for cfg in (base, other, base)]
        for cfg, est in zip((base, other, base), outs):
            assert np.array_equal(est, fresh_estimate(cfg, 1))

    def test_refused_eta_system_raises_every_call(self):
        kernel = small_cfg(kernel={"coeffs": [1.0, -1.0], "offsets": [[0, 0], [1, 1]]}).kernel_obj()
        for _ in range(2):
            with pytest.raises(PreconditionError):
                onb.build_eta(onb.HaarBasis(6.0, 7), kernel, bench._WEIGHT)

    def test_threads_see_their_own_inputs(self):
        jobs = [(small_cfg(method=m, window=[20, 20], l=4.5 if m == "onb" else 1.0), rep)
                for rep in range(4) for m in METHODS]
        expected = [fresh_estimate(cfg, rep) for cfg, rep in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outs = list(pool.map(lambda job: run_pipeline(*job), jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for want, out in zip(expected, outs):
            assert np.array_equal(out.estimate.values, want)


class TestDeterminism:
    def test_bench_outputs_identical_across_workers(self, tmp_path):
        cfg = small_cfg(reps=3)
        res1, _ = run_bench(cfg, workers=1)
        res2, _ = run_bench(cfg, workers=3)
        assert np.array_equal(res1.mses, res2.mses)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results_csv(p1, [res1])
        emit_results_csv(p2, [res2])

        def drop_runtime(path):
            return ["," .join(line.split(",")[:4]) for line in path.read_text().splitlines()]

        assert drop_runtime(p1) == drop_runtime(p2)

    def test_estimates_byte_identical(self, tmp_path):
        cfg = small_cfg(reps=1)
        out1 = run_pipeline(cfg, 0)
        out2 = run_pipeline(cfg, 0)
        p1, p2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        emit_estimate_csv(p1, out1.estimate, out1.truth)
        emit_estimate_csv(p2, out2.estimate, out2.truth)
        assert p1.read_bytes() == p2.read_bytes()


class TestOutputs:
    def test_results_csv_header(self, tmp_path):
        cfg = small_cfg(reps=2)
        res, _ = run_bench(cfg)
        path = tmp_path / "r.csv"
        emit_results_csv(path, [res])
        lines = path.read_text().splitlines()
        assert lines[0] == "method,law,rep,mse,runtime_s"
        assert len(lines) == 3
        assert lines[1].split(",")[:3] == ["fourier", "gaussian", "0"]

    def test_estimate_csv_header(self, tmp_path):
        cfg = small_cfg(reps=1)
        out = run_pipeline(cfg, 0)
        path = tmp_path / "est.csv"
        emit_estimate_csv(path, out.estimate, out.truth)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,g0_true,g0_hat"
        assert len(lines) == cfg.grid_points + 1

    def test_estimate_csv_bytes_are_csv_writer_bytes(self, tmp_path):
        grid = symmetric_grid(1.0, 6)
        est = GridFunction(grid, np.array([-0.0, 1e-05, 1e16, -1.5e-300, 0.1, 123456789.125]))
        truth = GridFunction(grid, np.array([0.0, -1e-05, -1e16, 5e-324, 1 / 3, -2.0]))
        path = tmp_path / "e.csv"
        emit_estimate_csv(path, est, truth)
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(["x", "g0_true", "g0_hat"])
        for row in zip(grid.nodes(), truth.values, est.values):
            writer.writerow([repr(float(v)) for v in row])
        assert path.read_bytes() == ref.getvalue().encode()

    def test_estimate_csv_bytes_on_a_large_grid(self, tmp_path):
        grid = symmetric_grid(3.0, 2048)
        rng = np.random.default_rng(3)
        est, truth = (GridFunction(grid, rng.standard_normal(2048) * 10.0 ** rng.integers(-30, 30, 2048))
                      for _ in range(2))
        path = tmp_path / "e.csv"
        emit_estimate_csv(path, est, truth)
        ref = io.StringIO()
        csv.writer(ref).writerows([["x", "g0_true", "g0_hat"]] + [
            [repr(float(v)) for v in row] for row in zip(grid.nodes(), truth.values, est.values)])
        assert path.read_bytes() == ref.getvalue().encode()

    def test_manifest_contains_hash(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.json"
        emit_manifest(path, cfg, extra={"note": 1})
        doc = json.loads(path.read_text())
        assert doc["content_hash"] == cfg.content_hash()
        assert doc["config"]["master_seed"] == cfg.master_seed
        assert doc["note"] == 1


class TestAppendixRates:
    def test_thin_replication_warning(self):
        cfg = ExperimentConfig(window=[20, 20])
        with pytest.warns(RuntimeWarning, match="thin"):
            validate_appendix_rates(cfg, reps=10)

    @pytest.mark.parametrize("d,n_list", [
        (1, [100, 316, 1000, 3163, 10000]),
        (2, [100, 324, 1024, 3136, 10000]),
        (3, [125, 343, 1000, 3375, 10648]),
    ])
    def test_window_sizes_per_dimension(self, d, n_list):
        cfg = ExperimentConfig(kernel={"coeffs": [1.0, 0.5], "offsets": [[0] * d, [1] + [0] * (d - 1)]},
                               window=[6] * d)
        with pytest.warns(RuntimeWarning, match="thin"):
            assert validate_appendix_rates(cfg, reps=1)["n"] == n_list

    def test_iid_field_slopes_tight(self):
        # a single-cell kernel gives i.i.d. observations and the classical
        # central-limit rates with tighter bands
        cfg = ExperimentConfig(kernel={"coeffs": [1.0], "offsets": [[0, 0]]},
                               master_seed=606)
        rep = validate_appendix_rates(cfg, reps=200)
        assert rep["slope_psi"] == pytest.approx(-1.0, abs=0.1)
        assert rep["slope_theta"] == pytest.approx(-2.0, abs=0.1)

    def test_exponential_field_slopes(self):
        cfg = ExperimentConfig(jump_law={"kind": "exponential", "rate": 1.0},
                               master_seed=607)
        rep = validate_appendix_rates(cfg, reps=150)
        assert rep["slope_psi"] == pytest.approx(-1.0, abs=0.15)
        assert rep["slope_theta"] == pytest.approx(-2.0, abs=0.2)


class TestCli:
    def _write_cfg(self, tmp_path, **over):
        cfg = small_cfg(**over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return path

    def _write_volumes(self, tmp_path, volumes, **over):
        # raw JSON, since ExperimentConfig itself refuses the key
        doc = small_cfg(**over).to_dict()
        doc["kernel"]["volumes"] = volumes
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_simulate_estimate_bench_round_trip(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        sample = tmp_path / "s.csv"
        est = tmp_path / "e.csv"
        results = tmp_path / "r.csv"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(sample)]) == 0
        assert sample.read_text().splitlines()[0] == "j1,j2,value"
        assert cli_main(["estimate", "--method", "fourier", "--sample", str(sample),
                         "--config", str(cfg_path), "--out", str(est)]) == 0
        assert est.read_text().splitlines()[0] == "x,g0_true,g0_hat"
        assert cli_main(["bench", "--config", str(cfg_path), "--reps", "2",
                         "--out", str(results)]) == 0
        assert len(results.read_text().splitlines()) == 3

    @pytest.mark.parametrize("key,val", [
        ("methd", "fourier"),
        ("n_N", "abc"),
        ("n_N", True),
        ("reps", 1.7),
        ("window", [100, "a"]),
        ("l", "x"),
        ("A", float("inf")),
        ("master_seed", -1),
        ("grid_points", 1),
    ])
    def test_config_error_exit_code(self, tmp_path, key, val):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: val}))
        assert cli_main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["bench", "--workers", "0"],
        ["bench", "--workers", "-1"],
        ["validate", "--suite", "appendix-rates", "--reps", "0"],
        ["validate", "--suite", "appendix-rates", "--reps", "-5"],
    ], ids=["workers=0", "workers=-1", "reps=0", "reps=-5"])
    def test_nonpositive_count_exit_code(self, tmp_path, capsys, argv):
        cfg_path = self._write_cfg(tmp_path, reps=1)
        out = ["--out", str(tmp_path / "r.csv")] if argv[0] == "bench" else []
        assert cli_main(argv + ["--config", str(cfg_path)] + out) == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_error_exit_code(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, method="onb", l=4.5,
                                   kernel={"coeffs": [1.0, -1.0],
                                           "offsets": [[0, 0], [1, 1]]})
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.csv")]) == 3

    def test_non_dominant_default_pivot_exit_code(self, tmp_path, capsys):
        # the pivot minimising e is 0.9 (e = 0.26, against 3.79 for 1.0),
        # and the Haar system needs a pivot of maximal |f_k|
        cfg_path = self._write_cfg(tmp_path, method="onb", l=4.5, reps=1, window=[200],
                                   kernel={"coeffs": [1.0, 0.9, 0.9, 0.9, 0.9],
                                           "offsets": [[0], [1], [2], [3], [4]]})
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.csv")]) == 3
        assert "[stage onb] pivot |0.9| must dominate" in capsys.readouterr().err

    @pytest.mark.parametrize("over", [
        {"A": 1e-9},                            # a ~1e12-node kernel grid
        {"grid_points": 2_000_000_000},         # a 2e9-node x-grid
        {"method": "onb", "m": 2 ** 45 + 1},    # 2^46 Haar cells
        {"method": "onb", "m": 8192},           # 8192 functions on 8192 cells
        {"A": 1e-310},                          # a subnormal x-grid spacing
        {"method": "onb", "A": 1e-310},
        {"method": "onb", "A": 1e308},          # an infinite x-grid spacing
        {"bandwidth": 1e308},                   # an infinite kernel radius
        {"bandwidth": 1e308, "smooth_family": "bandlimited"},
        {"n_N": 10 ** 400},                     # a series of ~10^1200 terms
        {"reps": 10 ** 400},                    # 10^400 estimates held at once
        {"l": 1e300},                           # ECF positions past 2^52 grid points
        {"jump_law": {"kind": "gaussian", "mean": 1e300, "sd": 1.0}},
        {"A": 1e30},                            # x-grid positions past 2^52
        {"oracle_g1": True, "jump_law": {"kind": "tabulated", "x": [-4, -2, 0, 2, 4],
                                         "density": [1e300] * 5}},  # squared error overflows
        # a 40,960,001-node u-grid, within budget, whose ECF needs a
        # 2^27-point type-1 NUFFT grid
        {"kernel": {"coeffs": [1.0] * 12 + [10.0], "offsets": [[i, 0] for i in range(13)]},
         "n_N": 4, "window": [20, 20]},
    ], ids=["A", "grid_points", "m=2^45+1", "m=8192", "A=1e-310-fourier",
            "A=1e-310-onb", "A=1e308-onb", "bandwidth=1e308-epanechnikov",
            "bandwidth=1e308-bandlimited", "n_N=10^400", "reps=10^400", "l=1e300",
            "mean=1e300", "A=1e30", "density=1e300", "nufft-grid"])
    def test_oversized_kernel_grid_exit_code(self, tmp_path, capsys, over):
        # each grid, series or batch is refused before it is allocated: by the
        # grid or term budget, or because its spacing or node count is not a
        # normal float; and so is a point past either non-uniform FFT's
        # bound, or a squared error that is not finite
        cfg_path = self._write_cfg(tmp_path, **{"reps": 1, **over})
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.csv")]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_appendix_rates_budget_exit_code(self, monkeypatch):
        # 10^12 replications of 14584 cells, refused before the first sample
        monkeypatch.setattr(validate, "sample_field", None)  # a call would be exit 1
        assert cli_main(["validate", "--suite", "appendix-rates", "--reps", str(10 ** 12)]) == 3

    def test_appendix_rates_non_finite_moment_exit_code(self, tmp_path, capsys):
        # |theta_hat - theta|^4 overflows: refused before any fit or print
        law = {"kind": "gaussian", "mean": 1e100, "sd": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(ExperimentConfig(jump_law=law).canonical_json())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["validate", "--suite", "appendix-rates", "--config", str(path),
                             "--reps", "2"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and "nan" not in err
        assert "E|theta_hat - theta|^4" in err and "'mean': 1e+100" in err
        assert len(err.splitlines()) == 1
        assert not [w for w in caught if "overflow" in str(w.message)]

    def test_onb_non_unit_volumes_exit_code(self, tmp_path):
        cfg_path = self._write_volumes(tmp_path, [2.0, 1.0, 1.0, 1.0], method="onb",
                                       oracle_g1=True, reps=1)
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("volumes", [[2, 1, 1, 1], [1.0], [1.0, 1.0], [[1.0]], "x",
                                         [True, True, True, True]],
                             ids=["non-unit", "short", "two", "nested", "string", "bools"])
    @pytest.mark.parametrize("command", ["bench", "simulate"])
    def test_bad_volumes_exit_code(self, tmp_path, command, volumes):
        # refused at load; read as cell weights, a short list would drop cells
        cfg_path = self._write_volumes(tmp_path, volumes, oracle_g1=True, reps=1)
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out.csv")]) == 2

    @pytest.mark.parametrize("over,name", [
        ({"window": [40]}, "window"),
        ({"window": [10, 10, 10]}, "window"),
        ({"mesh": 0.5}, "mesh"),
        ({"jump_law": {"kind": "tabulated", "x": [0, 1, 3, 4],
                       "density": [0.1, 0.5, 0.5, 0.1]}}, "jump_law.x"),
        ({"jump_law": {"kind": "tabulated", "x": [0, 2, 1, 4],
                       "density": [0.1, 0.5, 0.5, 0.1]}}, "jump_law.x"),
        ({"d": 2}, "'d'"),
        ({"beta": 1}, "'beta'"),
        ({"haar_levels": 2}, "'haar_levels'"),
        ({"kernel": {"coeffs": [1.3, 0.2, 0.1, 0.1], "volumes": [1, 1, 1, 1],
                     "offsets": [[0, 0], [1, 0], [0, 1], [1, 1]]}}, "'volumes'"),
    ], ids=["window-1d", "window-3d", "mesh", "x-gap", "x-unordered", "d", "beta", "haar_levels",
            "volumes"])
    @pytest.mark.parametrize("command", ["bench", "simulate"])
    def test_load_time_fault_exit_code(self, tmp_path, capsys, monkeypatch, command, over, name):
        # refused when the config is loaded, before anything is simulated
        def simulated(*args, **kwargs):
            raise AssertionError("a refused config reached the simulation")

        monkeypatch.setattr(bench, "sample_field", simulated)
        monkeypatch.setattr("levyfield.cli.sample_field", simulated)
        doc = small_cfg(reps=1).to_dict()
        doc.update(over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command, "--config", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("oracle", [False, True], ids=["estimated", "oracle"])
    def test_fourier_kernel_with_scales_below_one(self, tmp_path, oracle):
        # the benchmark kernel halved: min|scale| = 0.65, so the Fourier method
        # reads F[g1] out to pi l / 0.65
        cfg_path = self._write_cfg(tmp_path, reps=1, oracle_g1=oracle,
                                   kernel={"coeffs": [0.65, 0.1, 0.05, 0.05],
                                           "offsets": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        results = tmp_path / "r.csv"
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(results)]) == 0
        with open(results, newline="") as fh:
            assert np.isfinite(float(next(csv.DictReader(fh))["mse"]))

    @pytest.mark.parametrize("over,code,command", [
        ({"bandwidth": 1e-300, "smooth_family": "gaussian"}, 0, "bench"),
        ({"bandwidth": 1e-300, "smooth_family": "epanechnikov"}, 0, "bench"),
        ({"bandwidth": 1e-300, "smooth_family": "bandlimited"}, 0, "bench"),
        ({"A": 1e307, "method": "plugin"}, 3, "bench"),
        ({"bandwidth": 5e-324, "smooth_family": "gaussian"}, 2, "bench"),
        ({"bandwidth": 5e-324, "smooth_family": "epanechnikov"}, 2, "bench"),
        ({"bandwidth": 5e-324, "smooth_family": "bandlimited"}, 2, "bench"),
        ({"jump_law": {"kind": "gaussian", "mean": 1e308, "sd": 1}}, 3, "bench"),
        ({"jump_law": {"kind": "gaussian", "mean": 3e307, "sd": 1}}, 3, "bench"),
        ({"jump_law": {"kind": "gaussian", "mean": 1e308, "sd": 1}}, 3, "simulate"),
    ], ids=["bandwidth-gaussian", "bandwidth-epanechnikov", "bandwidth-bandlimited", "A",
            "subnormal-bandwidth-gaussian", "subnormal-bandwidth-epanechnikov",
            "subnormal-bandwidth-bandlimited", "jump-sums", "ecf-positions",
            "simulate-jump-sums"])
    def test_overflow_gives_no_numpy_warning(self, tmp_path, capsys, over, code, command):
        # the kernel tails square to inf (value 0); the plug-in's NUFFT positions
        # overflow to inf, which is refused; a bandwidth whose reciprocal
        # overflows is refused when the config is loaded (raw JSON, since
        # ExperimentConfig itself refuses it); jump sums that overflow give a
        # non-finite sample, which is refused, and sample values near 3e307
        # put the ECF's NUFFT positions beyond 2^52 grid points (or at inf)
        doc = small_cfg(window=[6, 6], grid_points=64).to_dict()
        doc.update(over)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "r.csv")]) == code
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        if code == 2:
            assert "bandwidth" in err and len(err.strip().splitlines()) == 1
        if code == 3:
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("method,coeffs,n_N,oracle_g1", [
        ("fourier", [1e-200, 0.5e-200], 1, False),  # f1^2 underflows, so a series scale is 0
        ("plugin", [1e-200, 0.5e-200], 1, False),
        ("fourier", [1e-5, 0.9e-5], 1, False),      # min|scale| 1.1e-5 asks for a 3.7e8-node u-grid
        ("plugin", [1.0, 1e-200], 2, False),        # the depth-2 product underflows to 0
        ("fourier", [1e300, 1.0], 1, False),        # f1^2 overflows
        ("fourier", [1e-310, 1e-311], 1, False),    # the weight |scale|^-beta overflows
        ("plugin", [1e200, 1e199], 2, True),        # f1^2 and the depth-2 product overflow
        ("onb", [1e-310, 1e-311], 1, False),        # h(x)/h(f1 x) overflows
        ("plugin", [1.3, 0.1, 0.1, 0.1], 700, False),  # a multiplicity passes the float range
    ], ids=["zero-scale-fourier", "zero-scale-plugin", "u-grid-budget", "zero-product",
            "overflowing-scale", "overflowing-spectral-weight", "overflowing-product",
            "overflowing-weight-ratio", "overflowing-count"])
    def test_small_series_scale_exit_code(self, tmp_path, capsys, method, coeffs, n_N,
                                          oracle_g1):
        offsets = [[0, 0], [1, 0], [0, 1], [1, 1]][:len(coeffs)]
        cfg_path = self._write_cfg(tmp_path, method=method, reps=1, n_N=n_N,
                                   oracle_g1=oracle_g1,
                                   kernel={"coeffs": coeffs, "offsets": offsets})
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.csv")]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("coeffs,reach", [([1.3, 0.2, 0.1, 0.1], np.pi),
                                              ([0.65, 0.1, 0.05, 0.05], np.pi / 0.65)])
    @pytest.mark.parametrize("method", METHODS)
    def test_u_grid_reach(self, method, coeffs, reach):
        cfg = section7_config("gaussian", method, l=1.0,
                              kernel={**ExperimentConfig().kernel, "coeffs": coeffs})
        u_grid = bench._u_grid(cfg, cfg.kernel_obj())
        if method != "fourier" or reach == np.pi:
            # the benchmark's grid, unchanged
            assert u_grid == symmetric_grid(np.pi, 4097)
        else:
            assert u_grid.hi >= reach and u_grid.n % 2 == 1
            assert u_grid.spacing == pytest.approx(2 * np.pi / 4096, rel=1e-12)

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        missing_dir = tmp_path / "no" / "such" / "dir" / "r.csv"
        assert cli_main(["bench", "--config", str(cfg_path), "--reps", "1",
                         "--out", str(missing_dir)]) == 4
        assert cli_main(["bench", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "r.csv")]) == 4

    @pytest.mark.parametrize("argv", [
        ["--reps", "0"],
        ["--reps", "2"],
        ["--config", "/nonexistent/cfg.json"],
        ["--config", "/nonexistent/cfg.json", "--reps", "2"],
    ], ids=["reps=0", "reps=2", "config", "config-reps"])
    @pytest.mark.parametrize("suite", ["kernels", "fixed-point", "onb"])
    def test_validate_option_a_suite_does_not_read(self, capsys, suite, argv):
        # these suites read neither option: giving one is a config error
        # naming the suite and the option, not a run that ignores it
        assert cli_main(["validate", "--suite", suite, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("config error:") and f"the {suite} suite" in err
        assert all(opt in err for opt in argv if opt.startswith("--"))

    def test_appendix_rates_reads_an_empty_config_path(self, capsys):
        # "" is a path that names no file, not an absent --config
        assert cli_main(["validate", "--suite", "appendix-rates", "--config", "",
                         "--reps", "2"]) == 4
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_validate_suites(self):
        for suite in ("fixed-point", "onb", "appendix-rates"):
            assert cli_main(["validate", "--suite", suite]) == 0

    def test_seed_override_changes_sample(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        s1, s2, s3 = (tmp_path / n for n in ("s1.csv", "s2.csv", "s3.csv"))
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(s1)])
        cli_main(["simulate", "--config", str(cfg_path), "--seed", "123", "--out", str(s2)])
        cli_main(["simulate", "--config", str(cfg_path), "--seed", "123", "--out", str(s3)])
        assert s1.read_bytes() != s2.read_bytes()
        assert s2.read_bytes() == s3.read_bytes()

    def test_estimate_onb_method(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, method="onb", l=4.5, bandwidth=0.7)
        sample = tmp_path / "s.csv"
        est = tmp_path / "e.csv"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(sample)]) == 0
        assert cli_main(["estimate", "--sample", str(sample),
                         "--config", str(cfg_path), "--out", str(est)]) == 0
        assert est.read_text().splitlines()[0] == "x,g0_true,g0_hat"

    def test_malformed_sample_exit_code(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        bad = tmp_path / "bad.csv"
        header = "j1,j2,value\n"
        for text in (header + "0,0,not-a-number\n",
                     header + "0,-1,0.5\n0,1,0.7\n",     # negative coordinate
                     header + "0,0,0.5,9\n0,1,0.7\n",    # extra field
                     "j1,j2,val\n0,0,0.5\n",             # wrong header
                     header,                              # a header and no rows
                     "",                                  # empty file
                     header + "0,1.5,0.2\n",              # non-integer coordinate
                     header + "0,0,0.5\n0,1,0.7\n1,0,0.1\n0,1,0.7\n",  # duplicate row
                     header + "0,0,0.5\n1,1,0.7\n",       # incomplete box
                     header + "0,0,0.5\n\n0,1,0.7\n",     # blank line between rows
                     header + "0,0,0.5 x\n0,1,0.7\n"):    # text after the value
            bad.write_text(text)
            assert cli_main(["estimate", "--sample", str(bad), "--config", str(cfg_path),
                             "--out", str(tmp_path / "e.csv")]) == 3

    def test_bench_dump_estimates(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, reps=2)
        out_dir = tmp_path / "dumps"
        assert cli_main(["bench", "--config", str(cfg_path), "--out",
                         str(tmp_path / "r.csv"), "--dump-estimates", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["est_000.csv", "est_001.csv"]

    def test_tabulated_law_end_to_end(self, tmp_path):
        x = np.linspace(-8, 8, 801)
        dens = (np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)).tolist()
        cfg = small_cfg(jump_law={"kind": "tabulated", "x": x.tolist(), "density": dens},
                        reps=1)
        out = run_pipeline(cfg, rep=0)
        assert np.isfinite(out.mse) and out.mse < 1.0


def test_reproduce_benchmark_script(tmp_path):
    # the script's six results CSVs carry the MSEs of run_bench on the same cells
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "reproduce_benchmark.py"),
                           "--reps", "2", "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 6
    assert len(list(tmp_path.glob("*.manifest.json"))) == 6
    for law in ("gaussian", "exponential"):
        for method in ("fourier", "plugin", "onb"):
            with open(tmp_path / f"{law}_{method}.csv", newline="") as fh:
                mses = [float(row["mse"]) for row in csv.DictReader(fh)]
            result, _ = run_bench(section7_config(law, method, reps=2))
            assert mses == result.mses.tolist()


@pytest.mark.parametrize("argv", [["--reps", "1", "--workers", "0"], ["--reps", "0"]],
                         ids=["workers-0", "reps-0"])
def test_reproduce_benchmark_script_config_error(tmp_path, argv):
    # a bad option exits 2 through the CLI's error mapping, not with a traceback
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "reproduce_benchmark.py"),
                           *argv, "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr

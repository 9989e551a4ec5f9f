import json
from pathlib import Path

import numpy as np
import pytest

from levyfield.bench import (
    emit_estimate_csv,
    emit_manifest,
    emit_results_csv,
    run_bench,
    run_pipeline,
    validate_appendix_rates,
)
from levyfield.cli import main as cli_main
from levyfield.config import ExperimentConfig, section7_config
from levyfield.errors import ConfigError


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

    def test_beta_restriction_on_data_runs(self):
        cfg = small_cfg(beta=2)
        with pytest.raises(ConfigError, match="beta"):
            run_pipeline(cfg, rep=0)

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
            validate_appendix_rates(cfg, sides=[10, 14, 20], reps=10)

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
    ])
    def test_config_error_exit_code(self, tmp_path, key, val):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: val}))
        assert cli_main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2

    def test_numeric_error_exit_code(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, method="onb", l=4.5,
                                   kernel={"coeffs": [1.0, -1.0],
                                           "offsets": [[0, 0], [1, 1]]})
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.csv")]) == 3

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        missing_dir = tmp_path / "no" / "such" / "dir" / "r.csv"
        assert cli_main(["bench", "--config", str(cfg_path), "--reps", "1",
                         "--out", str(missing_dir)]) == 4
        assert cli_main(["bench", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "r.csv")]) == 4

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
        bad.write_text("j1,j2,value\n0,0,not-a-number\n")
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

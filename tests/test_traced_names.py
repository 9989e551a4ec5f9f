"""Every function that the benchmark's per-layer tracer (perfbench/tracing.py)
wraps keeps its name, and every work count it takes from their arguments
still binds.  A renamed layer would otherwise only show up as a missing
span or a count error in a traced benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from levyfield import bench, cli
from levyfield.config import section7_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_layer_exists_and_counts_bind(tracing, tmp_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing, contextlib.redirect_stdout(io.StringIO()):
        for method in ("plugin", "fourier", "onb"):
            cfg = section7_config("gaussian", method, window=[30, 30])
            path = tmp_path / f"{method}.json"
            path.write_text(cfg.canonical_json())
            sample, est = str(tmp_path / "s.csv"), str(tmp_path / f"{method}.csv")
            assert cli.main(["simulate", "--config", str(path), "--out", sample]) == 0
            assert cli.main(["estimate", "--config", str(path), "--sample", sample,
                             "--out", est]) == 0
        bench.run_pipeline(section7_config("gaussian", "fourier", oracle_g1=True), 0)
    assert missing == []
    assert {s.name for s in tracer.spans} == {row[0] for row in tracing.LAYER_SPANS}
    counts = tracer.take_counts()
    assert counts and not any("count_errors" in acc for acc in counts.values())

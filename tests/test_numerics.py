"""The numerics record.  Every MSE of the groups of
``scripts/estimate_digests.py``, recomputed in process, matches
``tests/data/numerics.json``, and the first pass over the cells of the
``table1_n10k`` and ``oracle_fejer`` benchmark workloads matches the gate
of ``perfbench/baseline.json``, each at GATE_RTOL relative.

A change that moves a value past the tolerance re-records the file in the
same change, with

    PYTHONPATH=src python scripts/estimate_digests.py --record tests/data/numerics.json

and declares the move as a numerics change with its reason.  Neither the
record nor the tolerance is changed to let a value through.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# as the benchmark's gate: last-bit differences between CPU instruction
# sets stay below it, and bench._N_U = 4095 (7.9e-9) does not
GATE_RTOL = 1e-9


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"numerics_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_digest_group_mses_match_the_record():
    record = json.loads((ROOT / "tests" / "data" / "numerics.json").read_text())
    results = _load(ROOT / "scripts" / "estimate_digests.py").results()
    got = {name: mses for name, (_, mses) in results.items() if mses}
    assert list(got) == list(record)
    for name, mses in record.items():
        assert got[name] == pytest.approx(mses, rel=GATE_RTOL, abs=0), name


@pytest.mark.parametrize("name", ["table1_n10k", "oracle_fejer"])
def test_benchmark_first_pass_matches_the_gate(tmp_path, name):
    # the baseline is read, never written
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    workload = workloads.WORKLOADS[name](baseline["recorded_seed"], tmp_path)
    mses = {}
    for k in range(workload.cycle):
        op = workload.evaluate(k, workload.run(k))
        assert op.ok, op.problems
        mses.update(op.mses)
    assert mses == pytest.approx(baseline["gate"][name], rel=GATE_RTOL, abs=0)

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: imports every levyfield module, simulates
# through the CLI and runs one oracle band-limited pipeline, then reports the
# scipy modules loaded; then runs one six-cell Table 1 replication and
# estimates from the simulated sample through the CLI, and reports them again.
_SCRIPT = """
import importlib, json, pkgutil, sys
import levyfield

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for mod in pkgutil.iter_modules(levyfield.__path__):
    importlib.import_module("levyfield." + mod.name)
from levyfield import bench, cli
from levyfield.config import section7_config

cfg_path, sample_path = sys.argv[1:]
with open(cfg_path, "w") as fh:
    json.dump(section7_config("gaussian", "onb", window=[20, 20]).to_dict(), fh)
assert cli.main(["simulate", "--config", cfg_path, "--out", sample_path]) == 0
bench.run_pipeline(section7_config("exponential", "onb", oracle_g1=True,
                                   smooth_family="bandlimited"), 0)
print(json.dumps(scipy_modules()))
for law in ("gaussian", "exponential"):
    for method in ("plugin", "fourier", "onb"):
        bench.run_pipeline(section7_config(law, method), 0)
for method in ("plugin", "fourier", "onb"):
    assert cli.main(["estimate", "--method", method, "--config", cfg_path,
                     "--sample", sample_path, "--out", sample_path + ".est"]) == 0
print(json.dumps(scipy_modules()))
"""


def test_import_footprint(tmp_path):
    # numpy alone at import, in the CLI's simulation, in the oracle
    # pipelines, in the estimated Table 1 pipelines and in the CLI's estimates
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path / "cfg.json"),
                           str(tmp_path / "sample.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = [json.loads(line) for line in proc.stdout.splitlines()
                     if line.startswith("[")]
    assert before == []
    assert after == []

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter in which `import scipy` raises: imports every
# levyfield module, simulates through the CLI and runs one oracle
# band-limited pipeline, then records the scipy modules loaded; then runs one
# six-cell Table 1 replication and estimates from the simulated sample
# through the CLI with each method, and records the scipy modules and whether
# numpy.polynomial is loaded; then runs the remaining CLI subcommands.
# Prints one JSON object: those records and the exit code of every CLI
# subcommand.
_SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys, warnings

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} is blocked")
        return None

cfg_path, sample_path = sys.argv[1:]
sys.meta_path.insert(0, NoScipy())
warnings.simplefilter("ignore")

import levyfield

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for mod in pkgutil.iter_modules(levyfield.__path__):
    importlib.import_module("levyfield." + mod.name)
from levyfield import bench, cli
from levyfield.config import section7_config

codes = {}

def run(name, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.main(list(argv))

with open(cfg_path, "w") as fh:
    json.dump(section7_config("gaussian", "onb", window=[20, 20]).to_dict(), fh)
run("simulate", "simulate", "--config", cfg_path, "--out", sample_path)
bench.run_pipeline(section7_config("exponential", "onb", oracle_g1=True,
                                   smooth_family="bandlimited"), 0)
before = scipy_modules()
for law in ("gaussian", "exponential"):
    for method in ("plugin", "fourier", "onb"):
        bench.run_pipeline(section7_config(law, method), 0)
for method in ("plugin", "fourier", "onb"):
    run("estimate " + method, "estimate", "--method", method, "--config", cfg_path,
        "--sample", sample_path, "--out", sample_path + ".est")
after = scipy_modules()
polynomial = "numpy.polynomial" in sys.modules
run("bench", "bench", "--config", cfg_path, "--reps", "2", "--out", sample_path + ".bench")
for suite in ("kernels", "fixed-point", "onb", "appendix-rates"):
    run("validate " + suite, "validate", "--suite", suite, "--reps", "2")
print(json.dumps({"before": before, "after": after, "polynomial": polynomial,
                  "codes": codes, "scipy": scipy_modules()}))
"""


def test_import_footprint(tmp_path):
    # numpy alone at import, in the CLI's simulation, in the oracle
    # pipelines, in the estimated Table 1 pipelines and in the CLI's
    # estimates, which load no numpy.polynomial either; with scipy blocked,
    # every CLI subcommand exits 0, except appendix-rates, whose seeded
    # slopes from 2 replications miss their targets (exit 3)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path / "cfg.json"),
                           str(tmp_path / "sample.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["before"] == []
    assert report["after"] == []
    assert not report["polynomial"]
    assert report["scipy"] == []
    assert report["codes"] == {
        "simulate": 0, "estimate plugin": 0, "estimate fourier": 0, "estimate onb": 0,
        "bench": 0, "validate kernels": 0, "validate fixed-point": 0, "validate onb": 0,
        "validate appendix-rates": 3,
    }

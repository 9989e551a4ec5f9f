"""Experiment configuration: a single JSON document, schema-validated with
unknown keys rejected.

The defaults reproduce the benchmark setting: a 2-d field with kernel
coefficients (1.3, 0.2, 0.1, 0.1) on a 2x2 block of unit lattice cells,
standard normal jumps, a 100x100 observation window (N = 10^4), series
depth 1, spectral cutoff 1, Haar parameters A = 6 and m = 7, and
Epanechnikov smoothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .model import JumpLaw, SimpleKernel, WeightH
from .simulate import SeedSpec

__all__ = ["ExperimentConfig", "TABLE1", "section7_config"]

_METHODS = ("plugin", "fourier", "onb")
_SMOOTH_FAMILIES = ("gaussian", "epanechnikov", "bandlimited")
_LAW_KEYS = {
    "gaussian": {"kind", "mean", "sd"},
    "exponential": {"kind", "rate"},
    "tabulated": {"kind", "x", "density"},
}


def _is_int(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def _is_positive_real(val) -> bool:
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and math.isfinite(val) and val > 0)


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 2
    kernel: dict = field(default_factory=lambda: {
        "coeffs": [1.3, 0.2, 0.1, 0.1],
        "offsets": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "volumes": [1.0, 1.0, 1.0, 1.0],
    })
    jump_law: dict = field(default_factory=lambda: {"kind": "gaussian", "mean": 0.0, "sd": 1.0})
    window: list = field(default_factory=lambda: [100, 100])
    mesh: float = 1.0
    method: str = "fourier"
    beta: int = 1
    n_N: int = 1
    l: float = 1.0
    A: float = 6.0
    grid_points: int = 2048
    bandwidth: float | str = 0.5
    smooth_family: str = "epanechnikov"
    haar_levels: int = 2
    m: int = 7
    reps: int = 20
    master_seed: int = 20259
    oracle_g1: bool = False

    # -- validation -------------------------------------------------------

    def __post_init__(self):
        self._check()

    def _check(self):
        c = self
        if c.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {c.method!r}")
        if c.smooth_family not in _SMOOTH_FAMILIES:
            raise ConfigError(f"smooth_family must be one of {_SMOOTH_FAMILIES}")
        if not isinstance(c.kernel, dict):
            raise ConfigError("kernel must be an object")
        extra = set(c.kernel) - {"coeffs", "offsets", "volumes"}
        if extra:
            raise ConfigError(f"unknown kernel keys: {sorted(extra)}")
        for key in ("coeffs", "offsets"):
            if key not in c.kernel:
                raise ConfigError(f"kernel.{key} is required")
        if not isinstance(c.jump_law, dict) or "kind" not in c.jump_law:
            raise ConfigError("jump_law must be an object with a 'kind'")
        kind = c.jump_law["kind"]
        if kind not in _LAW_KEYS:
            raise ConfigError(f"unknown jump law kind {kind!r}")
        extra = set(c.jump_law) - _LAW_KEYS[kind]
        if extra:
            raise ConfigError(f"unknown jump_law keys for {kind}: {sorted(extra)}")
        for name, lo in (("d", 1), ("beta", 0), ("n_N", 0), ("grid_points", 1),
                         ("haar_levels", 0), ("m", 1), ("reps", 1), ("master_seed", 0)):
            val = getattr(c, name)
            if not _is_int(val) or val < lo:
                raise ConfigError(f"{name} must be an integer >= {lo}, got {val!r}")
        if len(c.window) != c.d or not all(_is_int(w) and w >= 1 for w in c.window):
            raise ConfigError("window must list one positive integer extent per dimension")
        for name in ("mesh", "l", "A"):
            if not _is_positive_real(getattr(c, name)):
                raise ConfigError(f"{name} must be a finite number > 0")
        if not (c.bandwidth == "auto" or _is_positive_real(c.bandwidth)):
            raise ConfigError("bandwidth must be a positive number or 'auto'")
        if not isinstance(c.oracle_g1, bool):
            raise ConfigError("oracle_g1 must be a boolean")
        # constructing the objects validates coefficient/offset consistency
        try:
            self.kernel_obj()
            self.law_obj()
        except Exception as exc:
            raise ConfigError(f"invalid kernel or jump law: {exc}") from exc

    # -- serialisation ----------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        known = set(ExperimentConfig.__dataclass_fields__)
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        try:
            return ExperimentConfig(**data)
        except ConfigError:
            raise
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        return ExperimentConfig.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    # -- object factories --------------------------------------------------

    def kernel_obj(self) -> SimpleKernel:
        vol = self.kernel.get("volumes")
        return SimpleKernel(
            coeffs=np.asarray(self.kernel["coeffs"], dtype=float),
            offsets=np.asarray(self.kernel["offsets"], dtype=int),
            volumes=None if vol is None else np.asarray(vol, dtype=float),
        )

    def law_obj(self) -> JumpLaw:
        spec = self.jump_law
        kind = spec["kind"]
        if kind == "gaussian":
            return JumpLaw.gaussian(mean=spec.get("mean", 0.0), sd=spec.get("sd", 1.0))
        if kind == "exponential":
            return JumpLaw.exponential(rate=spec.get("rate", 1.0))
        from .grids import Grid1D, GridFunction
        x = np.asarray(spec["x"], dtype=float)
        dens = np.asarray(spec["density"], dtype=float)
        return JumpLaw.tabulated(GridFunction(Grid1D(float(x[0]), float(x[-1]), len(x)), dens))

    def weight_obj(self) -> WeightH:
        return WeightH(beta=float(self.beta), signed=True)

    def seed_spec(self) -> SeedSpec:
        return SeedSpec(master_seed=int(self.master_seed))


# Published benchmark table, per (jump law, method) cell: the mean squared
# L2 error over 20 replications, and the factor band around it that the
# acceptance gate allows.
TABLE1 = {
    ("gaussian", "fourier"): (5.609035e-4, 3.0),
    ("gaussian", "plugin"): (5.291606e-3, 3.0),
    ("gaussian", "onb"): (2.257974e-2, 3.0),
    ("exponential", "plugin"): (0.1240124, 2.0),
    ("exponential", "fourier"): (0.1306668, 2.0),
    ("exponential", "onb"): (0.1446655, 2.0),
}


def section7_config(law: str, method: str, **overrides) -> ExperimentConfig:
    """Benchmark-table configuration for one (law, method) pair.

    The plug-in and Fourier methods use cutoff l = 1 and bandwidths 0.5
    (gaussian jumps) / 1.0 (exponential jumps); the basis method uses its
    own tuned cutoff and bandwidth (4.5/0.7 and 4.0/1.1).
    """
    if law == "gaussian":
        jump = {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
        l, b = (4.5, 0.7) if method == "onb" else (1.0, 0.5)
    elif law == "exponential":
        jump = {"kind": "exponential", "rate": 1.0}
        l, b = (4.0, 1.1) if method == "onb" else (1.0, 1.0)
    else:
        raise ConfigError(f"no benchmark defaults for law {law!r}")
    cfg = ExperimentConfig(jump_law=jump, method=method, l=l, bandwidth=b)
    return cfg.with_overrides(**overrides) if overrides else cfg

"""Per-layer tracing of levyfield from outside the package.

Spans are recorded by wrappers that the benchmark installs over the
layers' public functions for the duration of a traced run and removes
afterwards.  A wrapper replaces every binding of the function in the
``levyfield`` modules (``from .ecf import compute_ecf`` makes a second
binding in ``levyfield.bench``), so calls are caught at the points where
one module imports another.  No file of the package is changed.

A function listed in ``LAYER_SPANS`` that the package no longer has is
skipped and reported as missing; its time then shows up as unattributed
(or as self time of the calling span), never as a crash.

Counts are computed from argument and result sizes after the operation
ends, outside every span, so computing them costs no traced time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

__all__ = [
    "LAYER_SPANS",
    "Span",
    "Tracer",
    "covered",
    "installed",
    "layer_metrics",
    "self_times",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; ``op`` tags every span with the current op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._pending: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self._pending.append((self.op, count, fn, args, kwargs, result))
            return result
        return wrapper

    def take_counts(self) -> dict[int, dict[str, float]]:
        """Evaluate the deferred counts: {op id: {count name: total}}.

        A count whose arguments no longer bind (a changed signature) is
        dropped and named under the key ``"count_errors"``.
        """
        out: dict[int, dict[str, float]] = {}
        for op, count, fn, args, kwargs, result in self._pending:
            acc = out.setdefault(op, {})
            try:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                items = count(bound.arguments, result).items()
            except (TypeError, AttributeError, KeyError, ValueError, OSError) as exc:
                acc.setdefault("count_errors", []).append(f"{fn.__qualname__}: {exc}")
                continue
            for key, val in items:
                acc[key] = acc.get(key, 0) + val
        self._pending.clear()
        return out


# ---------------------------------------------------------------------------
# counts, from argument and result sizes


def _cells(a, r):
    offsets = a["kernel"].offsets
    extent = offsets.max(axis=0) - offsets.min(axis=0)
    return {"simulate.cells": math.prod(int(w) + int(e) for w, e in zip(a["window"], extent))}


def _file_bytes(a, r):
    return {"simulate.csv_bytes": os.path.getsize(a["path"])}


def _ecf(a, r):
    n_u = a["u_grid"].n
    return {"ecf.phase_terms": r.n_obs * n_u, "ecf.u_nodes": n_u}


def _stabilize(a, r):
    recip = r.stabilized_recip
    return {"ecf.stabilize.kept": int((recip != 0).sum()), "ecf.stabilize.nodes": len(recip)}


def _transform_at(a, r):
    return {"grids.transform_terms": a["F"].grid.n * r.size}


def _transform_grid(a, r):
    return {"grids.transform_terms": a["F"].grid.n * a["x_grid"].n}


def _plan(kernel, h, n_trunc):
    return sys.modules["levyfield.invert"].build_series_plan(kernel, h, int(n_trunc))


def _plugin_terms(a, r):
    plan = _plan(a["kernel"], a["h"], a["n_trunc"])
    return {"invert.series_terms": len(list(plan.grouped_terms()))}


def _fourier_terms(a, r):
    weight = sys.modules["levyfield.model"].WeightH(beta=int(a["beta"]), signed=True)
    plan = _plan(a["kernel"], weight, a["n_trunc"])
    return {"invert.series_terms": len(plan.spectral_terms(int(a["beta"])))}


def _convolve(a, r):
    taps = a["g"].grid.n
    return {"smooth.kernel_taps": taps, "smooth.macs": a["f"].grid.n * taps}


# (span name, defining module, attribute, count): one row per public
# function whose time the per-layer metrics report.
LAYER_SPANS = [
    ("config.from_json", "levyfield.config", "ExperimentConfig.from_json", None),
    ("simulate.sample_field", "levyfield.simulate", "sample_field", _cells),
    ("simulate.write_sample_csv", "levyfield.simulate", "write_sample_csv", _file_bytes),
    ("simulate.read_sample_csv", "levyfield.simulate", "read_sample_csv", _file_bytes),
    ("ecf.compute_ecf", "levyfield.ecf", "compute_ecf", _ecf),
    ("ecf.stabilize", "levyfield.ecf", "stabilize", _stabilize),
    ("ecf.g1_hat_at", "levyfield.ecf", "g1_hat_at", None),
    ("grids.inverse_transform_at", "levyfield.grids", "inverse_transform_at", _transform_at),
    ("grids.fourier_inverse_truncated", "levyfield.grids", "fourier_inverse_truncated",
     _transform_grid),
    ("grids.convolve", "levyfield.grids", "convolve", _convolve),
    ("invert.plugin_estimate", "levyfield.invert", "plugin_estimate", _plugin_terms),
    ("invert.fourier_estimate", "levyfield.invert", "fourier_estimate", _fourier_terms),
    ("onb.build_eta", "levyfield.onb", "build_eta", None),
    ("onb.project_g1bar", "levyfield.onb", "project_g1bar", None),
    ("onb.solve_coefficients", "levyfield.onb", "solve_coefficients", None),
    ("onb.onb_estimate", "levyfield.onb", "onb_estimate", None),
    ("smooth.smooth", "levyfield.smooth", "smooth", None),
    ("model.fourier_g1_model", "levyfield.model", "fourier_g1_model", None),
    ("bench.run_pipeline", "levyfield.bench", "run_pipeline", None),
    ("bench.emit_estimate_csv", "levyfield.bench", "emit_estimate_csv", None),
    ("cli.main", "levyfield.cli", "main", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer, table=LAYER_SPANS, package: str = "levyfield"):
    """Wrap the functions of ``table`` while the block runs; yields the
    span names that could not be found.  Every binding is restored on
    exit, also when the block raises."""
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for name, module, attr, count in table:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            wrapper = tracer.wrap(name, original, count)
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, leaf)
                saved.append((owner, leaf, raw))
                setattr(owner, leaf, staticmethod(wrapper) if isinstance(raw, staticmethod)
                        else wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield missing
    finally:
        for owner, key, val in reversed(saved):
            setattr(owner, key, val)


# ---------------------------------------------------------------------------
# aggregation


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])]
        out.append(s.duration - covered(k for k in kids if k[1] > k[0]))
    return out


def layer_metrics(spans: list[Span], layer_names, root: str = "op") -> dict[str, float]:
    """``X.s`` and ``X.self_s`` for every layer span name, plus
    ``trace.unattributed_share``.

    ``X.s`` is the median, over the ops in which X occurs, of the op's
    inclusive time in X (outermost X spans only, so a nested X is not
    counted twice); ``X.self_s`` likewise for self time.  A layer that
    never ran reports 0.  Unattributed time is the part of each root span
    that no layer span covers.
    """
    layer_set = set(layer_names)
    selfs = self_times(spans)
    incl: dict[str, dict[int, float]] = {n: {} for n in layer_names}
    excl: dict[str, dict[int, float]] = {n: {} for n in layer_names}
    op_total = 0.0
    unattributed = 0.0
    layer_intervals: dict[int, list[tuple[float, float]]] = {}
    for i, s in enumerate(spans):
        if s.name in layer_set:
            excl[s.name][s.op] = excl[s.name].get(s.op, 0.0) + selfs[i]
            if not _has_ancestor_named(spans, i, s.name):
                incl[s.name][s.op] = incl[s.name].get(s.op, 0.0) + s.duration
            layer_intervals.setdefault(s.op, []).append((s.start, s.end))
    for s in spans:
        if s.name == root:
            op_total += s.duration
            unattributed += s.duration - covered(layer_intervals.get(s.op, []))
    out: dict[str, float] = {}
    for n in layer_names:
        out[f"{n}.s"] = statistics.median(incl[n].values()) if incl[n] else 0.0
        out[f"{n}.self_s"] = statistics.median(excl[n].values()) if excl[n] else 0.0
    out["trace.unattributed_share"] = unattributed / op_total if op_total > 0 else 0.0
    return out


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False

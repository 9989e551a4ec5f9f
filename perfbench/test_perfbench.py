"""Tests of the benchmark's own machinery: the tail rule, self time, and
installing and removing the tracing wrappers.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


# -- tail rule ---------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 10, 11, 19])
def test_tail_needs_twenty_samples(n):
    assert run.tail([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n, pct", [(20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, pct):
    samples = [float(i) for i in reversed(range(n))]
    got_pct, value = run.tail(samples)
    assert got_pct == pct
    assert sum(s > value for s in samples) == 10


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 7.0, 0, 0),
        Span("c", 2.0, 5.0, 1, 0),  # nested in b: not subtracted from a again
    ]
    assert tracing.self_times(spans) == [4.0, 3.0, 3.0]


def test_self_time_back_to_back_children():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("b", 4.0, 6.0, 0, 0),
        Span("c", 6.0, 9.5, 0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_covered_merges_overlaps():
    assert tracing.covered([(0, 2), (1, 3), (5, 6), (6, 7)]) == 5
    assert tracing.covered([]) == 0.0


def test_layer_metrics_medians_and_unattributed_share():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("x", 1.0, 9.0, 0, 0),
        Span("x", 2.0, 3.0, 1, 0),  # recursive x: counted once in x.s
        Span("op", 20.0, 24.0, None, 1),
        Span("x", 20.0, 22.0, 3, 1),
    ]
    m = tracing.layer_metrics(spans, ["x", "y"])
    assert m["x.s"] == pytest.approx((8.0 + 2.0) / 2)
    assert m["x.self_s"] == pytest.approx((7.0 + 1.0 + 2.0) / 2)
    assert m["y.s"] == 0.0 and m["y.self_s"] == 0.0
    assert m["trace.unattributed_share"] == pytest.approx((2.0 + 2.0) / 14.0)


# -- wrappers ----------------------------------------------------------------


@pytest.fixture
def fake_package():
    """fakepkg.a defines f and a class with a static method; fakepkg.b
    imports f, as ``from .a import f`` would."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x, scale=2):
        return x * scale

    class C:
        @staticmethod
        def load(path):
            return a.f(path)

    a.f, a.C = f, C
    b.f = f
    b.call = lambda x: b.f(x)
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b, f, C
    for name in mods:
        sys.modules.pop(name, None)


def _table():
    return [
        ("a.f", "fakepkg.a", "f", lambda args, result: {"calls": 1, "x": args["x"]}),
        ("a.C.load", "fakepkg.a", "C.load", None),
        ("a.gone", "fakepkg.a", "renamed_away", None),
    ]


def test_wrappers_trace_every_binding_and_are_removed(fake_package):
    a, b, f, C = fake_package
    load = C.__dict__["load"]
    tracer = Tracer()
    tracer.op = 7
    with tracing.installed(tracer, _table(), package="fakepkg") as missing:
        assert a.f is not f and b.f is a.f
        assert b.call(3) == 6
        assert C.load(5) == 10
    assert missing == ["a.gone"]
    assert a.f is f and b.f is f and C.__dict__["load"] is load
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("a.f", None, 7), ("a.C.load", None, 7), ("a.f", 1, 7)]
    assert tracer.take_counts() == {7: {"calls": 2, "x": 8}}
    b.call(1)
    assert len(tracer.spans) == 3


def test_wrappers_are_removed_when_the_block_raises(fake_package):
    a, b, f, C = fake_package
    with pytest.raises(RuntimeError):
        with tracing.installed(Tracer(), _table(), package="fakepkg"):
            raise RuntimeError("boom")
    assert a.f is f and b.f is f


def test_count_with_changed_signature_is_reported_not_raised(fake_package):
    a, b, f, C = fake_package
    table = [("a.f", "fakepkg.a", "f", lambda args, result: {"n": args["no_such_arg"]})]
    tracer = Tracer()
    with tracing.installed(tracer, table, package="fakepkg"):
        b.call(2)
    counts = tracer.take_counts()
    assert "count_errors" in counts[-1]


def test_levyfield_bindings_restored_and_results_bit_identical():
    from levyfield import bench
    from levyfield.config import ExperimentConfig, section7_config

    def bindings():
        return {(name, key): val for name, mod in list(sys.modules.items())
                if name == "levyfield" or name.startswith("levyfield.")
                for key, val in vars(mod).items()}

    before = bindings()
    from_json = ExperimentConfig.__dict__["from_json"]
    cfg = section7_config("gaussian", "onb", window=[30, 30])
    plain = bench.run_pipeline(cfg, 0)
    tracer = Tracer()
    with tracing.installed(tracer) as missing:
        traced = bench.run_pipeline(cfg, 0)
    assert missing == []
    after = bindings()
    assert all(after[k] is v for k, v in before.items())
    assert ExperimentConfig.__dict__["from_json"] is from_json
    assert traced.mse == plain.mse
    assert traced.estimate.values.tobytes() == plain.estimate.values.tobytes()
    names = {s.name for s in tracer.spans}
    assert {"bench.run_pipeline", "ecf.compute_ecf", "onb.project_g1bar",
            "smooth.smooth", "grids.convolve"} <= names

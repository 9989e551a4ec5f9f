"""Property tests of the CLI's exit codes.

Generated configs and sample CSVs, well formed or not, end in 0, 2, 3 or
4, never in a traceback (exit 1), under ``simulate``, ``bench``,
``estimate`` and ``validate --suite appendix-rates``.  Every exit 0 of
``bench`` or ``estimate`` prints a finite MSE.  Each structural config
fault ends in exactly 2, before anything is simulated.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from levyfield import bench, cli
from levyfield.config import ExperimentConfig, section7_config

BASE = section7_config("gaussian", "fourier", window=[6, 6], reps=1, grid_points=64).to_dict()
LAWS = [{"kind": "gaussian", "mean": 0.0, "sd": 1.0}, {"kind": "exponential", "rate": 1.0},
        {"kind": "tabulated", "x": [-4, -2, 0, 2, 4], "density": [0.1, 0.3, 0.4, 0.3, 0.1]}]
# every field, and the numbers inside the kernel and the jump law
PATHS = [(key,) for key in sorted(BASE)] + [
    ("kernel", "coeffs"), ("kernel", "offsets"), ("jump_law", "mean"), ("jump_law", "sd"),
    ("jump_law", "rate"), ("jump_law", "x"), ("jump_law", "density")]

specials = st.sampled_from([0, 0.5, -1, 1e-300, 1e300, float("inf"), float("nan"), 10 ** 400,
                            "", "1", None, True])
scalars = specials | st.integers(-3, 12) | st.floats(-1e3, 1e3) | st.text(max_size=4)
json_values = (specials | scalars | st.lists(scalars, max_size=4)
               | st.lists(st.lists(scalars, max_size=3), max_size=4)
               | st.dictionaries(st.text(max_size=3), scalars, max_size=2))


def exit_code(command: str, doc, sample: str = "", reps: int = 1) -> int:
    """The exit code of ``command`` on the config ``doc`` (with ``sample`` for
    estimate, ``reps`` for validate); an exit 0 of bench or estimate must print a finite MSE."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, csv_out, csv_in = (str(Path(tmp) / name) for name in ("c.json", "o.csv", "s.csv"))
        Path(cfg).write_text(json.dumps(doc))
        Path(csv_in).write_text(sample)
        args = {"validate": ["--suite", "appendix-rates", "--reps", str(reps)],
                "estimate": ["--sample", csv_in, "--out", csv_out]}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", cfg, *args.get(command, ["--out", csv_out])])
    if code == 0 and command in ("bench", "estimate"):
        assert math.isfinite(float(re.search(r"(mean MSE |mse=)(\S+)", out.getvalue())[2]))
    return code


def with_value(key, value, doc=BASE):
    doc = json.loads(json.dumps(doc))
    *outer, key = key if isinstance(key, tuple) else (key,)
    (doc[outer[0]] if outer else doc)[key] = value
    return doc


def box_rows(shape):
    return [[i, j] for i in range(shape[0]) for j in range(shape[1])]


def csv_text(header, rows):
    return "".join(line + "\n" for line in [header] + [",".join(map(str, r)) for r in rows])


@st.composite
def small_sample(draw):
    """A well-formed sample CSV of a box of at most 5x5 lattice points."""
    rows = box_rows((draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    return csv_text("j1,j2,value", [r + [draw(st.floats(-5, 5))] for r in rows])


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["bench", "simulate", "estimate", "validate"]),
       path=st.sampled_from(PATHS), value=json_values, law=st.sampled_from(LAWS),
       method=st.sampled_from(["plugin", "fourier", "onb"]), sample=small_sample(),
       reps=st.integers(1, 3))
def test_any_field_value_maps_to_an_exit_code(command, path, value, law, method, sample, reps):
    doc = with_value(path, value, {**BASE, "jump_law": law, "method": method})
    assert exit_code(command, doc, sample, reps) in (0, 2, 3, 4)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["bench", "estimate"]),
       path=st.sampled_from(["l", "A", "bandwidth", ("jump_law", "mean"), ("jump_law", "sd")]),
       value=st.floats(-308, 308).filter(lambda e: abs(e) >= 3).map(lambda e: 10.0 ** e),
       method=st.sampled_from(["plugin", "fourier", "onb"]), sample=small_sample())
def test_extreme_number_maps_to_an_exit_code(command, path, value, method, sample):
    # 10^±3 .. 10^±308, where grids and sums may stop resolving anything
    doc = with_value(path, value, {**BASE, "method": method})
    assert exit_code(command, doc, sample) in (0, 2, 3, 4)


def tabulated(x):
    return {"kind": "tabulated", "x": x, "density": [0.5] * len(x)}


def bad_x():
    """Tabulated nodes that are not increasing and uniformly spaced."""
    def moved(n, i, delta):
        x = list(range(n))
        x[i] += delta
        return x

    shifted = st.integers(3, 7).flatmap(lambda n: st.builds(
        moved, st.just(n), st.integers(1, n - 2),
        st.floats(0.05, 0.45) | st.floats(-0.45, -0.05)))
    shuffled = st.permutations(list(range(5))).filter(lambda p: p != sorted(p))
    return (shifted | shuffled | st.just([4, 3, 2, 1, 0])).map(tabulated)


structural_faults = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(lambda w: len(w) != 2)
    .map(lambda w: with_value("window", w)),
    st.floats(0.01, 50).filter(lambda v: not v.is_integer()).map(lambda v: with_value("mesh", v)),
    bad_x().map(lambda law: with_value("jump_law", law)),
    st.builds(with_value, st.sampled_from(["d", "beta", "haar_levels"]), json_values),
    json_values.map(lambda v: with_value("kernel", {**BASE["kernel"], "volumes": v})),
)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["bench", "simulate"]), doc=structural_faults)
def test_structural_fault_exits_2_at_load(command, doc):
    saved = bench.sample_field, cli.sample_field
    bench.sample_field = cli.sample_field = None  # a call would fail with exit 1
    try:
        assert exit_code(command, doc) == 2
    finally:
        bench.sample_field, cli.sample_field = saved


values = st.floats(-5, 5) | st.sampled_from(["nan", "inf", "x", "", "1e308", "-0"])
ragged_rows = st.lists(st.lists(st.integers(-1, 3), max_size=3).flatmap(
    lambda coords: values.map(lambda v: coords + [v])), max_size=10)


@st.composite
def mutated_box(draw):
    """A full box sample with one row dropped, repeated, made negative,
    given an extra field, or none of these."""
    rows = [r + [draw(st.floats(-5, 5))]
            for r in box_rows((draw(st.integers(1, 4)), draw(st.integers(1, 4))))]
    k = draw(st.integers(0, len(rows) - 1))
    op = draw(st.sampled_from(["keep", "drop", "repeat", "negative", "extra"]))
    if op == "drop":
        del rows[k]
    elif op == "repeat":
        rows.append(rows[k])
    elif op == "negative":
        rows[k] = [-1] + rows[k][1:]
    elif op == "extra":
        rows[k] = rows[k] + [0.0]
    return rows


@settings(max_examples=60, deadline=None)
@given(header=st.sampled_from(["j1,j2,value", "j1,value", "value", "j1,j2,val", ""]),
       rows=ragged_rows | mutated_box(), method=st.sampled_from(["plugin", "fourier", "onb"]))
def test_any_sample_csv_maps_to_an_exit_code(header, rows, method):
    assert exit_code("estimate", with_value("method", method), csv_text(header, rows)) in (0, 2, 3, 4)


def test_base_config_is_valid():
    assert ExperimentConfig.from_dict(BASE).window == [6, 6]

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pebilliards import cli, errors
from pebilliards.cli import load_config, main
from pebilliards.errors import ConfigError, NoConvergence
from test_lorentz_oval import null_polygons, radial_tables


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def simulate_doc(**overrides):
    doc = {
        "signature": [2, 1],
        "axes": [3.0, 2.0, 1.0],
        "initial": {"sample_null": True},
        "bounces": 50,
        "seed": 7,
        "record_tangency": False,
    }
    doc.update(overrides)
    return doc


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_exhausted_null_sampling_is_config_error(tmp_path, capsys, monkeypatch):
    from pebilliards import billiard

    monkeypatch.setattr(billiard, "NULL_RAY_TRIES", 0)
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_config(tmp_path, simulate_doc()), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: NotInward: rejection sampling exhausted")
    assert not out.exists()


def test_simulate_writes_orbit_and_summary(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, simulate_doc(bounces=100, record_tangency=True))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    assert len(lines) == 102  # header + 101 states
    header = lines[0].split(",")
    assert header[:1] == ["index"]
    assert "H" in header and "F1" in header and "lam1" in header
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is None
    assert summary["drift"]["h_drift"] < 1e-9
    assert summary["bounces_completed"] == 100


def test_simulate_deterministic_for_fixed_seed(tmp_path):
    path = write_config(tmp_path, simulate_doc(bounces=200))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "orbit.csv").read_bytes() == (out2 / "orbit.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_thousand_bounce_run(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, simulate_doc(bounces=1000))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    assert len(lines) == 1002  # header + 1001 states
    summary = json.loads((out / "summary.json").read_text())
    assert summary["drift"]["h_drift"] < 1e-9
    assert max(summary["drift"]["f_drift"]) < 1e-9


def test_simulate_seed_flag_overrides(tmp_path):
    # The config seed picks the sampled start (there is no --seed flag).
    out1, out2 = tmp_path / "a", tmp_path / "b"
    path1 = write_config(tmp_path, simulate_doc(bounces=50, seed=8), "seed8.json")
    path2 = write_config(tmp_path, simulate_doc(bounces=50))
    assert main(["simulate", "--config", path1, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path2, "--out", str(out2)]) == 0
    assert json.loads((out1 / "summary.json").read_text())["seed"] == 8
    assert (out1 / "orbit.csv").read_bytes() != (out2 / "orbit.csv").read_bytes()


def test_commute_pass_and_tolerance_failure(tmp_path):
    doc = {"signature": [2, 1], "axes": [3.0, 2.0, 1.0], "samples": 500, "seed": 3}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["commute", "--config", path, "--out", str(out)]) == 0
    reports = json.loads((out / "brackets.json").read_text())
    assert isinstance(reports, list) and len(reports) == 3
    assert all(r["max_normalized"] <= 1e-10 for r in reports)
    # negative control: breaking the metric adapter must trip the tolerance
    assert main(["commute", "--config", path, "--out", str(out), "--debug-flip-metric"]) == 3


def test_simulate_degeneracy_quarantine(tmp_path, capsys):
    # This start runs straight into a boundary point whose normal is
    # light-like: the orbit aborts at bounce 1 and the run is quarantined,
    # exit 2 with its files.  The reflection there divides by the tiny <n,n>;
    # however many bounces are asked, no numpy warning comes before the abort.
    for bounces, record_tangency in ((10, False), (10_000, True)):
        doc = {"signature": [1, 1], "axes": [2.0**0.5, 2.0**0.5], "initial": {"x": [1.0, 1.0], "v": [-1.0, 0.0]},
               "bounces": bounces, "record_tangency": record_tangency}
        out = tmp_path / f"out{bounces}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted"].startswith("NullNormal: ") and summary["abort_bounce"] == 1


def test_oval_iterate_circle_antipodes(tmp_path):
    doc = {
        "oval": {
            "table": {"kind": "ellipse", "semi_axes": [1.0, 1.0]},
            "start": float(np.arctan2(0.8, 0.6)),
            "steps": 10,
        }
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["oval", "iterate", "--config", path, "--out", str(out)]) == 0
    rows = (out / "oval_orbit.csv").read_text().splitlines()[1:]
    pts = np.array([[float(c) for c in row.split(",")[2:]] for row in rows])
    assert np.allclose(pts[0], [0.6, 0.8], atol=1e-12)
    for k in range(10):
        assert np.allclose(pts[k + 1], -pts[k], atol=1e-10)


def test_oval_periodic_ellipse(tmp_path):
    doc = {
        "oval": {
            "table": {"kind": "ellipse", "semi_axes": [2.0, 1.0]},
            "half_period": 2,
            "seed_param": 0.9,
        }
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["oval", "periodic", "--config", path, "--out", str(out)]) == 0
    poly = json.loads((out / "polygon.json").read_text())
    assert poly["acceleration_factor"] == pytest.approx(1.0, abs=1e-10)
    assert poly["return_derivative_abs"] == pytest.approx(1.0, abs=1e-6)


def test_main_after_rejected_command_line(tmp_path, capsys):
    # The argument parser is built once per process, so a rejected command
    # line must leave the next call's parsing and output unchanged.
    doc = {
        "oval": {
            "table": {"kind": "ellipse", "semi_axes": [2.0, 1.0]},
            "half_period": 2,
            "seed_param": 0.9,
        }
    }
    path = write_config(tmp_path, doc)
    assert main(["oval", "spin", "--config", path]) == 1
    assert "config error: " in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["oval", "periodic", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    poly = json.loads((out / "polygon.json").read_text())
    assert set(poly) == {
        "points",
        "slopes",
        "acceleration_factor",
        "acceleration_factor_abs",
        "simulated_factor",
        "return_derivative_abs",
    }
    assert poly["return_derivative_abs"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["oval", "spin", "--config", "c.json"],
        ["simulate"],
        ["simulate", "--config", "c.json", "--seed", "8"],
        [],
        ["simulate", "--config", "c.json", "--tol-drift", "1e-9"],
        ["commute", "--config", "c.json", "--tol-bracket", "10"],
        ["simulate", "--config", "c.json", "--tol-boundary", "1e-10"],
    ],
)
def test_command_line_syntax_error_exits_1(capsys, argv):
    # Usage errors are config errors (exit 1), not runtime degeneracies (exit 2).
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pebilliards") and "config error: pebilliards" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_oval_synth_v4_and_determinism(tmp_path):
    polygon = {
        "points": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
        "slopes": [-1.0, 2.0, -1.0, 2.0],
    }
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(polygon), encoding="utf-8")
    doc = {"oval": {"polygon_file": "poly.json", "periods": 5}}
    path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["oval", "synth", "--config", path, "--out", str(out1)]) == 0
    assert main(["oval", "synth", "--config", path, "--out", str(out2)]) == 0
    report = json.loads((out1 / "synth_report.json").read_text())
    assert report["formula_factor"] == pytest.approx(4.0, abs=1e-8)
    assert report["simulated_factor"] == pytest.approx(4.0, abs=1e-8)
    assert report["speed_after_periods"] == pytest.approx(1024.0, rel=1e-6)
    for name in ("table.json", "synth_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # The README's periodic example finds the orbit again on the written table.
    table = json.loads((out1 / "table.json").read_text())
    path = write_config(tmp_path, {"oval": {"table": table, "half_period": 2, "seed_param": 5.45}})
    assert main(["oval", "periodic", "--config", path, "--out", str(tmp_path / "p")]) == 0
    poly = json.loads((tmp_path / "p" / "polygon.json").read_text())
    assert poly["acceleration_factor"] == pytest.approx(4.0, abs=1e-12)
    assert poly["return_derivative_abs"] == pytest.approx(0.25, abs=1e-12)


def test_family_plot(tmp_path):
    doc = {
        "signature": [1, 1],
        "axes": [2.0, 1.0],
        "family": {"lambdas": [-6.0, -4.0, -2.0, 0.0, 0.5, 2.0, 6.0], "points": 64},
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["family-plot", "--config", path, "--out", str(out)]) == 0
    rows = (out / "family.csv").read_text().splitlines()
    # pole member lambda = -4 is skipped with a warning row
    pole_rows = [r for r in rows if "pole-skipped" in r]
    assert len(pole_rows) == 1 and pole_rows[0].startswith("1,")
    # lambda = 0 polyline lies on the ellipse
    zero_rows = [r.split(",") for r in rows if r.startswith("3,")]
    pts = np.array([[float(r[4]), float(r[5])] for r in zero_rows])
    defect = np.abs(pts[:, 0] ** 2 / 4.0 + pts[:, 1] ** 2 - 1.0)
    assert float(np.max(defect)) <= 1e-10
    # deterministic: second run produces identical bytes
    out2 = tmp_path / "out2"
    assert main(["family-plot", "--config", path, "--out", str(out2)]) == 0
    assert sha256(out / "family.csv") == sha256(out2 / "family.csv")
    # A Euclidean member with both coefficients negative is empty.
    path = write_config(tmp_path, {"signature": [2, 0], "axes": [2.0, 1.0], "family": {"lambdas": [-10.0]}})
    assert main(["family-plot", "--config", path, "--out", str(out)]) == 0
    assert (out / "family.csv").read_text() == "member,lambda,status,branch,x,y\n0,-10.0,empty,,,\n"


def test_family_plot_count_default_spread(tmp_path):
    doc = {"signature": [1, 1], "axes": [2.0, 1.0], "family": {"count": 5, "points": 16}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["family-plot", "--config", path, "--out", str(out)]) == 0
    rows = (out / "family.csv").read_text().splitlines()[1:]
    members = {row.split(",")[0] for row in rows}
    assert members == {"0", "1", "2", "3", "4"}


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    for text, message in (("[1, 2, 3]", "must hold a JSON object"), ("{'x': 1}", "is not valid JSON")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))


NAN, INF = float("nan"), float("inf")
SQUARE = {"points": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]], "slopes": [-1.0, 2.0, -1.0, 2.0]}
ELLIPSE = {"kind": "ellipse", "semi_axes": [2.0, 1.0]}
COMMUTE = {"signature": [2, 1], "axes": [3.0, 2.0, 1.0], "samples": 10, "seed": 3}


def iterate_doc(table):
    return {"oval": {"table": table, "start": 0.3, "steps": 2}}


def synth_doc(**polygon):
    return {"oval": {"polygon": dict(SQUARE, **polygon)}}


BAD_CONFIGS = {
    "commute-seed": (["commute"], dict(COMMUTE, seed="abc"), "config.seed"),
    "ellipse-semi-axes": (["oval", "iterate"], iterate_doc(dict(ELLIPSE, semi_axes=["two", 1.0])),
                          "semi_axes"),
    "bump-halfwidth": (["oval", "iterate"],
                       iterate_doc({"kind": "radial", "base": ELLIPSE, "bumps": [[0.0, 0.01, 0.0, 3.5]]}),
                       "halfwidth"),
    "seed-negative": (["simulate"], simulate_doc(seed=-3), "config.seed"),
    "simulate-tolerances-key": (["simulate"], simulate_doc(tolerances={"drift": 1e-9}),
                                "unknown keys in config: ['tolerances']"),
    "commute-tolerances-key": (["commute"], dict(COMMUTE, tolerances={"bracket": 1e-10}),
                               "unknown keys in config: ['tolerances']"),
    "sample-null-string": (["simulate"], simulate_doc(initial={"sample_null": "yes"}),
                           "config.initial.sample_null"),
    "initial-x-string": (["simulate"], simulate_doc(initial={"x": ["a", 1, 2], "v": [0, 0, -1]}),
                         "config.initial.x"),
    "initial-x-nan": (["simulate"], simulate_doc(initial={"x": [NAN, 0, 0], "v": [0, 0, -1]}),
                      "config.initial.x"),
    "out-number": (["simulate"], simulate_doc(out=123), "config.out"),
    # run_orbit refuses these starts before the first bounce.
    "outward-v": (["simulate"], simulate_doc(initial={"x": [0.0, 0.0, 1.0], "v": [0.6, 0.5, 0.3]}),
                  "config error: NotInward: "),
    "zero-v": (["simulate"], simulate_doc(initial={"x": [0.0, 0.0, 1.0], "v": [0.0, 0.0, 0.0]}),
               "config error: ZeroDirection: "),
    "off-boundary": (["simulate"], simulate_doc(initial={"x": [0.0, 0.0, 0.5], "v": [0.0, 0.0, -1.0]}),
                     "config error: OffBoundary: "),
    "resonant-axes": (["simulate"], simulate_doc(signature=[3, 0], axes=[1.0, 1.0, 2.0],
                                                 initial={"x": [0.0, 0.0, 2.0], "v": [0.0, 0.1, -1.0]}),
                      "config error: ResonantAxes: "),
    "slopes-number": (["oval", "synth"], synth_doc(slopes=5), "config.oval.polygon.slopes"),
    "slopes-null": (["oval", "synth"], synth_doc(slopes=[None]), "config.oval.polygon.slopes"),
    "polygon-file-number": (["oval", "synth"], {"oval": {"polygon_file": 5}}, "config.oval.polygon_file"),
    "synth-no-polygon": (["oval", "synth"], {"oval": {}}, "polygon_file"),
    "synth-both-polygons": (["oval", "synth"], {"oval": {"polygon": SQUARE, "polygon_file": "p.json"}},
                            "polygon_file"),
    "oval-seed": (["oval", "iterate"], dict(iterate_doc(ELLIPSE), seed=1), "seed"),
    "ellipse-bumps": (["oval", "iterate"], iterate_doc(dict(ELLIPSE, bumps=[])), "bumps"),
    "commute-dimension-7": (["commute"], dict(COMMUTE, signature=[7, 0], axes=[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0]),
                            "config.axes"),
    "commute-zero-samples": (["commute"], dict(COMMUTE, samples=0), "config.samples"),
    # 873 TiB of rows: the allocation fails before any page is touched.
    "bounces-beyond-memory": (["simulate"], simulate_doc(bounces=10**13), "config.bounces"),
    "axes-zero": (["simulate"], simulate_doc(signature=[1, 1], axes=[0.0, 1.0]),
                  "config.axes[0] must be a positive finite number"),
    "signature-dimension-1": (["commute"], dict(COMMUTE, signature=[0, 1], axes=[1.0]), "need p + q >= 2"),
    "axes-dimension-2": (["commute"], dict(COMMUTE, axes=[2.0, 1.0]),
                         "axes dimension 2 does not match signature dimension 3"),
    "family-plot-dimension-3": (["family-plot"], {"signature": [2, 1], "axes": [3.0, 2.0, 1.0], "family": {"count": 3}},
                                "need dimension 2"),
    "sample-null-and-x": (["simulate"], simulate_doc(initial={"sample_null": True, "x": [0.0, 0.0, 1.0]}),
                          "give either sample_null or explicit x, v, not both"),
    "sample-null-euclidean": (["simulate"], simulate_doc(signature=[2, 0], axes=[2.0, 1.0]),
                              "sampled null starts need p >= 1 and q >= 1"),
    "plane-x-length-1": (["simulate"], simulate_doc(signature=[1, 1], axes=[2.0, 1.0],
                                                    initial={"x": [0.0], "v": [1.0, -1.0]}),
                         "x and v must have length 2"),
    "radial-base-radial": (["oval", "iterate"],
                           iterate_doc({"kind": "radial", "base": {"kind": "radial", "base": ELLIPSE}}),
                           "base must be an ellipse table"),
    "polygon-three-vertices": (["oval", "synth"], synth_doc(points=SQUARE["points"][:3], slopes=[2.0] * 3),
                               "needs an even number >= 4"),
    "polygon-first-chord": (["oval", "synth"], synth_doc(points=[[1, 1], [-1, 0.5], [-1, -1], [1, -1]]),
                            "chord 1 is not horizontal"),
    "polygon-first-chord-2^-30": (["oval", "synth"],
                                  synth_doc(points=(2**-30 * np.array([[1, 1], [-1, 0.5], [-1, -1], [1, -1]])).tolist()),
                                  "chord 1 is not horizontal"),
    "commute-resonant-axes": (["commute"], dict(COMMUTE, signature=[2, 0], axes=[1.0, 1.0]),
                              "config error: ResonantAxes: "),
    "synth-infeasible-slopes": (["oval", "synth"], synth_doc(slopes=[1.0] * 4), "config error: InfeasibleSlopes: "),
    # Magnitudes whose squares, determinants or sums leave the float range.
    "axes-1e200-commute": (["commute"], dict(COMMUTE, axes=[1e200, 2.0, 1.0]), "non-zero squares"),
    "axes-1e-200-sample-null": (["simulate"], simulate_doc(axes=[1e-200, 2.0, 1.0]), "non-zero squares"),
    "semi-axes-1e-200": (["oval", "iterate"], iterate_doc(dict(ELLIPSE, semi_axes=[1e-200, 1])), "table: semi-axes"),
    "semi-axes-1e200": (["oval", "iterate"], iterate_doc(dict(ELLIPSE, semi_axes=[1e200, 1])), "table: semi-axes"),
    "form-1e300": (["oval", "periodic"], {"oval": {"table": {"kind": "ellipse_form", "form": [[1e300, 0], [0, 1e300]]},
                                                   "half_period": 2, "seed_param": 0.9}}, "finite determinant"),
    "polygon-1e200": (["oval", "synth"], synth_doc(points=(1e200 * np.array(SQUARE["points"])).tolist()),
                      "no base ellipse"),
    "lambda-1.7e308": (["family-plot"], {"signature": [1, 1], "axes": [1e154, 1.0], "family": {"lambdas": [1.7e308]}},
                       "config.family: lambda 1.7e+308: coefficients must be non-zero and finite"),
    "span-1e308": (["family-plot"], {"signature": [1, 1], "axes": [2.0, 1.0], "family": {"count": 3, "span": 1e308}},
                   "config.family.span"),
}


@pytest.mark.parametrize("command,doc,where", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, doc, where):
    path = write_config(tmp_path, doc)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's warning would end in a traceback
        assert main(command + ["--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and where in err
    assert not out.exists()


def synth_factors(tmp_path, scale):
    """The exit code and the formula and simulated factors of oval synth on the README square times `scale`."""
    doc = synth_doc(points=[[scale * c for c in p] for p in SQUARE["points"]])
    out = tmp_path / "out"
    rc = main(["oval", "synth", "--config", write_config(tmp_path, doc), "--out", str(out)])
    if rc != 0:
        return rc, None, None
    report = json.loads((out / "synth_report.json").read_text())
    shutil.rmtree(out)
    return rc, report["formula_factor"], report["simulated_factor"]


@pytest.mark.parametrize("scale", [1e-9, 1e-50])
def test_oval_synth_builds_a_table_through_a_small_square(tmp_path, scale):
    # The side test's margin scales with the polygon: these squares' vertex
    # offsets are far below 1, the margin's former floor.
    rc, formula, simulated = synth_factors(tmp_path, scale)
    assert rc == 0 and formula == pytest.approx(4.0) and simulated == pytest.approx(4.0)


def test_oval_synth_factors_do_not_change_when_the_square_is_scaled_by_a_power_of_two(tmp_path):
    # Scaling by 2^k scales every coordinate exactly, and synthesis decides
    # nothing on an absolute scale, so every k gives the unscaled factors.
    want = synth_factors(tmp_path, 1.0)
    assert want == (0, 4.0000000000000036, 4.0000000000000036)
    assert {k: synth_factors(tmp_path, 2.0**k) for k in range(-100, 101)} == dict.fromkeys(range(-100, 101), want)


def test_runtime_error_in_oval_synth_exits_2(tmp_path, capsys, monkeypatch):
    from pebilliards import lorentz_oval

    def no_convergence(*args, **kwargs):
        raise NoConvergence("chord step budget exhausted")

    monkeypatch.setattr(lorentz_oval, "simulate_periods", no_convergence)
    path = write_config(tmp_path, {"oval": {"polygon": SQUARE}})
    assert main(["oval", "synth", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: NoConvergence:")


# ------------------------------------------------- configs drawn from the specs
#
# configs(command) walks cli.SPECS[command], draws for each checker a value it
# accepts, and keeps or leaves out each key that has a default.  Where validity
# is geometric, which a spec cannot say, OVERRIDES draw the value: a signature
# of dimension 2 to 4 with as many axes, boundary starts, oval tables and null
# polygons.  Magnitudes are those of the billiard and oval properties.

LEAVES = {cli._finite: st.floats(-10.0, 10.0), cli._positive: st.floats(0.25, 4.0), cli._boolean: st.booleans(),
          cli._string: st.just("polygon.json")}  # the file the property writes for polygon_file
SIGNATURES = [[p, dim - p] for dim in (2, 3, 4) for p in range(dim + 1)]
POLYGONS = null_polygons().map(lambda polygon: {"points": [list(p) for p in polygon[0]], "slopes": polygon[1]})


def _start(draw, checker, doc):
    """A sampled light-like start, or a boundary point with a random, near-grazing or outward direction."""
    if draw(st.booleans()):
        return {"sample_null": True}
    axes = np.array(doc["axes"])
    unit = st.lists(st.floats(-1.0, 1.0), min_size=len(axes), max_size=len(axes))
    s = np.array(draw(unit.filter(lambda c: np.linalg.norm(c) > 1e-3)))
    x = axes * s / np.linalg.norm(s)
    nu, v = x / axes**2, np.array(draw(unit))
    kind = draw(st.sampled_from(["random", "near-grazing", "outward"]))
    if kind == "near-grazing":
        v = v - (v @ nu) / (nu @ nu) * nu - draw(st.floats(0.0, 1e-9)) * nu
    elif kind == "outward" and v @ nu < 0.0:
        v = -v
    return {"x": x.tolist(), "v": v.tolist(), **({"sample_null": False} if draw(st.booleans()) else {})}


def _table(draw, checker, doc):
    """An ellipse, or the base or the whole of a table of radial_tables."""
    base, bumps = draw(radial_tables())
    kind = draw(st.sampled_from(sorted(cli._TABLE_KINDS)))
    table = {"kind": "ellipse_form", "form": base.form.tolist(), "center": base.center.tolist()}
    if kind == "ellipse":
        table = {"kind": kind, "semi_axes": draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2)),
                 "center": table["center"]}
    elif kind == "radial":
        table = {"kind": kind, "base": _some(draw, cli._TABLE_KINDS["ellipse_form"], table),
                 "bumps": [[b.anchor, b.value, b.tilt, b.halfwidth] for b in bumps]}
    return _some(draw, cli._TABLE_KINDS[kind], table)


def _some(draw, checker, doc):
    """doc with each key that checker's spec gives a default kept or left out."""
    return {key: val for key, val in doc.items() if checker.spec[key][1] is cli.REQUIRED or draw(st.booleans())}


OVERRIDES = {
    cli._GEOMETRY["signature"][0]: lambda draw, checker, doc: list(draw(st.sampled_from(SIGNATURES))),
    cli._GEOMETRY["axes"][0]: lambda draw, axes, doc: [_draw(draw, axes.item) for _ in range(sum(doc["signature"]))],
    cli.SPECS["simulate"]["initial"][0]: _start,
    cli._table: _table,
    cli._polygon: lambda draw, checker, doc: draw(POLYGONS),
}


def _draw(draw, checker, doc=None):
    """A JSON value that checker accepts; doc is the object drawn so far around it."""
    if checker in OVERRIDES:
        return OVERRIDES[checker](draw, checker, doc)
    if isinstance(checker, cli._object):
        out = {}
        for key, (item, default) in checker.spec.items():
            if default is cli.REQUIRED or draw(st.booleans()):
                out[key] = _draw(draw, item, out)
        return out
    if isinstance(checker, cli._list):
        return [_draw(draw, checker.item, doc) for _ in range(checker.length or draw(st.integers(0, 4)))]
    if isinstance(checker, cli._int):
        return draw(st.integers(checker.minimum, checker.minimum + 9))
    return draw(LEAVES[checker])


def configs(command):
    """Configs of the command that its spec accepts."""
    return st.composite(_draw)(cli._object(cli.SPECS[command]))


def _keys(checker, doc):
    """(node, key, default) for each key and list entry in doc: its spec's default, REQUIRED for an entry."""
    if checker is cli._table:
        checker = cli._TABLE_KINDS[doc["kind"]]
    elif checker is cli._polygon:
        checker = cli._POLYGON
    if isinstance(checker, (cli._object, cli._list)):
        for key, val in doc.items() if isinstance(doc, dict) else enumerate(doc):
            item, default = checker.spec[key] if isinstance(doc, dict) else (checker.item, cli.REQUIRED)
            yield doc, key, default
            yield from _keys(item, val)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_mutation_of_a_valid_config_is_a_config_error(data):
    # Any single mutation of a config the specs accept, other than leaving
    # out a key that has a default, is refused before anything is computed.
    command = data.draw(st.sampled_from(sorted(cli.SPECS)))
    doc = data.draw(configs(command))
    keys = list(_keys(cli._object(cli.SPECS[command]), doc))
    kind = data.draw(st.sampled_from(["wrong type", "bool", "nan", "inf", "null", "missing", "unknown"]))
    if kind == "missing":
        node, key = data.draw(st.sampled_from([(n, k) for n, k, d in keys if isinstance(k, str) and d is cli.REQUIRED]))
        del node[key]
    elif kind == "unknown":
        data.draw(st.sampled_from([doc] + [n[k] for n, k, _ in keys if isinstance(n[k], dict)]))["unknown_key"] = 1
    else:
        # true is a valid value only where the config holds a boolean
        leaves = [(n, k) for n, k, _ in keys if kind != "bool" or not isinstance(n[k], bool)]
        node, key = data.draw(st.sampled_from(leaves))
        wrong = 5 if isinstance(node[key], str) else "x"
        node[key] = {"wrong type": wrong, "bool": True, "nan": NAN, "inf": INF, "null": None}[kind]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(command.split() + ["--config", write_config(Path(tmp), doc), "--out", str(out)])
        assert rc == 1, (kind, doc)
        assert err.getvalue().startswith("config error:")
        assert not out.exists()


def _names_an_error(line):
    """Whether a line of stderr, a summary's `aborted` or iterate's aborted row names a PEBilliardsError."""
    match = re.fullmatch(r"(?:error: |# aborted: )?(\w+): .*", line)
    cls = getattr(errors, match.group(1), None) if match else None
    return isinstance(cls, type) and issubclass(cls, errors.PEBilliardsError)


@pytest.mark.parametrize("command", sorted(cli.SPECS), ids=lambda command: command.replace(" ", "-"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_command_ends_in_a_named_outcome(command, data):
    # Every config that configs() draws exits 0 with only finite numbers in its
    # files, 1 with one config error line and nothing written, or 2 with one
    # line naming the error: on stderr, as simulate's aborted (or its tangency
    # mismatch) or as iterate's last row.  Never a traceback or a RuntimeWarning.
    doc = data.draw(configs(command))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's warning would end in a traceback
        tmp = Path(tmp)
        if "polygon_file" in doc.get("oval", {}):
            (tmp / "polygon.json").write_text(json.dumps(data.draw(POLYGONS)), encoding="utf-8")
        out, err = tmp / "out", io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*command.split(), "--config", write_config(tmp, doc), "--out", str(out)])
        event(f"{command}: exit {rc}")
        said = err.getvalue().splitlines()
        if rc == 1:
            assert len(said) == 1 and said[0].startswith("config error: ") and not out.exists(), said
            return
        files, mismatch = sorted(out.iterdir()) if out.exists() else [], None
        assert files or rc == 2
        for path in files:  # json writes a float that is not finite as NaN or Infinity, repr as nan or inf
            if path.suffix == ".json":
                written = json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path.name}: {c}"))
                if path.name == "summary.json":
                    mismatch = written["tangency_mismatch"]
                    said += [line for line in [written["aborted"] or mismatch] if line]
                continue
            rows = path.read_text().splitlines()[1:]
            said += [rows.pop()] if rows and rows[-1].startswith("# aborted: ") else []
            assert not {"nan", "inf", "-inf"} & {c for row in rows for c in row.split(",")}, path.name
        assert rc in (0, 2) and len(said) == (rc == 2), (rc, said)
        assert rc == 0 or _names_an_error(said[0]) or said[0] == mismatch, said


def test_oval_synth_square_with_extremum_at_angle_zero(tmp_path):
    # The synthesized near-circle has its x-extremum at angle 0 within
    # rounding, where the scan and the root solver used to disagree on sign.
    doc = {
        "oval": {
            "polygon": {
                "points": [
                    [1.453956538743632, 0.9700849369058069],
                    [-1.598659098410163, 0.9700849369058069],
                    [-1.598659098410163, -2.082530700247988],
                    [1.453956538743632, -2.082530700247988],
                ],
                "slopes": [-1.0, 1.0, -1.0, 1.0],
            }
        }
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["oval", "synth", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "synth_report.json").read_text())
    assert report["simulated_factor"] == pytest.approx(1.0, abs=1e-8)


def test_simulate_exits_2_on_tangency_drift(tmp_path):
    # A (1,1) start whose third bounce lands near the null-normal set: the
    # speed jumps to ~1.7e4 and the tangency parameter drifts by ~1.8e-7.
    doc = {
        "signature": [1, 1],
        "axes": [2.042286444944871, 0.9171322321587713],
        "initial": {"x": [0.8965711546740063, 0.8240298195831287],
                    "v": [1.865984443577984, -0.6179552347830143]},
        "bounces": 3,
        "record_tangency": True,
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is None and summary["bounces_completed"] == 3
    assert summary["drift"]["lambda_mismatch"]
    assert "drift" in summary["tangency_mismatch"] and "bounce 3" in summary["tangency_mismatch"]


@pytest.mark.parametrize("j", [-8, 8])
def test_simulate_example_scales_exactly_with_its_axes(tmp_path, j):
    # The README simulate example with its axes times 2^j.  No verdict of the
    # run depends on the scale of the geometry, so it exits 0 like the
    # unscaled run and each column is the unscaled one times its power of two:
    # x by 2^j, H by 2^-j, lambda by 2^2j, v and F unchanged.
    def run(scale):
        doc = simulate_doc(axes=[scale * a for a in (3.0, 2.0, 1.0)], bounces=1000, record_tangency=True)
        out = tmp_path / f"out{scale}"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        header, *rows = (out / "orbit.csv").read_text().splitlines()
        return header, np.array([[float(c) for c in row.split(",")] for row in rows])

    header, want = run(1.0)
    scaled_header, got = run(2.0**j)
    assert scaled_header == header == "index,x1,x2,x3,v1,v2,v3,H,F1,F2,F3,lam1"
    powers = [0, j, j, j, 0, 0, 0, -j, 0, 0, 0, 2 * j]
    assert np.array_equal(got, np.ldexp(want, powers))


def test_orbit_csv_cells_match_record(tmp_path, monkeypatch):
    # orbit.csv is the record written cell by cell with repr(float(c)); tangency
    # columns follow bounce 0's count, padded with empty cells where a bounce
    # has fewer parameters and cut where it has more.
    from dataclasses import replace

    from pebilliards import billiard

    run_orbit = billiard.run_orbit
    seen = []

    def recorded(*args, **kwargs):
        rec = run_orbit(*args, **kwargs)
        lams = rec.lambdas
        assert lams.shape == (5, 2) and not np.isnan(lams).any()
        lams = np.column_stack([lams, np.full(5, np.nan)])
        lams[1, 1] = np.nan
        lams[2, 2] = 7.5
        seen.append(replace(rec, lambdas=lams, near_pole=np.full(lams.shape, np.nan)))
        return seen[-1]

    monkeypatch.setattr(billiard, "run_orbit", recorded)
    doc = simulate_doc(bounces=4, record_tangency=True,
                       initial={"x": [0.0, 0.0, 1.0], "v": [0.6, 0.5, -0.3]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2

    (rec,) = seen
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tangency_mismatch"] == (
        "tangency parameter count varies along the orbit: [1, 2, 3]; first at bounce 1, 1 against 2 at bounce 0, "
        "with no root set aside near a pole (a root left or joined the real line)"
    )
    assert summary["drift"]["lambda_mismatch"] is True and summary["drift"]["lambda_drift"] is None
    lines = ["index,x1,x2,x3,v1,v2,v3,H,F1,F2,F3,lam1,lam2"]
    for k in range(rec.bounce_count + 1):
        cells = [*rec.xs[k], *rec.vs[k], rec.h[k], *rec.f[k]]
        lams = [lam for lam in rec.lambdas[k, :2] if not np.isnan(lam)]
        row = [str(k)] + [repr(float(c)) for c in cells + lams] + [""] * (2 - len(lams))
        lines.append(",".join(row))
    expected = ("\n".join(lines) + "\n").encode()
    assert (out / "orbit.csv").read_bytes() == expected
    assert b",\n" in expected  # the short bounce is padded


def test_orbit_rows_format_each_cell_as_its_repr():
    # 0.0 and -0.0 compare equal but keep their own texts, in a short table and
    # a long one alike; a NaN cell is empty.
    from pebilliards.floattext import csv_rows

    cells = np.array([[0.1, -0.0, -0.5, 0.0, 3.0], [0.0, 2.5, -0.5, -0.0, np.nan], [-0.0, 1e-300, -0.5, 0.0, 1 / 3]])
    rows = [b"0.1,-0.0,-0.5,0.0,3.0", b"0.0,2.5,-0.5,-0.0,", b"-0.0,1e-300,-0.5,0.0,0.3333333333333333"]
    assert bytes(csv_rows(cells)) == b"".join(b"%d,%s\n" % (i, row) for i, row in enumerate(rows))
    big = np.tile(cells, (100, 1))
    assert bytes(csv_rows(big)) == b"".join(b"%d,%s\n" % (i, rows[i % 3]) for i in range(len(big)))
    assert bytes(csv_rows(cells[:0])) == b""


def test_thousand_bounce_orbit_csv_is_the_per_cell_repr_of_its_record(tmp_path, monkeypatch):
    from pebilliards import billiard

    run_orbit = billiard.run_orbit
    seen = []

    def recorded(*args, **kwargs):
        seen.append(run_orbit(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(billiard, "run_orbit", recorded)
    out = tmp_path / "out"
    path = write_config(tmp_path, simulate_doc(bounces=1000))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    (rec,) = seen
    lines = ["index,x1,x2,x3,v1,v2,v3,H,F1,F2,F3"]
    for k in range(1001):
        cells = [*rec.xs[k], *rec.vs[k], rec.h[k], *rec.f[k]]
        lines.append(",".join([str(k)] + [repr(float(c)) for c in cells]))
    assert (out / "orbit.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_mid_orbit_root_isolation_failure_exits_2_with_files(tmp_path):
    # The README simulate start with v times 2^507: every F_k stays finite,
    # but Q's coefficients, which carry a_i^2 v^2, overflow on the third row
    # (bounce 2) as the speed grows, so the record ends before it: rows 0-1,
    # each with its parameters.
    from pebilliards.billiard import sample_null_ray
    from pebilliards.pecore import Ellipsoid, Signature

    start = sample_null_ray(Ellipsoid((3.0, 2.0, 1.0)), Signature(2, 1), 7)
    doc = simulate_doc(bounces=5, record_tangency=True,
                       initial={"x": start.x.tolist(), "v": np.ldexp(start.v, 507).tolist()})
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"].startswith("RootIsolationFailure: tangency polynomial not finite: [inf, ")
    assert summary["abort_bounce"] == 2 and summary["bounces_completed"] == 1
    lines = (out / "orbit.csv").read_text().splitlines()
    assert lines[0].endswith(",lam1") and len(lines) == 3
    assert all(line.split(",")[-1] != "" for line in lines[1:])


@pytest.mark.parametrize(
    "speed, record_tangency, error",
    [(1e200, True, "NonFinite"), (1e200, False, "NonFinite"), (1e154, True, "RootIsolationFailure")],
)
def test_start_that_overflows_is_config_error(tmp_path, capsys, speed, record_tangency, error):
    # At 1e200 F_k overflows double precision (it used to be written as inf
    # with exit 0, or to die in Q with an OverflowError); at 1e154 F_k is
    # finite but Q's coefficients are not.  Either way row 0 cannot be
    # recorded, which is a failed start: exit 1 and nothing written.  The
    # verdict is the only thing said: no overflow warning comes before it.
    doc = {"signature": [1, 1], "axes": [2.0, 1.0], "initial": {"x": [0.0, 1.0], "v": [speed, -speed]},
           "bounces": 3, "record_tangency": record_tangency}
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert f"config error: {error}: " in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_overflowing_start_names_its_row(tmp_path, capsys):
    # The verdict's text is pinned: H and every F_k of row 0 as the recorder
    # rounds them to double precision, F_k summed from the pair terms.
    doc = {"signature": [1, 1], "axes": [2.0, 1.0], "initial": {"x": [0.0, 1.0], "v": [1e200, -1e200]},
           "bounces": 3, "record_tangency": True}
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: NonFinite: not finite at bounce 0: H = -1e+200, F = [inf, -inf]\n"


@pytest.mark.parametrize("value", [1e200, 1e155])
def test_radial_table_that_overflows_is_config_error(tmp_path, capsys, value):
    # The bump's curvature numerator overflows to nan on the scan grid.  The
    # table used to be accepted, and iterate failed only at its first chord
    # step (exit 2, four extrema of coordinate 0); it is now refused when it
    # is built: exit 1, nothing written, no overflow warning.
    table = {"kind": "radial", "base": {"kind": "ellipse", "semi_axes": [2.0, 1.0]},
             "bumps": [[1.0, value, 0.0, 0.5]]}
    doc = {"oval": {"table": table, "start": 0.9, "steps": 10}}
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["oval", "iterate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "config error: ConvexityViolation: " in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_interpreter(code, **env):
    """What `code` prints in a fresh interpreter, so modules other tests imported do not count; `env` adds variables."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, pebilliards.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_interpreter(code).strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # confocal forms polyroots' companion matrix itself: numpy.polynomial imports eight modules.
    code = "import sys, pebilliards.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    assert _fresh_interpreter(code).strip() == "[]"


def test_cli_import_builds_no_step_kernel(tmp_path):
    # The native library of the record pass and the CSV formatter is built on
    # first use, so importing costs nothing for it: it starts no compiler and
    # writes no file to the cache, so it loads no library from there.  A `cc`
    # first on PATH records each start; building the library starts it once.
    bin_dir, started, cache = tmp_path / "bin", tmp_path / "started", tmp_path / "cache"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text(f"#!/bin/sh\necho cc >> '{started}'\nexit 1\n", encoding="utf-8")
    (bin_dir / "cc").chmod(0o755)
    env = {"XDG_CACHE_HOME": str(cache), "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])}
    code = (
        "import pebilliards.cli, pebilliards.native as n;"
        "print(n.library.cache_info().currsize)"
    )
    assert _fresh_interpreter(code, **env).strip() == "0"
    assert not started.exists() and not cache.exists()
    code = (
        "import pebilliards.cli, pebilliards.native as n;"
        "print(n.library(), n.library())"
    )
    assert _fresh_interpreter(code, **env).strip() == "None None"
    assert started.read_text() == "cc\n" and not [p for p in cache.rglob("*") if p.is_file()]


@pytest.mark.parametrize("home", ["absolute", "relative"])
def test_a_relative_cache_home_counts_as_unset(tmp_path, monkeypatch, home):
    # A relative XDG_CACHE_HOME counts as unset: simulate, run from another
    # directory, builds the library under $HOME/.cache/pebilliards and writes
    # no file to its working directory.  Where HOME is relative too there is
    # no cache: nothing is built and simulate takes the Python paths.
    from pebilliards import native

    if home == "absolute" and shutil.which(native._CC[0]) is None:
        pytest.skip("no C compiler on PATH")
    work, home_dir = tmp_path / "work", tmp_path / "home"
    work.mkdir()
    home_dir.mkdir()
    config = write_config(tmp_path, simulate_doc())
    monkeypatch.chdir(work)
    monkeypatch.setenv("XDG_CACHE_HOME", "rel")
    monkeypatch.setenv("HOME", str(home_dir) if home == "absolute" else "home")
    native.library.cache_clear()
    try:
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
        built = native.library() is not None
    finally:
        native.library.cache_clear()
    assert list(work.iterdir()) == []
    libraries = [p.relative_to(home_dir) for p in home_dir.rglob("*.so")]
    if home == "absolute":
        assert built and [p.parent for p in libraries] == [Path(".cache", "pebilliards")]
    else:
        assert not built and libraries == []


def test_no_source_file_imports_scipy():
    importing = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    assert [p.name for p in sources if importing.search(p.read_text())] == []


#: Runs the [command, name, config] entries of the JSON file argv[1] through
#: cli.main, each into argv[2]/<name>, and prints each name and exit code.  A
#: table "synth" is the table.json that the entry named synth wrote.
RUN_ROUND = """
import json, sys
from pathlib import Path
from pebilliards.cli import main

out = Path(sys.argv[2])
for command, name, doc in json.loads(Path(sys.argv[1]).read_text()):
    if doc.get("oval", {}).get("table") == "synth":
        doc["oval"]["table"] = json.loads((out / "synth" / "table.json").read_text())
    config = out / f"{name}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    print(name, main([*command, "--config", str(config), "--out", str(out / name)]))
"""


def _supported_dispatch_targets():
    """The CPU targets, beyond numpy's baseline, that numpy dispatches to on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_outputs_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # The README's oval, family-plot and commute examples, periodic and
    # iterate on the synthesized table and on an ellipse whose chord map has
    # period 3, and a sampled light-like simulate write the same bytes under
    # numpy's default dispatch as with every dispatch target this host
    # supports disabled (what a CPU without them would compute), each with a
    # different OpenBLAS kernel.  Seed 9's start would depend on the kernel
    # if sample_null_ray summed through BLAS.
    period_3 = {"kind": "ellipse_form", "form": [[0.25, -0.25], [-0.25, 1.0]], "center": [0.3, -0.2]}
    family = {"lambdas": [-6.0, -4.0, -2.0, 0.0, 0.5, 2.0, 6.0], "points": 256}
    entries = [
        [["oval", "synth"], "synth", {"oval": {"polygon": SQUARE}}],
        [["oval", "periodic"], "periodic-synth", {"oval": {"table": "synth", "half_period": 2, "seed_param": 5.45}}],
        [["oval", "iterate"], "iterate-synth", {"oval": {"table": "synth", "start": 0.9, "steps": 10}}],
        [["oval", "periodic"], "periodic-ellipse", {"oval": {"table": period_3, "half_period": 3, "seed_param": 0.7}}],
        [["oval", "iterate"], "iterate-ellipse", {"oval": {"table": ELLIPSE, "start": 0.9273, "steps": 10}}],
        [["family-plot"], "family-plot", {"signature": [1, 1], "axes": [2.0, 1.0], "family": family}],
        [["commute"], "commute", {**COMMUTE, "samples": 2000}],
        [["simulate"], "simulate-null", simulate_doc(bounces=100, seed=9)],
    ]
    round_file = tmp_path / "round.json"
    round_file.write_text(json.dumps(entries), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    reduced = {"NPY_DISABLE_CPU_FEATURES": " ".join(_supported_dispatch_targets()), "OPENBLAS_CORETYPE": "Prescott"}
    runs = []
    for extra in ({"OPENBLAS_CORETYPE": "Haswell"}, reduced):
        out = tmp_path / f"run{len(runs)}"
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", RUN_ROUND, str(round_file), str(out)],
            env={**env, **extra}, capture_output=True, text=True, check=True,
        )
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((done.stdout, files))
    (said, files), (reduced_said, reduced_files) = runs
    assert said == "".join(f"{name} 0\n" for _, name, _ in entries)
    assert reduced_said == said
    assert len(files) == 2 * len(entries) + 2  # a config and an output each; synth and simulate write two
    assert files.keys() == reduced_files.keys()
    assert [str(p) for p in files if files[p] != reduced_files[p]] == []


#: The README's examples in the order its shell lines run them: each entry is
#: the command, its config file and document, and the directory it writes.
#: "results/table.json" stands for the table that `oval synth` wrote.
README_EXAMPLES = [
    (["simulate"], "sim.json", {"signature": [2, 1], "axes": [3.0, 2.0, 1.0], "initial": {"sample_null": True},
                                "bounces": 1000, "seed": 7, "record_tangency": True}, "simulate"),
    (["commute"], "comm.json", {"signature": [2, 1], "axes": [3.0, 2.0, 1.0], "samples": 10000, "seed": 1}, "commute"),
    (["oval", "iterate"], "oval.json", {"oval": {"table": {"kind": "ellipse", "semi_axes": [2.0, 1.0]},
                                                 "start": 0.9273, "steps": 10}}, "oval-iterate"),
    (["oval", "synth"], "synth.json", {"oval": {"polygon_file": "polygon.json"}}, "oval-synth"),
    (["oval", "periodic"], "periodic.json", {"oval": {"table": "results/table.json", "half_period": 2,
                                                      "seed_param": 5.45}}, "oval-periodic"),
    (["family-plot"], "fam.json", {"signature": [1, 1], "axes": [2.0, 1.0],
                                   "family": {"lambdas": [-6, -4, -2, 0, 0.5, 2, 6], "points": 256}}, "family-plot"),
]

#: SHA-256 of every file the README's examples write, per command.
README_DIGESTS = Path(__file__).with_name("readme_digests.json")


def readme_digests(work: Path) -> dict[str, dict[str, str]]:
    """Runs README_EXAMPLES in `work`, each into its own directory; the SHA-256 of every file written."""
    polygon = {"points": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "slopes": [-1, 2, -1, 2]}
    (work / "polygon.json").write_text(json.dumps(polygon), encoding="utf-8")
    digests = {}
    for command, config, doc, out in README_EXAMPLES:
        if doc.get("oval", {}).get("table") == "results/table.json":
            doc = {"oval": {**doc["oval"], "table": json.loads((work / "oval-synth" / "table.json").read_text())}}
        assert main([*command, "--config", write_config(work, doc, config), "--out", str(work / out)]) == 0
        digests[out] = {p.name: sha256(p) for p in sorted((work / out).iterdir())}
    return digests


def test_readme_simulate_writes_the_committed_bytes_without_a_compiler(tmp_path, no_compiler):
    # Where no library can be built the recorder takes its numpy pass and
    # every cell is its repr, and the bytes stay the same.
    from pebilliards import native

    command, config, doc, out = README_EXAMPLES[0]
    assert main([*command, "--config", write_config(tmp_path, doc, config), "--out", str(tmp_path / out)]) == 0
    assert native.library() is None
    if np.finfo(np.longdouble).nmant == 63:
        want = json.loads(README_DIGESTS.read_text())["simulate"]
        assert {p.name: sha256(p) for p in sorted((tmp_path / out).iterdir())} == want


def test_three_bounce_simulate_formats_every_cell_with_repr(tmp_path, monkeypatch):
    # A short orbit's cells are repr's texts too, joined by commas.
    from pebilliards import billiard

    run_orbit = billiard.run_orbit
    seen = []

    def recorded(*args, **kwargs):
        seen.append(run_orbit(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(billiard, "run_orbit", recorded)
    out = tmp_path / "out"
    doc = simulate_doc(bounces=3, record_tangency=True)
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    (rec,) = seen
    assert rec.lambdas.shape == (4, 1) and not np.isnan(rec.lambdas).any()  # a light-like orbit has one parameter
    lines = ["index,x1,x2,x3,v1,v2,v3,H,F1,F2,F3,lam1"]
    for k in range(4):
        cells = [*rec.xs[k], *rec.vs[k], rec.h[k], *rec.f[k], *rec.lambdas[k]]
        lines.append(",".join([str(k)] + [repr(float(c)) for c in cells]))
    assert (out / "orbit.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_readme_examples_write_the_committed_bytes(tmp_path):
    # Any change to these bytes is a change to the paper's answers.  The
    # simulate example records in x86 long double, so its digests hold only
    # where long double has a 64-bit significand.
    want = json.loads(README_DIGESTS.read_text())
    got = readme_digests(tmp_path)
    if np.finfo(np.longdouble).nmant != 63:
        del want["simulate"], got["simulate"]
    assert got == want, json.dumps(got, indent=1)


"""Command-line front end: orbit runs, bracket sweeps, oval experiments, plot data.

One JSON config document per run, checked against the command's key-spec
table before anything is computed or written.  Unknown keys, missing
required keys and values of the wrong type or range are config errors that
name the dotted path of the key, e.g. ``config.initial.x``.  Outputs are
deterministic for a fixed config and seed: every CSV float is the text of
its ``repr`` (the shortest that reads back; `floattext` writes the rows of
``orbit.csv`` with a C function, where one builds, with the same bytes), JSON
keys are sorted, and line endings are LF.

Exit codes:

    0  clean run
    1  config error: a bad config or command line, or a failure before the
       first bounce (a simulate start off the boundary, not inward, of zero
       direction or not sampled, resonant axes, or a start row that cannot
       be recorded: NonFinite, RootIsolationFailure), or simulate rows or
       their text that do not fit in memory; no file is written
    2  runtime degeneracy: a failed step or row during the orbit, a tangency
       mismatch, or a named error raised while computing (e.g. NoConvergence
       or DegenerateChord on a radial oval table)
    3  tolerance failure in a verification command (commute)

The thresholds are the library's constants: pecore.BOUNDARY_TOL and
LIGHTLIKE_TOL, billiard.GRAZING_TOL and NULL_NORMAL_TOL,
confocal.POLE_FILTER_FACTOR and REAL_TOL, verify.LAMBDA_DRIFT_TOL and
BRACKET_TOL.
A command-line syntax error (an unknown command, mode or flag, a missing
``--config``) is a config error too and exits 1 before any config is read;
``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import billiard, confocal, floattext, lorentz_oval, verify
from .errors import (
    ConfigError,
    ConvexityViolation,
    DegenerateChord,
    InfeasibleSlopes,
    PEBilliardsError,
    PoleParameter,
    ResonantAxes,
    ZeroSlope,
)
from .pecore import Ellipsoid, RayState, Signature

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_TOLERANCE = 3


def _fmt(x) -> str:
    return repr(float(x))


def _fail(message: str):
    raise ConfigError(message)


# ------------------------------------------------------------------ checkers
#
# A checker takes a value and the dotted path it came from, and returns the
# value converted (numbers to float) or raises ConfigError naming the path.
# A spec maps each key of an object to (checker, default); REQUIRED marks a
# key without default, and a default of None marks an optional key that is
# None when absent.  Any other default is passed through the checker too.
# _int, _list and _object keep their parameters as attributes: tests read them.

REQUIRED = object()


class _int:
    def __init__(self, minimum: int):
        self.minimum = minimum

    def __call__(self, val, where: str) -> int:
        if not isinstance(val, int) or isinstance(val, bool) or val < self.minimum:
            _fail(f"{where} must be an integer >= {self.minimum}, got {val!r}")
        return val


def _finite(val, where: str) -> float:
    # The comparison is False for NaN, the infinities and ints past the float range.
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not abs(val) <= sys.float_info.max:
        _fail(f"{where} must be a finite number, got {val!r}")
    return float(val)


def _positive(val, where: str) -> float:
    if _finite(val, where) <= 0.0:
        _fail(f"{where} must be a positive finite number, got {val!r}")
    return float(val)


def _boolean(val, where: str) -> bool:
    if not isinstance(val, bool):
        _fail(f"{where} must be true or false, got {val!r}")
    return val


def _string(val, where: str) -> str:
    if not isinstance(val, str):
        _fail(f"{where} must be a string, got {val!r}")
    return val


class _list:
    def __init__(self, item, length: int | None = None):
        self.item, self.length = item, length

    def __call__(self, val, where: str) -> list:
        if not isinstance(val, list) or (self.length is not None and len(val) != self.length):
            size = "a list" if self.length is None else f"a list of {self.length} entries"
            _fail(f"{where} must be {size}, got {val!r}")
        return [self.item(v, f"{where}[{i}]") for i, v in enumerate(val)]


class _object:
    def __init__(self, spec: dict):
        self.spec = spec

    def __call__(self, val, where: str) -> dict:
        if not isinstance(val, dict):
            _fail(f"{where} must be a JSON object, got {val!r}")
        unknown = set(val) - set(self.spec)
        if unknown:
            _fail(f"unknown keys in {where}: {sorted(unknown)}")
        missing = [key for key, (_, default) in self.spec.items() if default is REQUIRED and key not in val]
        if missing:
            _fail(f"missing keys in {where}: {missing}")
        out = {}
        for key, (item, default) in self.spec.items():
            given = val.get(key, default)
            out[key] = None if given is None and key not in val else item(given, f"{where}.{key}")
        return out


def _table(val, where: str) -> lorentz_oval.OvalCurve:
    """Checker for an oval table: the keys its kind reads, built into the curve."""
    kind = val.get("kind") if isinstance(val, dict) else None
    if not isinstance(kind, str) or kind not in _TABLE_KINDS:
        _fail(f"{where} must be an object with kind one of {sorted(_TABLE_KINDS)}, got {val!r}")
    doc = _TABLE_KINDS[kind](val, where)
    try:
        if kind == "ellipse":
            return lorentz_oval.EllipseOval.axis_aligned(*doc["semi_axes"], doc["center"])
        if kind == "ellipse_form":
            return lorentz_oval.EllipseOval(np.array(doc["form"]), doc["center"])
        if not isinstance(doc["base"], lorentz_oval.EllipseOval):
            _fail(f"{where}.base must be an ellipse table")
        bumps = tuple(lorentz_oval.RadialBump(*b) for b in doc["bumps"])
        return lorentz_oval.RadialOval(doc["base"], bumps)
    except ValueError as exc:
        _fail(f"invalid {where}: {exc}")
    except ConvexityViolation as exc:
        _fail(f"ConvexityViolation: {exc}")


_PAIR = _list(_finite, 2)
_KIND, _CENTER = (_string, REQUIRED), (_PAIR, [0.0, 0.0])
_TABLE_KINDS = {
    "ellipse": _object({"kind": _KIND, "semi_axes": (_PAIR, REQUIRED), "center": _CENTER}),
    "ellipse_form": _object({"kind": _KIND, "form": (_list(_PAIR, 2), REQUIRED), "center": _CENTER}),
    "radial": _object({"kind": _KIND, "base": (_table, REQUIRED), "bumps": (_list(_list(_finite, 4)), [])}),
}
_POLYGON = _object({"points": (_list(_PAIR), REQUIRED), "slopes": (_list(_finite), REQUIRED)})


def _polygon(val, where: str) -> lorentz_oval.NullPolygon:
    doc = _POLYGON(val, where)
    try:
        return lorentz_oval.NullPolygon(np.asarray(doc["points"], dtype=float), tuple(doc["slopes"]))
    except ValueError as exc:
        _fail(f"invalid {where}: {exc}")


_OUT = (_string, None)
_GEOMETRY = {"signature": (_list(_int(0), 2), REQUIRED), "axes": (_list(_positive), REQUIRED)}
_OVAL_MODES = {
    "iterate": {"table": (_table, REQUIRED), "start": (_finite, REQUIRED), "steps": (_int(1), REQUIRED)},
    "periodic": {
        "table": (_table, REQUIRED),
        "half_period": (_int(2), REQUIRED),
        "seed_param": (_finite, REQUIRED),
    },
    "synth": {"polygon": (_polygon, None), "polygon_file": (_string, None), "periods": (_int(1), 1)},
}

#: The key-spec table of each command (and of each oval mode).
SPECS = {
    "simulate": {
        **_GEOMETRY,
        "initial": (
            _object({"x": (_list(_finite), None), "v": (_list(_finite), None), "sample_null": (_boolean, False)}),
            REQUIRED,
        ),
        "bounces": (_int(1), REQUIRED),
        "seed": (_int(0), 0),
        "record_tangency": (_boolean, True),
        "out": _OUT,
    },
    "commute": {
        **_GEOMETRY,
        "samples": (_int(1), REQUIRED),
        "seed": (_int(0), 0),
        "out": _OUT,
    },
    "family-plot": {
        **_GEOMETRY,
        "family": (
            _object(
                {
                    "lambdas": (_list(_finite), None),
                    "count": (_int(1), 7),
                    "points": (_int(8), 256),
                    "span": (_finite, 1.5),
                }
            ),
            REQUIRED,
        ),
        "out": _OUT,
    },
    **{f"oval {mode}": {"oval": (_object(spec), REQUIRED), "out": _OUT} for mode, spec in _OVAL_MODES.items()},
}


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail(f"{path} must hold a JSON object")
    return doc


def _write_json(path: Path, obj) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def _write_lines(path: Path, lines: list[str]) -> None:
    _write_bytes(path, ("\n".join(lines) + "\n").encode())


def _write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _geometry(cfg: dict) -> tuple[Ellipsoid, Signature]:
    try:
        sig = Signature(*cfg["signature"])
        ell = Ellipsoid(tuple(cfg["axes"]))
    except ValueError as exc:
        _fail(str(exc))
    if ell.dim != sig.dim:
        _fail(f"axes dimension {ell.dim} does not match signature dimension {sig.dim}")
    return ell, sig


# ----------------------------------------------------------------- simulate


def _initial_state(init: dict, ell: Ellipsoid, sig: Signature, seed: int) -> RayState:
    """A sampled light-like start, or the given x and v; run_orbit checks the start."""
    explicit = init["x"] is not None, init["v"] is not None
    if init["sample_null"]:
        if any(explicit):
            _fail("config.initial: give either sample_null or explicit x, v, not both")
        if sig.q < 1 or sig.p < 1:
            _fail("sampled null starts need p >= 1 and q >= 1")
        return billiard.sample_null_ray(ell, sig, seed)
    if not all(explicit):
        _fail("config.initial needs x and v (or sample_null: true)")
    x = np.asarray(init["x"], dtype=float)
    v = np.asarray(init["v"], dtype=float)
    if x.shape != (ell.dim,) or v.shape != (ell.dim,):
        _fail(f"config.initial x and v must have length {ell.dim}")
    return RayState(x, v)


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    ell, sig = _geometry(cfg)
    beyond_memory = f"config.bounces: the rows of {cfg['bounces']} bounces do not fit in memory"

    # A failure before the first bounce is a config error; one during the
    # orbit is recorded in the output and exits 2.  The rows are allocated
    # before the first bounce, so a count past memory fails at once.
    try:
        fam = confocal.ConfocalFamily(ell, sig) if cfg["record_tangency"] else None
        state = _initial_state(cfg["initial"], ell, sig, cfg["seed"])
        record = billiard.run_orbit(state, cfg["bounces"], ell, sig, fam=fam)
    except ConfigError:
        raise
    except PEBilliardsError as exc:  # every named error here is a failed start
        _fail(f"{type(exc).__name__}: {exc}")
    except MemoryError:
        _fail(beyond_memory)
    report = verify.drift_report(record) if record.bounce_count >= 1 else None
    mismatch = report.lambda_mismatch if report is not None else None

    dim = ell.dim
    lam_count = record.tangency[0].count if record.tangency else 0
    header = (
        ["index"]
        + [f"x{i + 1}" for i in range(dim)]
        + [f"v{i + 1}" for i in range(dim)]
        + ["H"]
        + [f"F{i + 1}" for i in range(dim)]
        + [f"lam{i + 1}" for i in range(lam_count)]
    )
    # A row with fewer tangency parameters than row 0 ends in blank cells:
    # NaN, which csv_rows leaves empty (a recorded row is finite).
    cells = np.column_stack([record.xs, record.vs, record.h, record.f, np.full((len(record.xs), lam_count), np.nan)])
    first = cells.shape[1] - lam_count
    for idx, ts in enumerate(record.tangency if lam_count else ()):
        lams = ts.lambdas[:lam_count]
        cells[idx, first : first + len(lams)] = lams
    try:
        rows = floattext.csv_rows(cells)
    except MemoryError:
        _fail(beyond_memory)
    _write_bytes(out_dir / "orbit.csv", (",".join(header) + "\n").encode() + rows)
    summary = {
        "bounces_requested": cfg["bounces"],
        "bounces_completed": record.bounce_count,
        "aborted": record.abort_reason,
        "abort_bounce": record.abort_bounce,
        "tangency_mismatch": mismatch,
        "drift": report.to_dict() if report is not None else None,
        "h_initial": float(record.h[0]),
        "seed": cfg["seed"],
    }
    _write_json(out_dir / "summary.json", summary)
    return EXIT_DEGENERATE if record.aborted or mismatch else EXIT_OK


# ------------------------------------------------------------------ commute


def cmd_commute(cfg: dict, out_dir: Path, wrong_metric: bool) -> int:
    ell, sig = _geometry(cfg)
    if ell.dim > verify.MAX_SWEEP_DIM:
        _fail(f"config.axes: commute sweeps dimension at most {verify.MAX_SWEEP_DIM}, got {ell.dim}")
    try:
        reports = verify.commutation_sweep(ell, sig, cfg["samples"], cfg["seed"], wrong_metric=wrong_metric)
    except ResonantAxes as exc:
        _fail(f"ResonantAxes: {exc}")

    worst = max(r.max_normalized for r in reports)
    _write_json(out_dir / "brackets.json", [r.to_dict() for r in reports])
    return EXIT_OK if worst <= verify.BRACKET_TOL else EXIT_TOLERANCE


# --------------------------------------------------------------------- oval


def _table_to_doc(curve: lorentz_oval.OvalCurve) -> dict:
    if isinstance(curve, lorentz_oval.RadialOval):
        return {
            "kind": "radial",
            "base": _table_to_doc(curve.base),
            "bumps": [[b.anchor, b.value, b.tilt, b.halfwidth] for b in curve.bumps],
        }
    return {
        "kind": "ellipse_form",
        "form": [list(map(float, row)) for row in curve.form],
        "center": list(map(float, curve.center)),
    }


def cmd_oval(cfg: dict, mode: str, out_dir: Path, config_dir: Path) -> int:
    spec = cfg["oval"]

    if mode == "iterate":
        curve, theta, steps = spec["table"], spec["start"], spec["steps"]
        lines = ["step,param,x,y"]
        for step in range(steps + 1):
            pt = curve.point(theta)
            lines.append(f"{step},{_fmt(theta)},{_fmt(pt[0])},{_fmt(pt[1])}")
            if step < steps:
                try:
                    theta = lorentz_oval.oval_map(curve, theta)
                except DegenerateChord as exc:
                    lines.append(f"# aborted: DegenerateChord: {exc}")
                    _write_lines(out_dir / "oval_orbit.csv", lines)
                    return EXIT_DEGENERATE
        _write_lines(out_dir / "oval_orbit.csv", lines)
        return EXIT_OK

    if mode == "periodic":
        curve = spec["table"]
        poly = lorentz_oval.find_periodic_orbit(curve, spec["half_period"], spec["seed_param"])
        v_formula = lorentz_oval.acceleration_factor(poly)
        _write_json(
            out_dir / "polygon.json",
            {
                "points": [[float(c) for c in p] for p in poly.points],
                "slopes": list(poly.slopes),
                "acceleration_factor": v_formula,
                "acceleration_factor_abs": abs(v_formula),
                "simulated_factor": lorentz_oval.simulate_speed(curve, poly),
                "return_derivative_abs": abs(lorentz_oval.return_map_derivative(curve, poly)),
            },
        )
        return EXIT_OK

    # synth
    poly = spec["polygon"]
    if (poly is None) == (spec["polygon_file"] is None):
        _fail("config.oval needs exactly one of polygon, polygon_file")
    if poly is None:
        poly = _polygon(load_config(config_dir / spec["polygon_file"]), "config.oval.polygon_file")
    try:
        curve = lorentz_oval.build_accelerating_table(poly.points, poly.slopes)
    except (InfeasibleSlopes, ConvexityViolation, ZeroSlope) as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    except ValueError as exc:
        _fail(f"invalid config.oval polygon: {exc}")
    rebuilt = lorentz_oval.polygon_from_parameter(
        curve,
        lorentz_oval.polygon_params(curve, poly)[-1],
        poly.half_period,
    )
    v_formula = lorentz_oval.acceleration_factor(rebuilt)
    v_sim = lorentz_oval.simulate_speed(curve, rebuilt)
    speed, closure = lorentz_oval.simulate_periods(curve, rebuilt, spec["periods"])
    _write_json(out_dir / "table.json", _table_to_doc(curve))
    _write_json(
        out_dir / "synth_report.json",
        {
            "target_factor": lorentz_oval.acceleration_factor(poly),
            "formula_factor": v_formula,
            "simulated_factor": v_sim,
            "periods": spec["periods"],
            "speed_after_periods": speed,
            "closure_defect": closure,
        },
    )
    return EXIT_OK


# -------------------------------------------------------------- family-plot


def cmd_family_plot(cfg: dict, out_dir: Path) -> int:
    ell, sig = _geometry(cfg)
    if ell.dim != 2:
        _fail("family-plot draws plane conics; need dimension 2")
    spec = cfg["family"]
    points = spec["points"]
    fam = confocal.ConfocalFamily(ell, sig)

    if spec["lambdas"] is not None:
        lambdas = spec["lambdas"]
    else:
        span = spec["span"] * float(np.max(ell.a2))
        if not math.isfinite(span + span):
            _fail(f"config.family.span: lambdas up to {spec['span']} max(a_i^2) leave the float range")
        lambdas = list(np.linspace(-span, span, spec["count"]))

    lines = ["member,lambda,status,branch,x,y"]
    for idx, lam in enumerate(lambdas):
        try:
            q = confocal.member(fam, lam)
        except PoleParameter:
            lines.append(f"{idx},{_fmt(lam)},pole-skipped,,,")
            continue
        except ValueError as exc:
            _fail(f"config.family: lambda {lam}: {exc}")
        c1, c2 = float(q.c[0]), float(q.c[1])
        # Samples from math, one at a time: numpy's array cos and cosh round by CPU.
        sx, sy = math.sqrt(abs(c1)), math.sqrt(abs(c2))
        if c1 > 0 and c2 > 0:
            for t in np.linspace(0.0, 2.0 * np.pi, points).tolist():
                lines.append(f"{idx},{_fmt(lam)},ok,0,{_fmt(sx * math.cos(t))},{_fmt(sy * math.sin(t))}")
        elif c1 * c2 < 0:
            ts = np.linspace(-3.0, 3.0, points).tolist()
            for branch, sign in ((0, 1.0), (1, -1.0)):
                for t in ts:
                    if c1 > 0:
                        x, y = sign * sx * math.cosh(t), sy * math.sinh(t)
                    else:
                        x, y = sx * math.sinh(t), sign * sy * math.cosh(t)
                    lines.append(f"{idx},{_fmt(lam)},ok,{branch},{_fmt(x)},{_fmt(y)}")
        else:
            lines.append(f"{idx},{_fmt(lam)},empty,,,")
    _write_lines(out_dir / "family.csv", lines)
    return EXIT_OK


# --------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """Reports a command-line syntax error as a config error instead of exiting 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pebilliards",
        description="Pseudo-Euclidean ellipsoid billiards: simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("simulate", help="run a billiard orbit and record invariants")
    pc = sub.add_parser("commute", help="Poisson-bracket sweep of the quadratic integrals")
    po = sub.add_parser("oval", help="plane light-like billiard experiments")
    po.add_argument("mode", choices=list(_OVAL_MODES))
    pf = sub.add_parser("family-plot", help="polyline samples of the confocal family")
    for p in (ps, pc, po, pf):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config or '.')")
    pc.add_argument(
        "--debug-flip-metric",
        action="store_true",
        help="negative control: break the metric adapter on purpose",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = f"oval {args.mode}" if args.command == "oval" else args.command
        cfg = _object(SPECS[command])(load_config(args.config), "config")
        out_dir = Path(args.out or cfg["out"] or ".")
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "commute":
            return cmd_commute(cfg, out_dir, args.debug_flip_metric)
        if args.command == "oval":
            return cmd_oval(cfg, args.mode, out_dir, Path(args.config).resolve().parent)
        return cmd_family_plot(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PEBilliardsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())

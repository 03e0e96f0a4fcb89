"""Command-line front end: orbit runs, bracket sweeps, oval experiments, plot data.

One JSON config document per run; unknown keys are rejected.  Outputs are
deterministic for a fixed config and seed: CSV floats use shortest
round-trip formatting, JSON keys are sorted, and line endings are LF.

Exit codes: 0 clean, 1 config error, 2 degeneracy quarantine, 3 tolerance
failure in verification commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import billiard, confocal, lorentz_oval, verify
from .errors import (
    ConfigError,
    ConvexityViolation,
    DegenerateChord,
    InfeasibleSlopes,
    NoConvergence,
    PEBilliardsError,
    PoleParameter,
    ResonantAxes,
    TangencyCountChanged,
    ZeroSlope,
)
from .pecore import Ellipsoid, RayState, Signature

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_TOLERANCE = 3

_TOLERANCE_KEYS = {"boundary", "grazing", "null_normal", "drift", "bracket"}
_DEFAULT_TOLERANCES = {
    "boundary": billiard.BOUNDARY_TOL,
    "grazing": billiard.GRAZING_TOL,
    "null_normal": billiard.NULL_NORMAL_TOL,
    "drift": 1e-9,
    "bracket": 1e-10,
}


def _fmt(x) -> str:
    return repr(float(x))


def _fail(message: str):
    raise ConfigError(message)


def _check_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        _fail(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        _fail(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        _fail(f"missing keys in {where}: {sorted(missing)}")


def _positive_int(doc: dict, key: str, where: str, minimum: int = 1) -> int:
    val = doc[key]
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        _fail(f"{where}.{key} must be an integer >= {minimum}, got {val!r}")
    return val


def _seed(doc: dict, seed_override) -> int:
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _number(val, where: str) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        _fail(f"{where} must be a finite number, got {val!r}")
    return float(val)


def _numbers(val, where: str, count: int | None = None) -> list[float]:
    if not isinstance(val, list) or (count is not None and len(val) != count):
        size = "" if count is None else f"{count} "
        _fail(f"{where} must be a list of {size}numbers, got {val!r}")
    return [_number(v, where) for v in val]


def _signature(doc: dict) -> Signature:
    sig = doc["signature"]
    if (
        not isinstance(sig, list)
        or len(sig) != 2
        or not all(isinstance(s, int) and not isinstance(s, bool) for s in sig)
    ):
        _fail(f"signature must be a pair of integers, got {sig!r}")
    try:
        return Signature(sig[0], sig[1])
    except ValueError as exc:
        _fail(str(exc))


def _ellipsoid(doc: dict, sig: Signature) -> Ellipsoid:
    try:
        ell = Ellipsoid(tuple(_numbers(doc["axes"], "axes")))
    except ValueError as exc:
        _fail(str(exc))
    if ell.dim != sig.dim:
        _fail(f"axes dimension {ell.dim} does not match signature dimension {sig.dim}")
    return ell


def _tolerances(doc: dict, overrides: dict) -> dict:
    tols = dict(_DEFAULT_TOLERANCES)
    given = doc.get("tolerances", {})
    _check_keys(given, _TOLERANCE_KEYS, set(), "tolerances")
    for key, val in given.items():
        if not isinstance(val, (int, float)) or val <= 0:
            _fail(f"tolerances.{key} must be positive, got {val!r}")
        tols[key] = float(val)
    for key, val in overrides.items():
        if val is not None:
            tols[key] = val
    return tols


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail("config must be a JSON object")
    return doc


def serialize_config(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------- simulate


@dataclass(frozen=True)
class RunConfig:
    """Validated orbit-run configuration.

    Structural validation (types, unknown keys) happens in from_doc; the
    geometric preconditions (boundary membership, inwardness, resonance) are
    checked by initial_state and family before any orbit computation runs.
    """

    signature: tuple[int, int]
    axes: tuple[float, ...]
    initial: dict
    bounces: int
    seed: int = 0
    record_tangency: bool = True
    tolerances: dict | None = None
    out: str | None = None

    @classmethod
    def from_doc(cls, doc: dict, seed_override=None, tol_overrides: dict | None = None) -> "RunConfig":
        _check_keys(
            doc,
            {"signature", "axes", "initial", "bounces", "seed", "record_tangency",
             "tolerances", "out"},
            {"signature", "axes", "initial", "bounces"},
            "config",
        )
        sig = _signature(doc)
        _ellipsoid(doc, sig)
        init = doc["initial"]
        _check_keys(init, {"x", "v", "sample_null"}, set(), "initial")
        if init.get("sample_null") and ("x" in init or "v" in init):
            _fail("initial: give either sample_null or explicit x, v, not both")
        if not init.get("sample_null") and ("x" not in init or "v" not in init):
            _fail("initial needs x and v (or sample_null: true)")
        record_tangency = doc.get("record_tangency", True)
        if not isinstance(record_tangency, bool):
            _fail("record_tangency must be a boolean")
        return cls(
            signature=(sig.p, sig.q),
            axes=tuple(float(a) for a in doc["axes"]),
            initial=dict(init),
            bounces=_positive_int(doc, "bounces", "config"),
            seed=_seed(doc, seed_override),
            record_tangency=record_tangency,
            tolerances=_tolerances(doc, tol_overrides or {}),
            out=doc.get("out"),
        )

    def to_doc(self) -> dict:
        doc = {
            "signature": list(self.signature),
            "axes": list(self.axes),
            "initial": dict(self.initial),
            "bounces": self.bounces,
            "seed": self.seed,
            "record_tangency": self.record_tangency,
            "tolerances": dict(self.tolerances or {}),
        }
        if self.out is not None:
            doc["out"] = self.out
        return doc

    def geometry(self) -> tuple[Ellipsoid, Signature]:
        sig = Signature(*self.signature)
        return Ellipsoid(self.axes), sig

    def initial_state(self, ell: Ellipsoid, sig: Signature) -> RayState:
        if self.initial.get("sample_null"):
            if sig.q < 1 or sig.p < 1:
                _fail("sampled null starts need p >= 1 and q >= 1")
            return billiard.sample_null_ray(ell, sig, self.seed)
        x = np.asarray(self.initial["x"], dtype=float)
        v = np.asarray(self.initial["v"], dtype=float)
        if x.shape != (ell.dim,) or v.shape != (ell.dim,):
            _fail(f"initial x and v must have length {ell.dim}")
        if abs(ell.boundary_defect(x)) > self.tolerances["boundary"]:
            _fail("initial x is not on the ellipsoid boundary (OffBoundary)")
        if float(ell.conormal(x) @ v) >= 0.0:
            _fail("initial v is not inward (NotInward)")
        return RayState(x, v)


def cmd_simulate(doc: dict, out_dir: Path, seed_override, tol_overrides: dict) -> int:
    cfg = RunConfig.from_doc(doc, seed_override, tol_overrides)
    tols = cfg.tolerances
    ell, sig = cfg.geometry()

    try:
        fam = confocal.ConfocalFamily(ell, sig) if cfg.record_tangency else None
        billiard._integral_denominators(ell, sig)
        state = cfg.initial_state(ell, sig)
    except ResonantAxes as exc:
        _fail(f"ResonantAxes: {exc}")

    record = billiard.run_orbit(
        state,
        cfg.bounces,
        ell,
        sig,
        fam=fam,
        boundary_tol=tols["boundary"],
        grazing_tol=tols["grazing"],
        null_normal_tol=tols["null_normal"],
    )

    quarantined = record.aborted
    mismatch_reason = None
    try:
        report = (
            verify.drift_report(record, lambda_tol=tols["drift"])
            if record.bounce_count >= 1
            else None
        )
    except TangencyCountChanged as exc:
        report = None
        quarantined = True
        mismatch_reason = str(exc)
    if report is not None and report.lambda_mismatch:
        quarantined = True
        mismatch_reason = (
            f"tangency parameters drift {report.lambda_drift:.3e} at bounce "
            f"{report.lambda_worst_bounce}, above 10 x the drift tolerance {tols['drift']:.3e}"
        )

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
    lines = [",".join(header)]
    # repr of the Python floats from tolist() is the text of _fmt on each cell.
    table = np.column_stack([record.xs, record.vs, record.h, record.f]).tolist()
    for idx, cells in enumerate(table):
        row = [str(idx), *map(repr, cells)]
        if record.tangency:
            lams = list(record.tangency[idx].lambdas)[:lam_count]
            row += [_fmt(c) for c in lams] + [""] * (lam_count - len(lams))
        lines.append(",".join(row))

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "orbit.csv", lines)
    summary = {
        "bounces_requested": cfg.bounces,
        "bounces_completed": record.bounce_count,
        "aborted": record.abort_reason,
        "abort_bounce": record.abort_bounce,
        "tangency_mismatch": mismatch_reason,
        "drift": report.to_dict() if report is not None else None,
        "h_initial": float(record.h[0]),
        "seed": cfg.seed,
    }
    _write_json(out_dir / "summary.json", summary)
    return EXIT_DEGENERATE if quarantined else EXIT_OK


# ------------------------------------------------------------------ commute


def cmd_commute(doc: dict, out_dir: Path, seed_override, tol_overrides: dict, wrong_metric: bool) -> int:
    _check_keys(
        doc,
        {"signature", "axes", "samples", "seed", "tolerances", "out"},
        {"signature", "axes", "samples"},
        "config",
    )
    sig = _signature(doc)
    ell = _ellipsoid(doc, sig)
    tols = _tolerances(doc, tol_overrides)
    samples = _positive_int(doc, "samples", "config")
    seed = _seed(doc, seed_override)

    try:
        reports = verify.commutation_sweep(ell, sig, samples, seed, wrong_metric=wrong_metric)
    except ResonantAxes as exc:
        _fail(f"ResonantAxes: {exc}")

    worst = max(r.max_normalized for r in reports)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "brackets.json", [r.to_dict() for r in reports])
    return EXIT_OK if worst <= tols["bracket"] else EXIT_TOLERANCE


# --------------------------------------------------------------------- oval


def _oval_table(doc: dict) -> lorentz_oval.OvalCurve:
    _check_keys(
        doc,
        {"kind", "semi_axes", "center", "form", "base", "bumps"},
        {"kind"},
        "oval.table",
    )
    kind = doc["kind"]
    center = _numbers(doc.get("center", [0.0, 0.0]), "oval.table.center", 2)
    try:
        if kind == "ellipse":
            if "semi_axes" not in doc:
                _fail("oval.table of kind 'ellipse' needs semi_axes")
            a, b = _numbers(doc["semi_axes"], "oval.table.semi_axes", 2)
            return lorentz_oval.EllipseOval.axis_aligned(a, b, center)
        if kind == "ellipse_form":
            if "form" not in doc:
                _fail("oval.table of kind 'ellipse_form' needs form")
            rows = doc["form"]
            if not isinstance(rows, list) or len(rows) != 2:
                _fail(f"oval.table.form must be a 2x2 list of numbers, got {rows!r}")
            form = [_numbers(row, "oval.table.form", 2) for row in rows]
            return lorentz_oval.EllipseOval(np.array(form), center)
        if kind == "radial":
            if "base" not in doc:
                _fail("oval.table of kind 'radial' needs base")
            base = _oval_table(doc["base"])
            if not isinstance(base, lorentz_oval.EllipseOval):
                _fail("radial base must be an ellipse table")
            bumps = doc.get("bumps", [])
            if not isinstance(bumps, list):
                _fail(f"oval.table.bumps must be a list, got {bumps!r}")
            bumps = tuple(
                lorentz_oval.RadialBump(*_numbers(b, "oval.table.bumps entry", 4)) for b in bumps
            )
            return lorentz_oval.RadialOval(base, bumps)
    except ValueError as exc:
        _fail(f"invalid oval.table: {exc}")
    except ConvexityViolation as exc:
        _fail(f"ConvexityViolation: {exc}")
    _fail(f"unknown oval.table kind {kind!r}")


def _table_to_doc(curve: lorentz_oval.OvalCurve) -> dict:
    if isinstance(curve, lorentz_oval.RadialOval):
        return {
            "kind": "radial",
            "base": _table_to_doc(curve.base),
            "bumps": [
                [b.anchor, b.value, b.tilt, b.halfwidth] for b in curve.bumps
            ],
        }
    if isinstance(curve, lorentz_oval.EllipseOval):
        return {
            "kind": "ellipse_form",
            "form": [list(map(float, row)) for row in curve.form],
            "center": list(map(float, curve.center)),
        }
    raise TypeError(f"cannot serialize table of type {type(curve).__name__}")


def _load_polygon(spec: dict, base_dir: Path) -> lorentz_oval.NullPolygon:
    if "polygon" in spec:
        doc = spec["polygon"]
    else:
        path = base_dir / spec["polygon_file"]
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _fail(f"cannot read polygon file: {exc}")
    _check_keys(doc, {"points", "slopes"}, {"points", "slopes"}, "polygon")
    try:
        return lorentz_oval.NullPolygon(
            np.asarray(doc["points"], dtype=float), tuple(float(t) for t in doc["slopes"])
        )
    except ValueError as exc:
        _fail(f"invalid polygon: {exc}")


def cmd_oval(doc: dict, mode: str, out_dir: Path, config_dir: Path) -> int:
    _check_keys(doc, {"oval", "seed", "out"}, {"oval"}, "config")
    spec = doc["oval"]
    allowed = {
        "iterate": {"table", "start", "steps"},
        "periodic": {"table", "half_period", "seed_param"},
        "synth": {"polygon", "polygon_file", "periods"},
    }[mode]
    required = {
        "iterate": {"table", "start", "steps"},
        "periodic": {"table", "half_period", "seed_param"},
        "synth": set(),
    }[mode]
    _check_keys(spec, allowed, required, "oval")
    out_dir.mkdir(parents=True, exist_ok=True)

    if mode == "iterate":
        curve = _oval_table(spec["table"])
        steps = _positive_int(spec, "steps", "oval")
        theta = _number(spec["start"], "oval.start")
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
        curve = _oval_table(spec["table"])
        half_period = _positive_int(spec, "half_period", "oval", minimum=2)
        try:
            poly = lorentz_oval.find_periodic_orbit(
                curve, half_period, _number(spec["seed_param"], "oval.seed_param")
            )
            v_formula = lorentz_oval.acceleration_factor(poly)
            v_sim = lorentz_oval.simulate_speed(curve, poly)
            deriv = lorentz_oval.return_map_derivative(curve, poly)
        except (NoConvergence, ZeroSlope, DegenerateChord) as exc:
            print(f"oval periodic failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        _write_json(
            out_dir / "polygon.json",
            {
                "points": [[float(c) for c in p] for p in poly.points],
                "slopes": list(poly.slopes),
                "acceleration_factor": v_formula,
                "acceleration_factor_abs": abs(v_formula),
                "simulated_factor": v_sim,
                "return_derivative_abs": abs(deriv),
            },
        )
        return EXIT_OK

    # synth
    poly = _load_polygon(spec, config_dir)
    periods = spec.get("periods", 1)
    if not isinstance(periods, int) or isinstance(periods, bool) or periods < 1:
        _fail("oval.periods must be a positive integer")
    try:
        curve = lorentz_oval.build_accelerating_table(poly.points, poly.slopes)
    except (InfeasibleSlopes, ConvexityViolation, ZeroSlope) as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    rebuilt = lorentz_oval.polygon_from_parameter(
        curve,
        float(lorentz_oval.polygon_params(curve, poly)[-1]),
        poly.half_period,
    )
    v_formula = lorentz_oval.acceleration_factor(rebuilt)
    v_sim = lorentz_oval.simulate_speed(curve, rebuilt)
    speed, closure = lorentz_oval.simulate_periods(curve, rebuilt, periods)
    _write_json(out_dir / "table.json", _table_to_doc(curve))
    _write_json(
        out_dir / "synth_report.json",
        {
            "target_factor": lorentz_oval.acceleration_factor(poly),
            "formula_factor": v_formula,
            "simulated_factor": v_sim,
            "periods": periods,
            "speed_after_periods": speed,
            "closure_defect": closure,
        },
    )
    return EXIT_OK


# -------------------------------------------------------------- family-plot


def cmd_family_plot(doc: dict, out_dir: Path) -> int:
    _check_keys(
        doc,
        {"signature", "axes", "family", "out"},
        {"signature", "axes", "family"},
        "config",
    )
    sig = _signature(doc)
    ell = _ellipsoid(doc, sig)
    if ell.dim != 2:
        _fail("family-plot draws plane conics; need dimension 2")
    spec = doc["family"]
    _check_keys(spec, {"lambdas", "count", "points", "span"}, set(), "family")
    points = spec.get("points", 256)
    if not isinstance(points, int) or isinstance(points, bool) or points < 8:
        _fail("family.points must be an integer >= 8")
    fam = confocal.ConfocalFamily(ell, sig)

    if "lambdas" in spec:
        lambdas = _numbers(spec["lambdas"], "family.lambdas")
    else:
        count = spec.get("count", 7)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            _fail("family.count must be a positive integer")
        span = _number(spec.get("span", 1.5), "family.span") * float(np.max(ell.a2))
        lambdas = list(np.linspace(-span, span, count))

    lines = ["member,lambda,status,branch,x,y"]
    for idx, lam in enumerate(lambdas):
        try:
            q = confocal.member(fam, lam)
        except PoleParameter:
            lines.append(f"{idx},{_fmt(lam)},pole-skipped,,,")
            continue
        c1, c2 = float(q.c[0]), float(q.c[1])
        if c1 > 0 and c2 > 0:
            ts = np.linspace(0.0, 2.0 * np.pi, points)
            xs = np.sqrt(c1) * np.cos(ts)
            ys = np.sqrt(c2) * np.sin(ts)
            for x, y in zip(xs, ys):
                lines.append(f"{idx},{_fmt(lam)},ok,0,{_fmt(x)},{_fmt(y)}")
        elif c1 * c2 < 0:
            ts = np.linspace(-3.0, 3.0, points)
            for branch in (0, 1):
                sign = 1.0 if branch == 0 else -1.0
                if c1 > 0:
                    xs = sign * np.sqrt(c1) * np.cosh(ts)
                    ys = np.sqrt(-c2) * np.sinh(ts)
                else:
                    xs = np.sqrt(-c1) * np.sinh(ts)
                    ys = sign * np.sqrt(c2) * np.cosh(ts)
                for x, y in zip(xs, ys):
                    lines.append(f"{idx},{_fmt(lam)},ok,{branch},{_fmt(x)},{_fmt(y)}")
        else:
            lines.append(f"{idx},{_fmt(lam)},empty,,,")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "family.csv", lines)
    return EXIT_OK


# --------------------------------------------------------------------- main


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebilliards",
        description="Pseudo-Euclidean ellipsoid billiards: simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: config or '.')")
        p.add_argument("--tol-boundary", type=float, default=None)
        p.add_argument("--tol-grazing", type=float, default=None)
        p.add_argument("--tol-null-normal", type=float, default=None)
        p.add_argument("--tol-drift", type=float, default=None)
        p.add_argument("--tol-bracket", type=float, default=None)

    common(sub.add_parser("simulate", help="run a billiard orbit and record invariants"))
    pc = sub.add_parser("commute", help="Poisson-bracket sweep of the quadratic integrals")
    common(pc)
    pc.add_argument(
        "--debug-flip-metric",
        action="store_true",
        help="negative control: break the metric adapter on purpose",
    )
    po = sub.add_parser("oval", help="plane light-like billiard experiments")
    po.add_argument("mode", choices=["iterate", "periodic", "synth"])
    common(po)
    common(sub.add_parser("family-plot", help="polyline samples of the confocal family"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tol_overrides = {
        "boundary": args.tol_boundary,
        "grazing": args.tol_grazing,
        "null_normal": args.tol_null_normal,
        "drift": args.tol_drift,
        "bracket": args.tol_bracket,
    }
    try:
        doc = load_config(args.config)
        out_dir = Path(args.out or doc.get("out") or ".")
        config_dir = Path(args.config).resolve().parent
        if args.command == "simulate":
            return cmd_simulate(doc, out_dir, args.seed, tol_overrides)
        if args.command == "commute":
            return cmd_commute(doc, out_dir, args.seed, tol_overrides, args.debug_flip_metric)
        if args.command == "oval":
            return cmd_oval(doc, args.mode, out_dir, config_dir)
        if args.command == "family-plot":
            return cmd_family_plot(doc, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PEBilliardsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

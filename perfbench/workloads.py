"""The benchmark's four workloads: CLI operations generated from a seed, with checks.

Each builder returns the operations of one round.  A round is run again
and again for the length of a run, always with the same inputs, so every
round attempts the same operations and the share that fails is the same in
every run.  Checks compare the program's output files with the reference
computations in `oracle.py` or with properties the method must have.
"""

from __future__ import annotations

import csv
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

#: Relative drift of H or F_k above which an orbit counts as hit by the
#: conservation fault of the extended-precision recorder (see README.md).
DRIFT_LIMIT = 1e-9

#: |<v,v>| / |v|^2 above which a light-like orbit has stopped being light-like
#: (the program's own light-like tolerance); the same fault breaks it.
NULL_LIMIT = 1e-10

#: Light-like orbits that the drift fault hits on every run: (signature,
#: sample_null_ray seed).  Their inputs do not depend on the benchmark seed,
#: so they fail in every round of every run.  Orbits drawn from the seed
#: cross the limits on some seeds only (0-5 of 16); failing them would make
#: the failed share differ from seed to seed, and runs on different seeds
#: must fail the same share.  They are counted in billiard.drift_over_1e-9
#: and printed by every run instead.
DRIFT_FAULT_ORBITS = (((2, 1), 22), ((2, 1), 12), ((3, 1), 616083960))

#: Semi-axes per signature (p, q), as in the acceptance suite.
BASE_AXES = {
    (1, 1): (2.0, 1.0),
    (2, 1): (3.0, 2.0, 1.0),
    (3, 1): (4.0, 3.0, 2.0, 1.0),
    (2, 2): (4.0, 3.0, 2.0, 1.0),
    (3, 0): (3.0, 2.0, 1.0),
}
NULL_AXES = {sig: BASE_AXES[sig] for sig in ((2, 1), (2, 2), (3, 1), (1, 1))}


@dataclass
class Op:
    """One CLI invocation of a round and how to judge its output."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[int, Path], list[str]]
    known_fault: str | None = None
    prepare: Callable[[], None] | None = None


def _write_config(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _op(work: Path, index: int, command: list[str], doc, check, **kw) -> Op:
    """An operation whose config is written now (dict) or just before its first run (callable)."""
    cfg = work / f"op{index:03d}.json"
    out = work / f"op{index:03d}"
    prepare = None
    if callable(doc):
        prepare = lambda: _write_config(cfg, doc())  # noqa: E731
    else:
        _write_config(cfg, doc)
    argv = command + ["--config", str(cfg), "--out", str(out)]
    return Op(f"{' '.join(command)} #{index}", argv, out, check, prepare=prepare, **kw)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _exit(rc: int, want: int = 0) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def _axes(rng, base) -> list[float]:
    """Base semi-axes jittered by up to 10%, which keeps them distinct and ordered."""
    return [float(a * rng.uniform(0.9, 1.1)) for a in base]


def _boundary_start(rng, axes, e, kind: str):
    """A boundary point and an inward direction of the given causal kind."""
    a = np.array(axes)
    p = int(np.sum(e > 0))
    while True:
        s = rng.standard_normal(len(a))
        x = a * s / np.linalg.norm(s)
        if kind == "null":
            alpha, beta = rng.standard_normal(p), rng.standard_normal(len(a) - p)
            v = np.concatenate([alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta)])
        else:
            v = rng.standard_normal(len(a))
            ratio = float(np.sum(e * v * v) / (v @ v))
            if (kind == "space" and ratio < 0.1) or (kind == "time" and ratio > -0.1):
                continue
        axv = float((x / a**2) @ v)
        if axv > 0:
            v, axv = -v, -axv
        if axv < -0.02 * np.linalg.norm(x / a**2) * np.linalg.norm(v):
            return [float(c) for c in x], [float(c) for c in v]


# ------------------------------------------------------------ tangency-survey

TANGENCY_STARTS = 3
TANGENCY_BOUNCES = 3

#: Starts on which `confocal.tangency_parameters` reports spurious roots
#: clustered at a pole of Q by the third bounce, so `simulate` exits 2 with
#: "tangency parameter count varies along the orbit": (signature, semi-axes,
#: x, v).  Their inputs do not depend on the benchmark seed, so they fail in
#: every round of every run.  Starts drawn from the seed that hit the same
#: fault (about 1 in 1200) are redrawn: failing them would make the failed
#: share differ from seed to seed.
TANGENCY_FAULT_STARTS = (
    (
        (2, 2),
        [3.7981886487781193, 2.907018083036185, 2.027240396324434, 1.036652428465255],
        [2.0935089737248367, -0.5716237372859501, 0.5508520114129984, -0.7920008930439514],
        [-0.8560249513974907, 0.5169345051212229, 0.1972033853309011, 0.9803625986409478],
    ),
    (
        (1, 1),
        [2.042286444944871, 0.9171322321587713],
        [0.8965711546740063, 0.8240298195831287],
        [1.865984443577984, -0.6179552347830143],
    ),
)

#: Multiple of `oracle.root_rounding_bound` a recorded tangency parameter may
#: differ by, on top of 1e-10 relative: the program's own rounding of the
#: state it records, its arithmetic and the reference's float64 roots.
ROOT_ROUNDING_FACTOR = 8


def _tangency_doc(sig, axes, x, v) -> dict:
    return {
        "signature": list(sig),
        "axes": list(axes),
        "initial": {"x": list(x), "v": list(v)},
        "bounces": TANGENCY_BOUNCES,
        "record_tangency": True,
    }


def _hits_tangency_fault(work: Path, doc: dict) -> bool:
    """Whether the program reports a tangency mismatch on this start."""
    from pebilliards import cli

    cfg, out = work / "screen.json", work / "screen"
    _write_config(cfg, doc)
    shutil.rmtree(out, ignore_errors=True)
    try:
        cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        hit = bool(_read_json(out / "summary.json")["tangency_mismatch"])
    except Exception:  # any other failure is left for the round to judge
        hit = False
    shutil.rmtree(out, ignore_errors=True)
    cfg.unlink()
    return hit


def _check_tangency(axes, sig, kind, bounces, fault: bool = False):
    a2 = np.array(axes) ** 2
    e = oracle.signs(*sig)
    d = len(axes)
    want = d - 2 if kind == "null" else d - 1

    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        summary = _read_json(out / "summary.json")
        if summary["bounces_completed"] != bounces or summary["aborted"]:
            problems.append(f"orbit stopped: {summary['aborted']}")
        if summary["tangency_mismatch"] or summary["drift"]["lambda_mismatch"]:
            problems.append("summary reports a tangency mismatch")
        header, rows = _read_csv(out / "orbit.csv")
        lam_cols = [i for i, h in enumerate(header) if h.startswith("lam")]
        if len(lam_cols) != want:
            problems.append(f"{len(lam_cols)} tangency parameters, expected {want} for a {kind} ray")
        for row in rows:
            vals = np.array([float(c) for c in row[1 : 1 + 2 * d]])
            x, v = vals[:d], vals[d:]
            mine = oracle.tangency_roots(x, v, a2, e, kind == "null")
            theirs = np.array([float(row[i]) for i in lam_cols])
            if len(mine) != len(theirs):
                problems.append(f"row {row[0]}: {len(theirs)} parameters, Q has {len(mine)} real roots")
                continue
            allowed = 1e-10 * np.maximum(np.abs(mine), a2.max())
            if len(mine):
                allowed = allowed + ROOT_ROUNDING_FACTOR * oracle.root_rounding_bound(x, v, a2, e, kind == "null", mine)
            if np.any(np.abs(theirs - mine) > allowed):
                problems.append(f"row {row[0]}: parameters {theirs} differ from roots of Q {mine}")
        if fault and summary["tangency_mismatch"]:
            problems = [f"tangency fault: {p}" for p in problems]
        return problems

    return check


def tangency_survey(seed: int, work: Path, stats: Counter) -> list[Op]:
    """Short simulate runs recording tangency, over five signatures and three causal kinds,
    plus the fixed starts that hit the tangency fault."""
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []
    for sig, base in BASE_AXES.items():
        kinds = ("null", "space", "time") if sig[1] > 0 else ("space",)
        for kind in kinds:
            for _ in range(TANGENCY_STARTS):
                while True:
                    axes = _axes(rng, base)
                    doc = _tangency_doc(sig, axes, *_boundary_start(rng, axes, oracle.signs(*sig), kind))
                    if not _hits_tangency_fault(work, doc):
                        break
                check = _check_tangency(axes, sig, kind, TANGENCY_BOUNCES)
                ops.append(_op(work, len(ops), ["simulate"], doc, check))
    for sig, axes, x, v in TANGENCY_FAULT_STARTS:
        check = _check_tangency(axes, sig, "null", TANGENCY_BOUNCES, fault=True)
        ops.append(
            _op(work, len(ops), ["simulate"], _tangency_doc(sig, axes, x, v), check, known_fault="tangency fault")
        )
    return ops


# -------------------------------------------------------------- null-ensemble

NULL_ORBITS_PER_SIGNATURE = 4
NULL_BOUNCES = 1000


def _null_orbit_figures(vals: np.ndarray, a2: np.ndarray, e: np.ndarray) -> dict[str, float]:
    """Worst per-row defects of a recorded orbit (rows: index, x, v, H, F).

    Entries ending in "tolerance" are ratios to their tolerance (above 1
    fails).  "drift" is the worst relative drift of H or any F_k from row 0
    (absolute where the initial value is below 1e-8, as in the program's
    drift report) and "null defect" the worst |<v,v>| / |v|^2.
    """
    d = len(a2)
    x, v = vals[:, 1 : 1 + d], vals[:, 1 + d : 1 + 2 * d]
    h, f = vals[:, 1 + 2 * d], vals[:, 2 + 2 * d :]
    vv = np.sum(e * v * v, axis=1)
    v2 = np.sum(v * v, axis=1)
    own_f, size = oracle.integrals(x, v, a2, e)
    own_h = np.sum(x * v / a2, axis=1)
    ratios = {
        "boundary defect / tolerance": np.abs(np.sum(x * x / a2, axis=1) - 1.0) / 1e-10,
        "sum rule defect / tolerance": np.abs(f.sum(axis=1) - vv)
        / (1e-12 * np.maximum(1.0, v2 + np.abs(f).sum(axis=1))),
        "F_k - own F_k / tolerance": np.max(
            np.abs(f - own_f.astype(float)) / (1e-12 * np.maximum(1.0, size.astype(float))), axis=1
        ),
        "H - own H / tolerance": np.abs(h - own_h)
        / (1e-12 * np.maximum(1.0, np.sum(np.abs(x * v) / a2, axis=1))),
    }
    figures = {name: float(np.max(r)) for name, r in ratios.items()}
    drift = 0.0
    for series in [h] + list(f.T):
        dev = np.abs(series - series[0])
        if abs(series[0]) > 1e-8:
            dev = dev / abs(series[0])
        drift = max(drift, float(dev.max()))
    figures["drift"] = drift
    figures["null defect"] = float(np.max(np.abs(vv) / v2))
    return figures


def _check_null_orbit(axes, sig, stats: Counter, fault: bool):
    a2 = np.array(axes) ** 2
    e = oracle.signs(*sig)
    d = len(axes)

    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        summary = _read_json(out / "summary.json")
        if summary["bounces_completed"] != NULL_BOUNCES or summary["aborted"]:
            problems.append(f"orbit stopped at bounce {summary['bounces_completed']}: {summary['aborted']}")
        header, rows = _read_csv(out / "orbit.csv")
        if len(header) != 1 + 3 * d + 1 or len(rows) != summary["bounces_completed"] + 1:
            return problems + ["orbit.csv has the wrong shape"]
        figures = _null_orbit_figures(np.array(rows, dtype=float), a2, e)
        for name, value in figures.items():
            if name.endswith("tolerance") and value > 1.0:
                problems.append(f"{name} = {value:.3g}")
        drift, null = figures["drift"], figures["null defect"]
        if drift > DRIFT_LIMIT or null > NULL_LIMIT:
            stats["drift_over_1e-9"] += 1
            if fault:
                problems.append(f"drift fault: drift {drift:.3e}, |<v,v>|/|v|^2 {null:.3e}")
        return problems

    return check


def null_ensemble(seed: int, work: Path, stats: Counter) -> list[Op]:
    """1000-bounce light-like orbits from sample_null_ray, tangency off, plus the fault orbits."""
    rng = np.random.default_rng([seed, 2])
    starts = [
        (sig, int(rng.integers(0, 2**31)), False)
        for sig in NULL_AXES
        for _ in range(NULL_ORBITS_PER_SIGNATURE)
    ]
    starts += [(sig, orbit_seed, True) for sig, orbit_seed in DRIFT_FAULT_ORBITS]
    ops: list[Op] = []
    for sig, orbit_seed, fault in starts:
        axes = NULL_AXES[sig]
        doc = {
            "signature": list(sig),
            "axes": list(axes),
            "initial": {"sample_null": True},
            "bounces": NULL_BOUNCES,
            "seed": orbit_seed,
            "record_tangency": False,
        }
        check = _check_null_orbit(axes, sig, stats, fault)
        ops.append(
            _op(work, len(ops), ["simulate"], doc, check, known_fault="drift fault" if fault else None)
        )
    return ops


# ------------------------------------------------------------------ null-ovals

SYNTH_PATTERNS = 5
SYNTH_PERIODS = 3
OVAL_STEPS = 10


def _slope_product(slopes) -> float:
    t = np.asarray(slopes, dtype=float)
    return float(np.prod(t[1::2]) / np.prod(t[0::2]))


def _check_synth(points, slopes):
    target = _slope_product(slopes)
    pts = np.array(points)

    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        rep = _read_json(out / "synth_report.json")
        if abs(rep["target_factor"] - target) > 1e-12 * target:
            problems.append(f"target factor {rep['target_factor']} != slope product {target}")
        for key in ("formula_factor", "simulated_factor"):
            if abs(rep[key] - target) > 1e-8:
                problems.append(f"{key} {rep[key]} differs from slope product {target}")
        want = target**SYNTH_PERIODS
        if abs(rep["speed_after_periods"] - want) > 1e-6 * want:
            problems.append(f"speed after {SYNTH_PERIODS} periods {rep['speed_after_periods']} != {want}")
        table = oracle.Table(_read_json(out / "table.json"))
        scale = max(1.0, float(np.max(np.abs(pts))))
        if np.max(np.abs(table.off_curve(pts))) > 1e-9 * scale:
            problems.append("table does not pass through the polygon vertices")
        rel = pts - table.center
        own = table.slope(np.arctan2(rel[:, 1], rel[:, 0]))
        if np.max(np.abs(own - slopes) / np.abs(slopes)) > 1e-7:
            problems.append(f"table slopes at the vertices {own} differ from the targets {slopes}")
        return problems

    return check


def _check_periodic(table_doc: Callable[[], dict], n: int, target: float | None):
    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        table = oracle.Table(table_doc())
        poly = _read_json(out / "polygon.json")
        pts = np.array(poly["points"])
        slopes = np.array(poly["slopes"])
        if pts.shape != (2 * n, 2):
            return problems + [f"polygon has shape {pts.shape}, expected {(2 * n, 2)}"]
        scale = max(1.0, float(np.max(np.abs(pts))))
        for j in range(2 * n):
            shared = 1 if j % 2 == 0 else 0
            if abs(pts[j, shared] - pts[(j + 1) % (2 * n), shared]) > 1e-9 * scale:
                problems.append(f"chord {j + 1} does not keep coordinate {shared}")
        if np.max(np.abs(table.off_curve(pts))) > 1e-9 * scale:
            problems.append("polygon vertices are off the table")
        rel = pts - table.center
        own = table.slope(np.arctan2(rel[:, 1], rel[:, 0]))
        if np.max(np.abs(own - slopes) / np.abs(own)) > 1e-7:
            problems.append("reported slopes differ from the table's tangents")
        v = abs(_slope_product(slopes))
        if abs(poly["acceleration_factor_abs"] - v) > 1e-12 * v or abs(abs(poly["simulated_factor"]) - v) > 1e-8 * v:
            problems.append(f"acceleration factor {poly['acceleration_factor_abs']} != slope product {v}")
        if target is not None and abs(v - target) > 1e-6 * target:
            problems.append(f"factor {v} differs from the synthesized target {target}")
        deriv = poly["return_derivative_abs"]
        if min(abs(deriv - v), abs(deriv - 1.0 / v)) > 1e-6 * max(1.0, v):
            problems.append(f"|D| = {deriv} is neither v = {v} nor 1/v")
        if (abs(v - 1.0) <= 1e-6) != (abs(deriv - 1.0) <= 1e-6):
            problems.append(f"|D| = {deriv} breaks the stability dichotomy at v = {v}")
        return problems

    return check


def _check_iterate(table_doc: Callable[[], dict], period: int | None):
    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        table = oracle.Table(table_doc())
        header, rows = _read_csv(out / "oval_orbit.csv")
        if header != ["step", "param", "x", "y"] or len(rows) != OVAL_STEPS + 1:
            return problems + ["oval_orbit.csv has the wrong shape"]
        vals = np.array(rows, dtype=float)
        theta, pts = vals[:, 1], vals[:, 2:]
        scale = max(1.0, float(np.max(np.abs(pts))))
        r, _ = table.radius(theta)
        param_pts = table.center + r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        if np.max(np.abs(param_pts - pts)) > 1e-9 * scale:
            problems.append("points do not match their parameters on the table")
        # One oval_map is a vertical chord then a horizontal one: the corner
        # (x_k, y_{k+1}) between consecutive rows lies on the table too.
        corners = np.stack([pts[:-1, 0], pts[1:, 1]], axis=1)
        if np.max(np.abs(table.off_curve(np.vstack([pts, corners])))) > 1e-9 * scale:
            problems.append("orbit points or chord corners are off the table")
        if period is not None and np.max(np.abs(pts[period:] - pts[:-period])) > 1e-9 * scale:
            problems.append(f"orbit does not repeat every {period} steps")
        return problems

    return check


def null_ovals(seed: int, work: Path, stats: Counter) -> list[Op]:
    """oval synth/periodic/iterate on accelerating tables, periodic/iterate on ellipses."""
    rng = np.random.default_rng([seed, 3])
    ops: list[Op] = []

    def add(command, doc, check):
        ops.append(_op(work, len(ops), command, doc, check))

    for pattern in range(SYNTH_PATTERNS):
        half = float(rng.uniform(0.5, 2.0))
        cx, cy = (float(c) for c in rng.uniform(-1.0, 1.0, 2))
        points = [[cx + half, cy + half], [cx - half, cy + half], [cx - half, cy - half], [cx + half, cy - half]]
        if pattern == 0:
            # Factor 1 on a table that is not a circle.  Its periodic orbit is
            # parabolic (|D| = 1), so Newton starts on the closing vertex.  The
            # symmetric (-1, 1, -1, 1) would give a near-circle, on which oval
            # synth crashes for some squares (see CHANGES.md).
            slopes = [-1.0, 2.0, -2.0, 1.0]
            offset = 0.0
        else:
            t = float(rng.uniform(1.1, 2.0))
            slopes = [-1.0, t, -1.0, t]
            offset = float(rng.uniform(0.01, 0.05) * rng.choice([-1.0, 1.0]))
        synth_out = work / f"op{len(ops):03d}"
        doc = {"oval": {"polygon": {"points": points, "slopes": slopes}, "periods": SYNTH_PERIODS}}
        add(["oval", "synth"], doc, _check_synth(points, slopes))

        def table_doc(path=synth_out / "table.json"):
            return _read_json(path)

        start = float(rng.uniform(0.0, 2.0 * np.pi))

        def periodic_doc(table_doc=table_doc, points=points, offset=offset):
            table = oracle.Table(table_doc())
            last = np.array(points[-1]) - table.center
            seed_param = float(np.arctan2(last[1], last[0]) % (2 * np.pi)) + offset
            return {"oval": {"table": table_doc(), "half_period": 2, "seed_param": seed_param}}

        def iterate_doc(table_doc=table_doc, start=start):
            return {"oval": {"table": table_doc(), "start": start, "steps": OVAL_STEPS}}

        add(["oval", "periodic"], periodic_doc, _check_periodic(table_doc, 2, _slope_product(slopes)))
        add(["oval", "iterate"], iterate_doc, _check_iterate(table_doc, None))

    ellipses = []
    for _ in range(2):
        a, b = (float(s) for s in rng.uniform(0.5, 2.0, 2))
        center = [float(c) for c in rng.uniform(-1.0, 1.0, 2)]
        ellipses.append(({"kind": "ellipse", "semi_axes": [a, b], "center": center}, 2))
    for n in (3, 4):
        a, b = (float(s) for s in rng.uniform(0.5, 2.0, 2))
        center = [float(c) for c in rng.uniform(-1.0, 1.0, 2)]
        ellipses.append(({"kind": "ellipse_form", "form": oracle.tilted_form(a, b, n), "center": center}, n))
    a, b = (float(s) for s in rng.uniform(0.5, 2.0, 2))
    m = float(rng.uniform(-0.9, 0.9)) / (a * b)
    generic = {"kind": "ellipse_form", "form": [[1 / a**2, m], [m, 1 / b**2]], "center": [0.0, 0.0]}
    for table, n in ellipses:
        getter = lambda table=table: table  # noqa: E731
        start = float(rng.uniform(0.0, 2.0 * np.pi))
        periodic = {"oval": {"table": table, "half_period": n, "seed_param": start}}
        add(["oval", "periodic"], periodic, _check_periodic(getter, n, None))
        iterate = {"oval": {"table": table, "start": start, "steps": OVAL_STEPS}}
        add(["oval", "iterate"], iterate, _check_iterate(getter, n))
    iterate = {"oval": {"table": generic, "start": float(rng.uniform(0.0, 2.0 * np.pi)), "steps": OVAL_STEPS}}
    add(["oval", "iterate"], iterate, _check_iterate(lambda: generic, None))
    return ops


# ------------------------------------------------------------- integral-sweeps

SWEEP_SIGNATURES = {sig: axes for sig, axes in BASE_AXES.items() if sig[1] > 0}
MODERATE_SWEEPS = 8
MODERATE_SAMPLES = 20_000
LARGE_SAMPLES = 500_000
FAMILY_PLOTS = 3
FAMILY_POINTS = 256


def _check_commute(axes, sig, samples):
    a2 = np.array(axes) ** 2
    e = oracle.signs(*sig)
    d = len(axes)
    pairs = [[j, k] for j in range(d) for k in range(j + 1, d)]

    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        reports = _read_json(out / "brackets.json")
        if [r["pair"] for r in reports] != pairs:
            return problems + [f"pairs {[r['pair'] for r in reports]}, expected {pairs}"]
        for r in reports:
            if r["samples"] != samples or not 0.0 <= r["max_normalized"] <= 1e-10:
                problems.append(f"pair {r['pair']}: {r['samples']} samples, worst {r['max_normalized']}")
            own = oracle.normalized_bracket(r["worst_x"], r["worst_v"], a2, e, *r["pair"])
            if own > 1e-12:
                problems.append(f"pair {r['pair']}: own bracket {own:.3e} at the reported worst point")
        return problems

    return check


def _check_family(axes, lambdas):
    a2 = np.array(axes) ** 2
    e = oracle.signs(1, 1)
    poles = -e * a2

    def check(rc: int, out: Path) -> list[str]:
        problems = _exit(rc)
        header, rows = _read_csv(out / "family.csv")
        by_member: dict[int, list[list[str]]] = {}
        for row in rows:
            by_member.setdefault(int(row[0]), []).append(row)
        for idx, lam in enumerate(lambdas):
            member = by_member.get(idx, [])
            c = a2 + e * lam
            if np.min(np.abs(poles - lam)) <= 1e-7 * a2.max():
                want = ("pole-skipped", 1)
            elif c[0] > 0 and c[1] > 0:
                want = ("ok", FAMILY_POINTS)
            elif c[0] * c[1] < 0:
                want = ("ok", 2 * FAMILY_POINTS)
            else:
                want = ("empty", 1)
            got = ({r[2] for r in member}, len(member))
            if got != ({want[0]}, want[1]):
                problems.append(f"member {idx} (lambda {lam}): {got}, expected {want}")
                continue
            if want[0] == "ok":
                xy = np.array([[float(r[4]), float(r[5])] for r in member])
                terms = xy * xy / c
                if np.max(np.abs(terms.sum(axis=1) - 1.0) / np.abs(terms).sum(axis=1)) > 1e-12:
                    problems.append(f"member {idx}: points off x^2/c1 + y^2/c2 = 1")
        return problems

    return check


def integral_sweeps(seed: int, work: Path, stats: Counter) -> list[Op]:
    """commute sweeps over four signatures, one large (2,2) sweep, and family-plot."""
    rng = np.random.default_rng([seed, 4])
    ops: list[Op] = []

    def commute(sig, samples):
        axes = _axes(rng, SWEEP_SIGNATURES[sig])
        doc = {"signature": list(sig), "axes": axes, "samples": samples, "seed": int(rng.integers(0, 2**31))}
        ops.append(_op(work, len(ops), ["commute"], doc, _check_commute(axes, sig, samples)))

    for sig in SWEEP_SIGNATURES:
        for _ in range(MODERATE_SWEEPS):
            commute(sig, MODERATE_SAMPLES)
    commute((2, 2), LARGE_SAMPLES)
    for _ in range(FAMILY_PLOTS):
        axes = _axes(rng, (2.0, 1.0))
        lambdas = sorted(float(lam) for lam in rng.uniform(-3 * axes[0] ** 2, 3 * axes[1] ** 2, 5))
        lambdas += [-axes[0] ** 2, axes[1] ** 2]
        doc = {"signature": [1, 1], "axes": axes, "family": {"lambdas": lambdas, "points": FAMILY_POINTS}}
        ops.append(_op(work, len(ops), ["family-plot"], doc, _check_family(axes, lambdas)))
    return ops


WORKLOADS = {
    "tangency-survey": tangency_survey,
    "null-ensemble": null_ensemble,
    "null-ovals": null_ovals,
    "integral-sweeps": integral_sweeps,
}

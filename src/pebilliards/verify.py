"""Numerical witnesses of the integrable structure.

Canonical Poisson brackets of the quadratic integrals, conservation drift
over recorded orbits, and free-flight invariance.  Phase space is (x, p)
with the momentum identified through the metric, p_i = e_i v_i; every
bracket, including those of commutation_sweep, routes through that single
adapter in poisson_bracket, so the sign bookkeeping lives in one place.  In
velocity variables the bracket reads

    {F, G} = sum_i e_i (dF/dx_i dG/dv_i - dF/dv_i dG/dx_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .billiard import OrbitRecord, _integral_denominators, _wedge, integrals_batch
from .pecore import Ellipsoid, Signature

#: |initial value| above which drift is reported relative rather than absolute.
RELATIVE_FLOOR = 1e-8

#: Matching tolerance for tangency parameters along an orbit; drift_report
#: flags a mismatch above 10 times it.
LAMBDA_DRIFT_TOL = 1e-9

#: Largest normalized bracket magnitude a passing commutation sweep may show.
BRACKET_TOL = 1e-10

#: Relative central-difference step of gradient_check.
FD_STEP = 1e-6

#: free_flight_invariance slides base points by up to this many times v.
FREE_FLIGHT_SPAN = 3.0


def moser_gradients_batch(
    xs: np.ndarray, vs: np.ndarray, ell: Ellipsoid, sig: Signature
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of every integral at every sample.

    Returns (gx, gv), each of shape (N, dim, dim): entry [s, k, i] is the
    derivative of F_k with respect to coordinate i at sample s.  The
    integrals are quadratic forms, so these are exact linear expressions.
    """
    d = _integral_denominators(ell, sig)
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    wd = _wedge(xs, vs) / d

    gx = 2.0 * wd * vs[:, :, None]  # d F_k / d x_i, i != k
    gx_kk = -2.0 * np.sum(wd * vs[:, None, :], axis=2)
    idx = np.arange(ell.dim)
    gx[:, idx, idx] = gx_kk

    gv = -2.0 * wd * xs[:, :, None]  # d F_k / d v_i, i != k
    gv_kk = 2.0 * sig.e * vs + 2.0 * np.sum(wd * xs[:, None, :], axis=2)
    gv[:, idx, idx] = gv_kk
    return gx, gv


def poisson_bracket(fx, fv, gx, gv, sig: Signature, wrong_metric: bool = False):
    """Canonical bracket {F, G} from the gradients of F and G in (x, v).

    The gradients are arrays whose last axis is the coordinate index; the
    bracket sums over it, so a batch of points gives a batch of brackets.
    The metric adapter converts velocity gradients to momentum gradients;
    `wrong_metric` replaces it with the identity, a deliberate negative
    control.
    """
    e = np.ones(sig.dim) if wrong_metric else sig.e
    return np.sum(e * (fx * gv - fv * gx), axis=-1)


@dataclass(frozen=True)
class BracketReport:
    """Worst normalized bracket magnitude of one integral pair over a sweep."""

    j: int
    k: int
    samples: int
    max_normalized: float
    worst_x: tuple[float, ...]
    worst_v: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "pair": [self.j, self.k],
            "samples": self.samples,
            "max_normalized": self.max_normalized,
            "worst_x": list(self.worst_x),
            "worst_v": list(self.worst_v),
        }


#: Largest dimension commutation_sweep accepts; the CLI rejects larger configs with it.
MAX_SWEEP_DIM = 6


def commutation_sweep(
    ell: Ellipsoid,
    sig: Signature,
    samples: int,
    seed: int,
    wrong_metric: bool = False,
) -> list[BracketReport]:
    """Normalized |{F_j, F_k}| over random phase points, for every pair.

    Sampling is a single counter-ordered stream from the seed, so results do
    not depend on any parallel execution layout.
    """
    if ell.dim > MAX_SWEEP_DIM:
        raise ValueError(f"dimension {ell.dim} exceeds the sweep maximum {MAX_SWEEP_DIM}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, ell.dim))
    vs = rng.standard_normal((samples, ell.dim))
    gx, gv = moser_gradients_batch(xs, vs, ell, sig)
    norms = np.sqrt(np.sum(gx * gx, axis=2) + np.sum(gv * gv, axis=2))  # (N, dim)

    reports = []
    for j in range(ell.dim):
        for k in range(j + 1, ell.dim):
            br = poisson_bracket(gx[:, j], gv[:, j], gx[:, k], gv[:, k], sig, wrong_metric)
            denom = np.maximum(norms[:, j] * norms[:, k], 1e-300)
            vals = np.abs(br) / denom
            worst = int(np.argmax(vals))
            reports.append(
                BracketReport(
                    j, k, samples, float(vals[worst]),
                    tuple(xs[worst]), tuple(vs[worst]),
                )
            )
    return reports


def gradient_check(ell: Ellipsoid, sig: Signature, samples: int, seed: int) -> float:
    """Max relative disagreement of analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, ell.dim))
    vs = rng.standard_normal((samples, ell.dim))
    gx, gv = moser_gradients_batch(xs, vs, ell, sig)

    worst = 0.0
    d = ell.dim
    for i in range(d):
        hx = FD_STEP * np.maximum(1.0, np.abs(xs[:, i]))[:, None]
        xp, xm = xs.copy(), xs.copy()
        xp[:, i] += hx[:, 0]
        xm[:, i] -= hx[:, 0]
        fd = (integrals_batch(xp, vs, ell, sig) - integrals_batch(xm, vs, ell, sig)) / (2.0 * hx)
        scale = np.maximum(1.0, np.abs(gx[:, :, i]))
        worst = max(worst, float(np.max(np.abs(fd - gx[:, :, i]) / scale)))

        hv = FD_STEP * np.maximum(1.0, np.abs(vs[:, i]))[:, None]
        vp, vm = vs.copy(), vs.copy()
        vp[:, i] += hv[:, 0]
        vm[:, i] -= hv[:, 0]
        fd = (integrals_batch(xs, vp, ell, sig) - integrals_batch(xs, vm, ell, sig)) / (2.0 * hv)
        scale = np.maximum(1.0, np.abs(gv[:, :, i]))
        worst = max(worst, float(np.max(np.abs(fd - gv[:, :, i]) / scale)))
    return worst


@dataclass(frozen=True)
class DriftReport:
    """Per-invariant worst drift along an orbit, measured against bounce 0.

    Drift is relative when the initial value exceeds the relative floor and
    absolute otherwise.  `lambda_mismatch` is the reason the tangency
    parameters fail as a witness of integrability, or None.
    """

    h_drift: float
    h_worst_bounce: int
    f_drift: tuple[float, ...]
    f_worst_bounce: tuple[int, ...]
    lambda_drift: float | None = None
    lambda_worst_bounce: int | None = None
    lambda_mismatch: str | None = None
    aborted: str | None = None

    def to_dict(self) -> dict:
        return {
            "h_drift": self.h_drift,
            "h_worst_bounce": self.h_worst_bounce,
            "f_drift": list(self.f_drift),
            "f_worst_bounce": list(self.f_worst_bounce),
            "lambda_drift": self.lambda_drift,
            "lambda_worst_bounce": self.lambda_worst_bounce,
            "lambda_mismatch": self.lambda_mismatch is not None,
            "aborted": self.aborted,
        }


def _series_drift(values: np.ndarray, floor: float) -> tuple[float, int]:
    ref = float(values[0])
    dev = np.abs(values - ref)
    if abs(ref) > floor:
        dev = dev / abs(ref)
    worst = int(np.argmax(dev))
    return float(dev[worst]), worst


def drift_report(orbit: OrbitRecord) -> DriftReport:
    """Worst drift of H, every F_k, and the tangency parameters over an orbit.

    Tangency parameters are matched against bounce 0 by nearest value
    (greedy).  A mismatch is a change of their count along the orbit, which
    is reported as such rather than absorbed into the numbers, or a drift
    above 10 times LAMBDA_DRIFT_TOL.
    """
    if orbit.bounce_count < 1:
        raise ValueError("drift needs an orbit with at least two recorded states")
    h_drift, h_worst = _series_drift(orbit.h, RELATIVE_FLOOR)
    f_drifts = []
    f_worsts = []
    if np.all(np.isfinite(orbit.f)):
        for k in range(orbit.f.shape[1]):
            dk, wk = _series_drift(orbit.f[:, k], RELATIVE_FLOOR)
            f_drifts.append(dk)
            f_worsts.append(wk)

    lam_drift = lam_worst = mismatch = None
    if orbit.tangency is not None and len(orbit.tangency) >= 2:
        counts = {ts.count for ts in orbit.tangency}
        if len(counts) > 1:
            mismatch = f"tangency parameter count varies along the orbit: {sorted(counts)}"
        else:
            lam_drift, lam_worst = 0.0, 0
            base = orbit.tangency[0].lambdas
            for b, ts in enumerate(orbit.tangency[1:], start=1):
                cur = list(ts.lambdas)
                for lam_ref in base:
                    nearest = min(range(len(cur)), key=lambda i: abs(cur[i] - lam_ref))
                    dev = abs(cur.pop(nearest) - lam_ref) / max(abs(lam_ref), RELATIVE_FLOOR)
                    if dev > lam_drift:
                        lam_drift, lam_worst = dev, b
            if lam_drift > 10.0 * LAMBDA_DRIFT_TOL:
                mismatch = (
                    f"tangency parameters drift {lam_drift:.3e} at bounce {lam_worst}, "
                    f"above 10 x the drift tolerance {LAMBDA_DRIFT_TOL:.3e}"
                )

    return DriftReport(
        h_drift=h_drift,
        h_worst_bounce=h_worst,
        f_drift=tuple(f_drifts),
        f_worst_bounce=tuple(f_worsts),
        lambda_drift=lam_drift,
        lambda_worst_bounce=lam_worst,
        lambda_mismatch=mismatch,
        aborted=orbit.abort_reason,
    )


@dataclass(frozen=True)
class FreeFlightReport:
    """Worst free-flight defects of the integrals and the line-level invariant."""

    f_defect: float
    h_defect: float
    samples: int = 0


def free_flight_invariance(ell: Ellipsoid, sig: Signature, samples: int, seed: int) -> FreeFlightReport:
    """Max defect of F_k and of canonicalized H under sliding the base point.

    F_k(x + t v, v) equals F_k(x, v) identically; H is made line-invariant by
    evaluating the conormal pairing at the Euclidean foot point of the line.
    """
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, ell.dim))
    vs = rng.standard_normal((samples, ell.dim))
    ts = rng.uniform(-FREE_FLIGHT_SPAN, FREE_FLIGHT_SPAN, samples)

    f0 = integrals_batch(xs, vs, ell, sig)
    f1 = integrals_batch(xs + ts[:, None] * vs, vs, ell, sig)
    f_defect = float(np.max(np.abs(f1 - f0) / np.maximum(1.0, np.abs(f0))))

    def canonical_h(points: np.ndarray) -> np.ndarray:
        vhat = vs / np.linalg.norm(vs, axis=1, keepdims=True)
        foot = points - np.sum(points * vhat, axis=1, keepdims=True) * vhat
        return np.sum(foot * ell.shape_diag * vs, axis=1)

    h0 = canonical_h(xs)
    h1 = canonical_h(xs + ts[:, None] * vs)
    h_defect = float(np.max(np.abs(h1 - h0) / np.maximum(1.0, np.abs(h0))))
    return FreeFlightReport(f_defect=f_defect, h_defect=h_defect, samples=samples)

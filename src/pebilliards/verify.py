"""Numerical witnesses of the integrable structure.

Canonical Poisson brackets of the quadratic integrals and conservation
drift over recorded orbits.  Phase space is (x, p) with the momentum
identified through the metric, p_i = e_i v_i; every bracket, including
those of commutation_sweep, routes through that single adapter in
poisson_bracket, so the sign bookkeeping lives in one place.  In velocity
variables the bracket reads

    {F, G} = sum_i e_i (dF/dx_i dG/dv_i - dF/dv_i dG/dx_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .billiard import OrbitRecord, _integral_denominators, _pair_differences, _pair_plan, integrals_batch
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


def moser_gradients_batch(
    xs: np.ndarray, vs: np.ndarray, ell: Ellipsoid, sig: Signature
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of every integral at every sample.

    Returns (gx, gv), each of shape (N, dim, dim): entry [s, k, i] is the
    derivative of F_k with respect to coordinate i at sample s.  They are
    linear in the pair quotients R_ki = M_p / d_p, symmetric in (k, i):
    for i != k, dF_k/dx_i = 2 R_ki v_k and dF_k/dv_i = -2 R_ki x_k, and
    dF_k/dx_k = -2 sum_i R_ki v_i, dF_k/dv_k = 2 e_k v_k + 2 sum_i R_ki x_i,
    each sum over i != k in column order from +0.
    """
    d = _integral_denominators(ell, sig)
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    plan = _pair_plan(ell.dim)
    r = (_pair_differences(xs, vs) / d[:, None]).take(plan.pairs, axis=0)  # [j, k]: R_kc, c the j-th column != k
    xt, vt = xs.T, vs.T
    k = np.arange(ell.dim)
    gx = np.empty((len(xs), ell.dim, ell.dim))
    gv = np.empty_like(gx)
    gx[:, k, plan.cols] = np.moveaxis(2.0 * r * vt, -1, 0)
    gv[:, k, plan.cols] = np.moveaxis(-2.0 * r * xt, -1, 0)
    gx[:, k, k] = -2.0 * np.add.reduce(r * vt.take(plan.cols, axis=0), axis=0, initial=0.0).T
    gv[:, k, k] = 2.0 * sig.e * vs + 2.0 * np.add.reduce(r * xt.take(plan.cols, axis=0), axis=0, initial=0.0).T
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

    Tangency parameters are matched against bounce 0 by index: both lists
    are sorted, which pairs each with its own value wherever the drift is
    below half the gap between parameters.  A mismatch is a change of their
    count along the orbit, which is reported as such rather than absorbed
    into the numbers, or a drift above 10 times LAMBDA_DRIFT_TOL.  A count
    change names the first bounce whose count differs from bounce 0's and
    says whether that row set a root aside near a pole (the root crossed the
    pole filter) or set none aside (a root left or joined the real line).
    """
    if orbit.bounce_count < 1:
        raise ValueError("drift needs an orbit with at least two recorded states")
    h_drift, h_worst = _series_drift(orbit.h, RELATIVE_FLOOR)
    f_drifts, f_worsts = zip(*(_series_drift(fk, RELATIVE_FLOOR) for fk in orbit.f.T))

    lam_drift = lam_worst = mismatch = None
    if orbit.tangency is not None:
        counts = [ts.count for ts in orbit.tangency]
        first = next((k for k, n in enumerate(counts) if n != counts[0]), None)
        if first is not None:
            aside = len(orbit.tangency[first].near_pole)
            cause = (f"{aside} root(s) set aside near a pole (a root crossed the pole filter)" if aside
                     else "no root set aside near a pole (a root left or joined the real line)")
            mismatch = (
                f"tangency parameter count varies along the orbit: {sorted(set(counts))}; "
                f"first at bounce {first}, {counts[first]} against {counts[0]} at bounce 0, with {cause}"
            )
        else:
            lams = np.array([ts.lambdas for ts in orbit.tangency])  # (rows, count)
            dev = np.abs(lams - lams[0]) / np.maximum(np.abs(lams[0]), RELATIVE_FLOOR)
            per_bounce = np.max(dev, axis=1, initial=0.0)
            lam_drift, lam_worst = float(per_bounce.max()), int(per_bounce.argmax())  # first worst bounce
            if lam_drift > 10.0 * LAMBDA_DRIFT_TOL:
                mismatch = (
                    f"tangency parameters drift {lam_drift:.3e} at bounce {lam_worst}, "
                    f"above 10 x the drift tolerance {LAMBDA_DRIFT_TOL:.3e}"
                )

    return DriftReport(
        h_drift=h_drift,
        h_worst_bounce=h_worst,
        f_drift=f_drifts,
        f_worst_bounce=f_worsts,
        lambda_drift=lam_drift,
        lambda_worst_bounce=lam_worst,
        lambda_mismatch=mismatch,
        aborted=orbit.abort_reason,
    )

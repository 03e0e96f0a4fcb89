"""The billiard ball map inside an ellipsoid in a diagonal pseudo-Euclidean metric.

Free flight is a straight chord; at the boundary the metric-normal component
of the velocity flips sign while the tangential part is kept.  With the
outward conormal covector nu = Ax (componentwise x_i / a_i^2) the metric
normal vector is n_i = e_i nu_i and the reflection is

    u = v - 2 (<v,n> / <n,n>) n .

Reflection preserves the squared pseudo-norm and flips the sign of Ax.v, so
the quantity H(x, v) = Ax.v is invariant along orbits (negative for inward
rays).  The quadratic first integrals

    F_k = e_k v_k^2 + sum_{i != k} (x_i v_k - x_k v_i)^2 / (e_i a_k^2 - e_k a_i^2)

are conserved by both free flight and reflection and satisfy
sum_k F_k = <v,v>.

Boundary points where <n,n> = 0 have a light-like normal; reflection is
undefined there and orbit runs abort with a recorded reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import confocal
from .errors import NotInward, NullNormal, OffBoundary, ResonantAxes, RootIsolationFailure
from .pecore import BOUNDARY_TOL, Ellipsoid, RayState, Signature

#: Chords with |Ax.v| below this times |x||v| are refused as grazing.
GRAZING_TOL = 1e-12

#: Reflection refuses boundary points with |<n,n>| below this times |n|^2.
NULL_NORMAL_TOL = 1e-10


def _require_on_boundary(x: np.ndarray, ell: Ellipsoid, tol: float) -> None:
    defect = ell.boundary_defect(x)
    if abs(defect) > tol:
        raise OffBoundary(f"|Ax.x - 1| = {abs(defect):.3e} exceeds boundary tolerance {tol:.1e}")


def advance_to_boundary(
    r: RayState,
    ell: Ellipsoid,
    boundary_tol: float = BOUNDARY_TOL,
    grazing_tol: float = GRAZING_TOL,
) -> RayState:
    """Follow the chord from a boundary point with inward direction to its exit point.

    Uses the closed form t* = -2 (Ax.v) / (Av.v), exact on the boundary since
    Ax.x = 1 and A is positive definite, then re-projects the endpoint onto
    the boundary with one Newton step along v to absorb rounding.
    """
    if r.dim != ell.dim:
        raise ValueError(f"ray dimension {r.dim} != ellipsoid dimension {ell.dim}")
    _require_on_boundary(r.x, ell, boundary_tol)
    A = ell.shape_diag
    axv = float((A * r.x) @ r.v)
    scale = float(np.linalg.norm(r.x) * np.linalg.norm(r.v))
    if axv >= 0.0 or abs(axv) < grazing_tol * scale:
        raise NotInward(f"Ax.v = {axv:.3e} is not inward-transversal")
    avv = float((A * r.v) @ r.v)
    t_star = -2.0 * axv / avv
    y = r.x + t_star * r.v

    ayv = float((A * y) @ r.v)
    if ayv != 0.0:
        y = y + (-ell.boundary_defect(y) / (2.0 * ayv)) * r.v
    return RayState(y, r.v)


def reflect(
    r: RayState,
    ell: Ellipsoid,
    sig: Signature,
    boundary_tol: float = BOUNDARY_TOL,
    null_normal_tol: float = NULL_NORMAL_TOL,
) -> RayState:
    """Reflect the velocity at a boundary point: flip the metric-normal component.

    Guarantees <u,u> = <v,v> and Ax.u = -Ax.v up to rounding.  Raises
    NullNormal where the boundary normal is light-like (reflection undefined).
    """
    if r.dim != ell.dim or ell.dim != sig.dim:
        raise ValueError("ray, ellipsoid, and signature dimensions must agree")
    _require_on_boundary(r.x, ell, boundary_tol)
    e = sig.e
    nu = ell.conormal(r.x)
    n = e * nu
    nn = float(np.sum(e * n * n))
    n_euclid2 = float(n @ n)
    if abs(nn) <= null_normal_tol * n_euclid2:
        raise NullNormal(f"<n,n> = {nn:.3e} is null within tolerance at this boundary point")
    vn = float(np.sum(e * r.v * n))
    if vn == 0.0:
        raise NotInward("velocity is tangent to the boundary; reflection is trivial/ill-posed")
    u = r.v - (2.0 * vn / nn) * n
    return RayState(r.x, u)


def billiard_map(
    r: RayState,
    ell: Ellipsoid,
    sig: Signature,
    boundary_tol: float = BOUNDARY_TOL,
    grazing_tol: float = GRAZING_TOL,
    null_normal_tol: float = NULL_NORMAL_TOL,
) -> RayState:
    """One bounce: advance along the chord, then reflect at the far boundary point."""
    hit = advance_to_boundary(r, ell, boundary_tol, grazing_tol)
    return reflect(hit, ell, sig, boundary_tol, null_normal_tol)


def joachimsthal(r: RayState, ell: Ellipsoid, boundary_tol: float = BOUNDARY_TOL) -> float:
    """The invariant H = Ax.v at a boundary state; negative for inward rays."""
    if r.dim != ell.dim:
        raise ValueError(f"ray dimension {r.dim} != ellipsoid dimension {ell.dim}")
    _require_on_boundary(r.x, ell, boundary_tol)
    return float(ell.conormal(r.x) @ r.v)


def _integral_denominators(ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """Denominator matrix d[k, i] = e_i a_k^2 - e_k a_i^2; raises on resonance."""
    if ell.dim != sig.dim:
        raise ValueError("ellipsoid and signature dimensions must agree")
    a2 = ell.a2
    e = sig.e
    d = np.outer(a2, e) - np.outer(e, a2)  # d[k, i]
    off = ~np.eye(ell.dim, dtype=bool)
    if np.any(d[off] == 0.0):
        raise ResonantAxes("some e_i a_k^2 - e_k a_i^2 vanishes; axes are resonant")
    return d


def integral_F(k: int, x, v, ell: Ellipsoid, sig: Signature) -> float:
    """The k-th quadratic integral (k is a 0-based axis index)."""
    if not 0 <= k < ell.dim:
        raise ValueError(f"index k must be in [0, {ell.dim}), got {k}")
    return float(integrals(x, v, ell, sig)[k])


def integrals(x, v, ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """All integrals F_0 .. F_n at a single phase point."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return integrals_batch(x[None, :], v[None, :], ell, sig)[0]


def integrals_batch(xs: np.ndarray, vs: np.ndarray, ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """Vectorized integrals for arrays of phase points, shape (N, dim) -> (N, dim).

    Extended-precision (longdouble) input is evaluated and returned in
    longdouble; every other input in float64.
    """
    d = _integral_denominators(ell, sig)
    xs, vs = np.asarray(xs), np.asarray(vs)
    dtype = np.longdouble if np.longdouble in (xs.dtype, vs.dtype) else float
    xs = xs.astype(dtype, copy=False)
    vs = vs.astype(dtype, copy=False)
    if xs.ndim != 2 or xs.shape != vs.shape or xs.shape[1] != ell.dim:
        raise ValueError("phase arrays must both have shape (N, dim)")
    e = sig.e
    # w[:, k, i] = x_i v_k - x_k v_i
    w = vs[:, :, None] * xs[:, None, :] - xs[:, :, None] * vs[:, None, :]
    dsafe = d.copy()
    np.fill_diagonal(dsafe, np.inf)
    return e * vs * vs + np.sum(w * w / dsafe, axis=2)


def pseudo_norm_defect(vs: np.ndarray, fs: np.ndarray, sig: Signature) -> np.ndarray:
    """Normalized defect of the sum rule sum_k F_k = <v,v> per sample."""
    vv = np.sum(sig.e * vs * vs, axis=1)
    total = np.sum(fs, axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(vv), np.sum(np.abs(fs), axis=1)))
    return np.abs(total - vv) / scale


@dataclass
class OrbitRecord:
    """Phase points and per-bounce invariant values of a billiard orbit.

    Row k of `xs`, `vs`, `h` and `f` is the post-reflection state after
    bounce k; row 0 is the initial state.  On an early abort the record
    holds every row computed so far plus the reason.
    """

    xs: np.ndarray
    vs: np.ndarray
    h: np.ndarray
    f: np.ndarray
    tangency: list["confocal.TangencySet"] | None
    abort_reason: str | None = None
    abort_bounce: int | None = None

    @property
    def states(self) -> list[RayState]:
        """The rows as RayStates, built on each access."""
        return [RayState(x, v) for x, v in zip(self.xs, self.vs)]

    @property
    def bounce_count(self) -> int:
        return len(self.xs) - 1

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def run_orbit(
    r: RayState,
    n_bounces: int,
    ell: Ellipsoid,
    sig: Signature,
    fam: "confocal.ConfocalFamily | None" = None,
    boundary_tol: float = BOUNDARY_TOL,
    grazing_tol: float = GRAZING_TOL,
    null_normal_tol: float = NULL_NORMAL_TOL,
) -> OrbitRecord:
    """Iterate the billiard map, recording H, every F_k, and (optionally) tangency.

    The recorder propagates and evaluates in extended precision where the
    platform provides it (x86 long double): the scaled-line representative
    legitimately reaches Euclidean speeds of 1e3..1e4 on long null orbits,
    where evaluating the quadratic integrals in plain double precision would
    drown the drift being measured in cancellation noise.  States are stored
    in place, one row per bounce; H and every F_k are evaluated once over the
    completed rows, and rows and invariant values are rounded back to double.

    Tangency parameters are recorded per bounce when `fam` is given.  A
    NullNormal, NotInward, or RootIsolationFailure event aborts the run
    early; the partial record is returned with the reason attached.
    """
    if n_bounces < 1:
        raise ValueError("bounce count must be >= 1")
    _require_on_boundary(r.x, ell, boundary_tol)
    ax_v = float(ell.conormal(r.x) @ r.v)
    if ax_v >= 0.0:
        raise NotInward(f"initial Ax.v = {ax_v:.3e} is not inward")

    ld = np.longdouble
    A = (1.0 / ell.a2).astype(ld)
    e = sig.e.astype(ld)
    xs = np.empty((n_bounces + 1, ell.dim), dtype=ld)
    vs = np.empty_like(xs)
    x, v = r.x.astype(ld), r.v.astype(ld)
    xs[0], vs[0] = x, v
    Ax = A * x

    tangs: list[confocal.TangencySet] | None = [] if fam is not None else None
    abort_reason = None
    abort_bounce = None
    rows = 0
    for k in range(n_bounces + 1):
        if k:
            try:
                # Chord step, closed form, then one Newton re-projection along v.
                # (ndarray.dot sums in the same order as @, with less call
                # overhead on these short longdouble vectors.)
                axv = Ax.dot(v)
                scale = np.sqrt(x.dot(x) * v.dot(v))
                if axv >= 0.0 or abs(axv) < grazing_tol * scale:
                    raise NotInward(f"Ax.v = {float(axv):.3e} is not inward-transversal")
                y = x + (-2.0 * axv / (A * v).dot(v)) * v
                Ay = A * y
                y = y + ((1.0 - Ay.dot(y)) / (2.0 * Ay.dot(v))) * v

                # Reflection: flip the metric-normal component n = e Ay.  As
                # e = +-1, <n,n> = Ay.n and <v,n> = v.Ay exactly, and Ay is
                # the next bounce's Ax.
                Ax = A * y
                n = e * Ax
                nn = Ax.dot(n)
                if abs(nn) <= null_normal_tol * n.dot(n):
                    raise NullNormal(f"<n,n> = {float(nn):.3e} is null within tolerance")
                x, v = y, v - (2.0 * v.dot(Ax) / nn) * n
            except (NotInward, NullNormal) as exc:
                abort_reason = f"{type(exc).__name__}: {exc}"
                abort_bounce = k
                break
            xs[k], vs[k] = x, v
        rows = k + 1
        if tangs is not None:
            state = RayState(xs[k].astype(float), vs[k].astype(float))
            try:
                tangs.append(confocal.tangency_parameters(fam, state))
            except RootIsolationFailure as exc:
                abort_reason = f"RootIsolationFailure: {exc}"
                abort_bounce = k
                break

    xs, vs = xs[:rows], vs[:rows]
    h = np.sum(A * xs * vs, axis=1)
    try:
        f = integrals_batch(xs, vs, ell, sig).astype(float)
    except ResonantAxes:
        # Degenerate axes (sphere-like blocks): the quadratic integrals are
        # undefined; their columns are recorded as NaN and H is kept.
        f = np.full(xs.shape, np.nan)
    return OrbitRecord(
        xs.astype(float), vs.astype(float), h.astype(float), f, tangs, abort_reason, abort_bounce
    )


def sample_null_ray(
    ell: Ellipsoid,
    sig: Signature,
    rng: "np.random.Generator | int",
    max_tries: int = 10_000,
) -> RayState:
    """Random boundary point with an inward light-like direction.

    The base point is area-weighted on the boundary (sphere sampling with a
    rejection correction for the axis scaling); the direction puts a unit
    Euclidean vector in each metric block so that <v,v> = 0 exactly, with the
    sign fixed to point inward.  Deterministic for a fixed seed.
    """
    if sig.p < 1 or sig.q < 1:
        raise ValueError("null directions need p >= 1 and q >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    a = np.array(ell.a)
    amin = float(np.min(a))
    d = ell.dim

    for _ in range(max_tries):
        s = rng.standard_normal(d)
        nrm = float(np.linalg.norm(s))
        if nrm == 0.0:
            continue
        s /= nrm
        # Surface-area weight of the sphere-to-ellipsoid map is prop. to |D^-1 s|.
        if rng.uniform() > float(np.linalg.norm(s / a)) * amin:
            continue
        x = a * s

        alpha = rng.standard_normal(sig.p)
        beta = rng.standard_normal(sig.q)
        na, nb = float(np.linalg.norm(alpha)), float(np.linalg.norm(beta))
        if na == 0.0 or nb == 0.0:
            continue
        v = np.concatenate([alpha / na, beta / nb])
        axv = float(ell.conormal(x) @ v)
        if axv > 0.0:
            v = -v
            axv = -axv
        if axv >= -GRAZING_TOL * float(np.linalg.norm(x) * np.linalg.norm(v)):
            continue
        return RayState(x, v)
    raise NotInward(f"rejection sampling exhausted after {max_tries} tries")

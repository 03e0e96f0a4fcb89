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
from .errors import NonFinite, NotInward, NullNormal, OffBoundary, ResonantAxes, RootIsolationFailure
from .pecore import BOUNDARY_TOL, Ellipsoid, RayState, Signature

#: Chords with |Ax.v| below this times |x||v| are refused as grazing.
GRAZING_TOL = 1e-12

#: Reflection refuses boundary points with |<n,n>| below this times |n|^2.
NULL_NORMAL_TOL = 1e-10

#: Rejection-sampling attempts sample_null_ray makes before giving up.
NULL_RAY_TRIES = 10_000


def _require_on_boundary(x: np.ndarray, ell: Ellipsoid) -> None:
    defect = ell.boundary_defect(x)
    if not abs(defect) <= BOUNDARY_TOL:
        raise OffBoundary(f"|Ax.x - 1| = {abs(defect):.3e} exceeds boundary tolerance {BOUNDARY_TOL:.1e}")


def _chord(x: np.ndarray, v: np.ndarray, Ax: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Exit point of the chord from boundary point x along inward v, in the dtype of the arguments.

    Uses the closed form t* = -2 (Ax.v) / (Av.v), exact on the boundary since
    Ax.x = 1 and A is positive definite, then re-projects the endpoint onto
    the boundary with one Newton step along v to absorb rounding.
    (ndarray.dot sums in the same order as @, with less call overhead on
    these short vectors.)
    """
    axv = Ax.dot(v)
    scale = np.sqrt(x.dot(x) * v.dot(v))
    if not -np.inf < axv < 0.0 or abs(axv) < GRAZING_TOL * scale:
        raise NotInward(f"Ax.v = {float(axv):.3e} is not inward-transversal")
    y = x + (-2.0 * axv / (A * v).dot(v)) * v
    Ay = A * y
    return y + ((1.0 - Ay.dot(y)) / (2.0 * Ay.dot(v))) * v


def _reflect(v: np.ndarray, Ax: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Flip the metric-normal component of v at the boundary point with conormal Ax.

    The normal is n = e Ax.  As e = +-1, <n,n> = Ax.n and <v,n> = v.Ax exactly.
    """
    n = e * Ax
    nn = Ax.dot(n)
    if abs(nn) <= NULL_NORMAL_TOL * n.dot(n):
        raise NullNormal(f"<n,n> = {float(nn):.3e} is null within tolerance")
    return v - (2.0 * v.dot(Ax) / nn) * n


def advance_to_boundary(r: RayState, ell: Ellipsoid) -> RayState:
    """Follow the chord from a boundary point with inward direction to its exit point."""
    if r.dim != ell.dim:
        raise ValueError(f"ray dimension {r.dim} != ellipsoid dimension {ell.dim}")
    _require_on_boundary(r.x, ell)
    A = ell.shape_diag
    return RayState(_chord(r.x, r.v, A * r.x, A), r.v)


def reflect(r: RayState, ell: Ellipsoid, sig: Signature) -> RayState:
    """Reflect the velocity at a boundary point: flip the metric-normal component.

    Guarantees <u,u> = <v,v> and Ax.u = -Ax.v up to rounding.  Raises
    NotInward where v is tangent to the boundary or not finite, and
    NullNormal where the boundary normal is light-like (reflection undefined).
    """
    if r.dim != ell.dim or ell.dim != sig.dim:
        raise ValueError("ray, ellipsoid, and signature dimensions must agree")
    _require_on_boundary(r.x, ell)
    Ax = ell.conormal(r.x)
    vax = r.v.dot(Ax)
    if not 0.0 < abs(vax) < np.inf:
        raise NotInward(f"v.Ax = {vax:.3e}: velocity is tangent to the boundary or not finite")
    return RayState(r.x, _reflect(r.v, Ax, sig.e))


def billiard_map(r: RayState, ell: Ellipsoid, sig: Signature) -> RayState:
    """One bounce: advance along the chord, then reflect at the far boundary point."""
    return reflect(advance_to_boundary(r, ell), ell, sig)


def _integral_denominators(ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """Denominator matrix d[k, i] = e_i a_k^2 - e_k a_i^2, infinite on the diagonal.

    The infinite diagonal drops the i = k term from every pair sum.  Raises
    ResonantAxes where an off-diagonal entry vanishes.
    """
    if ell.dim != sig.dim:
        raise ValueError("ellipsoid and signature dimensions must agree")
    a2 = ell.a2
    e = sig.e
    d = a2[:, None] * e - e[:, None] * a2  # d[k, i]
    np.fill_diagonal(d, np.inf)
    if not d.all():
        raise ResonantAxes("some e_i a_k^2 - e_k a_i^2 vanishes; axes are resonant")
    return d


def _wedge(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """w[:, k, i] = x_i v_k - x_k v_i, antisymmetric in (k, i)."""
    return vs[:, :, None] * xs[:, None, :] - xs[:, :, None] * vs[:, None, :]


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
    w = _wedge(xs, vs)
    return sig.e * vs * vs + np.sum(w * w / d, axis=2)


def pseudo_norm_defect(vs: np.ndarray, fs: np.ndarray, sig: Signature) -> np.ndarray:
    """Normalized defect of the sum rule sum_k F_k = <v,v> per sample."""
    vv = np.sum(sig.e * vs * vs, axis=1)
    total = np.sum(fs, axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(vv), np.sum(np.abs(fs), axis=1)))
    return np.abs(total - vv) / scale


@dataclass
class OrbitRecord:
    """Phase points and per-bounce invariant values of a billiard orbit.

    Row k of `xs`, `vs`, `h`, `f` and (with one TangencySet per row)
    `tangency` is the post-reflection state after bounce k; row 0 is the
    initial state.  Every value is finite.  An abort ends the record before
    the failed row, whose index is `abort_bounce`.
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
) -> OrbitRecord:
    """Iterate the billiard map, recording H, every F_k, and (optionally) tangency.

    The recorder propagates and evaluates in extended precision where the
    platform provides it (x86 long double): the scaled-line representative
    legitimately reaches Euclidean speeds of 1e3..1e4 on long null orbits,
    where evaluating the quadratic integrals in plain double precision would
    drown the drift being measured in cancellation noise.

    The loop only steps, with the single-step API's chord and reflection
    kernel.  H, every F_k and, with `fam`, Q's coefficients are then
    evaluated for all rows at once, and the per-row core of
    confocal.tangency_parameters solves each row.  A row is recorded only
    when its state, H and every F_k are finite (else NonFinite) and its
    tangency parameters, if asked for, are solved (else RootIsolationFailure).
    A failed step or row k >= 1 ends the record before row k, with the reason
    and abort_bounce = k.  A failed row 0, resonant axes, or a start off the
    boundary or not pointing inward raise before the first bounce.
    """
    if n_bounces < 1:
        raise ValueError("bounce count must be >= 1")
    _integral_denominators(ell, sig)
    _require_on_boundary(r.x, ell)
    ax_v = float(ell.conormal(r.x) @ r.v)
    if not -np.inf < ax_v < 0.0:
        raise NotInward(f"initial Ax.v = {ax_v:.3e} is not inward")

    ld = np.longdouble
    A = (1.0 / ell.a2).astype(ld)
    e = sig.e.astype(ld)
    xs = np.empty((n_bounces + 1, ell.dim), dtype=ld)
    vs = np.empty_like(xs)
    x, v = r.x.astype(ld), r.v.astype(ld)
    xs[0], vs[0] = x, v
    Ax = A * x

    failure = None
    rows = n_bounces + 1
    for k in range(1, n_bounces + 1):
        try:
            x = _chord(x, v, Ax, A)
            Ax = A * x
            v = _reflect(v, Ax, e)
        except (NotInward, NullNormal) as exc:
            failure, rows = exc, k
            break
        xs[k], vs[k] = x, v

    with np.errstate(over="ignore", invalid="ignore"):
        h = np.sum(A * xs[:rows] * vs[:rows], axis=1).astype(float)
        f = integrals_batch(xs[:rows], vs[:rows], ell, sig).astype(float)
        xs, vs = xs[:rows].astype(float), vs[:rows].astype(float)
    finite = np.isfinite(np.column_stack([xs, vs, h, f])).all(axis=1)
    if not finite.all():
        rows = int(np.argmin(finite))
        failure = NonFinite(f"not finite at bounce {rows}: H = {h[rows]}, F = {f[rows].tolist()}")
    tangs = None
    if fam is not None:
        tangs = []
        qs = confocal.tangency_polynomial(fam, xs[:rows], vs[:rows])
        for q, xk, vk in zip(qs.tolist(), xs[:rows].tolist(), vs[:rows].tolist()):
            try:
                tangs.append(confocal._tangency_set(fam, q, xk, vk))
            except RootIsolationFailure as exc:
                failure, rows = exc, len(tangs)
                break

    if failure is not None and rows == 0:
        raise failure
    reason = None if failure is None else f"{type(failure).__name__}: {failure}"
    bounce = None if failure is None else rows
    return OrbitRecord(xs[:rows], vs[:rows], h[:rows], f[:rows], tangs, reason, bounce)


def sample_null_ray(
    ell: Ellipsoid,
    sig: Signature,
    rng: "np.random.Generator | int",
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

    for _ in range(NULL_RAY_TRIES):
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
    raise NotInward(f"rejection sampling exhausted after {NULL_RAY_TRIES} tries")

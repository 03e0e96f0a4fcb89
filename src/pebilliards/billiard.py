"""The billiard ball map inside an ellipsoid in a diagonal pseudo-Euclidean metric.

Free flight is a straight chord; at the boundary the metric-normal component
of the velocity flips sign while the tangential part is kept.  With the
outward conormal covector nu = Ax (componentwise x_i / a_i^2) the metric
normal vector is n_i = e_i nu_i and the reflection is

    v' = v - 2 (<v,n> / <n,n>) n .

The step kernel computes in u = x / a, w = v / a, where the ellipsoid is the
unit sphere (_chord, _reflect).

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

import functools
import math
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


def _chord(u: np.ndarray, w: np.ndarray, uw) -> np.ndarray:
    """Exit point of the chord from u along inward w on the unit sphere, in the dtype of the arguments.

    In u = x / a, w = v / a the ellipsoid is the sphere u.u = 1 and the
    chord's far end is y = u - (2 u.w / w.w) w.  One Newton step along w
    re-projects y onto the sphere to absorb rounding; as y.w = -u.w on the
    exact chord, the step is (y.y - 1) / (2 u.w).  `uw` is u.w = Ax.v, which
    every caller has already computed for its chord test.  (ndarray.dot sums
    in the same order as @, with less call overhead on these short vectors.)
    Pure arithmetic: the caller decides whether the chord is allowed
    (_refused_chords).
    """
    y = u - (2.0 * uw / w.dot(w)) * w
    return y + ((y.dot(y) - 1.0) / (2.0 * uw)) * w


def _reflect(u: np.ndarray, w: np.ndarray, E: np.ndarray, wu) -> np.ndarray:
    """Flip the metric-normal component of w at the sphere point u; E = e / a^2.

    With m = E u, the normal n = e Ax has <v,n> = w.u and <n,n> = u.m, so
    v - 2 (<v,n> / <n,n>) n reads w - 2 (w.u / u.m) m.  `wu` is w.u; the
    reflected w' has w'.u = -w.u, the next chord's u.w.  Pure arithmetic:
    the caller decides whether the normal is allowed (_null_normals).
    """
    m = E * u
    return w - (2.0 * wu / u.dot(m)) * m


def _refused_chords(xs: np.ndarray, vs: np.ndarray, axv: np.ndarray) -> np.ndarray:
    """Chord test, row-wise over the last axis: True where the chord from x along v is refused.

    `axv` holds Ax.v per row.  A chord is refused unless -inf < Ax.v < 0 and
    |Ax.v| >= GRAZING_TOL |x||v|: outward, grazing and non-finite chords (NaN
    compares False with every bound) all fail it.
    """
    scale = np.sqrt((xs * xs).sum(-1) * (vs * vs).sum(-1))
    return ~(np.isfinite(axv) & (axv < 0.0)) | (abs(axv) < GRAZING_TOL * scale)


def _null_normals(Axs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Normal test, row-wise over the last axis: True where n = e Ax is light-like within tolerance.

    |<n,n>| <= NULL_NORMAL_TOL |n|^2, with <n,n> = sum e_i Ax_i^2 and |n|^2 =
    sum Ax_i^2 (as e_i = +-1, each term equals Ax_i n_i and n_i^2 exactly).
    A NaN <n,n> passes it.
    """
    sq = Axs * Axs
    return abs(sq @ e) <= NULL_NORMAL_TOL * sq.sum(-1)


def _not_inward(axv) -> NotInward:
    """The error for a chord refused with Ax.v = axv."""
    return NotInward(f"Ax.v = {float(axv):.3e} is not inward-transversal")


def _null_normal(Ax: np.ndarray, e: np.ndarray) -> NullNormal:
    """The error for a null normal at the boundary point with conormal Ax.

    <n,n> is a cancelling sum, whose leading digits depend on the precision.
    The recorder passes the conormal of its row rounded to double precision,
    so it reports <n,n> as the single-step API, which computes in double
    precision, does.
    """
    return NullNormal(f"<n,n> = {float(Ax.dot(e * Ax)):.3e} is null within tolerance")


def _on_sphere(r: RayState, ell: Ellipsoid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The semi-axes a (from a^2, as the recorder takes them) and (u, w) = (x / a, v / a)."""
    a = np.sqrt(ell.a2)
    return a, r.x / a, r.v / a


def advance_to_boundary(r: RayState, ell: Ellipsoid) -> RayState:
    """Follow the chord from a boundary point with inward direction to its exit point."""
    if r.dim != ell.dim:
        raise ValueError(f"ray dimension {r.dim} != ellipsoid dimension {ell.dim}")
    _require_on_boundary(r.x, ell)
    a, u, w = _on_sphere(r, ell)
    uw = u.dot(w)
    if _refused_chords(r.x, r.v, uw):
        raise _not_inward(uw)
    return RayState(a * _chord(u, w, uw), r.v)


def reflect(r: RayState, ell: Ellipsoid, sig: Signature) -> RayState:
    """Reflect the velocity at a boundary point: flip the metric-normal component.

    Guarantees <u,u> = <v,v> and Ax.u = -Ax.v up to rounding.  Raises
    NotInward where v is tangent to the boundary or not finite, and
    NullNormal where the boundary normal is light-like (reflection undefined).
    """
    if r.dim != ell.dim or ell.dim != sig.dim:
        raise ValueError("ray, ellipsoid, and signature dimensions must agree")
    _require_on_boundary(r.x, ell)
    a, u, w = _on_sphere(r, ell)
    wu = w.dot(u)
    if not 0.0 < abs(wu) < np.inf:
        raise NotInward(f"v.Ax = {wu:.3e}: velocity is tangent to the boundary or not finite")
    Ax = ell.conormal(r.x)
    if _null_normals(Ax, sig.e):
        raise _null_normal(Ax, sig.e)
    return RayState(r.x, a * _reflect(u, w, sig.e / ell.a2, wu))


def billiard_map(r: RayState, ell: Ellipsoid, sig: Signature) -> RayState:
    """One bounce: advance along the chord, then reflect at the far boundary point."""
    return reflect(advance_to_boundary(r, ell), ell, sig)


@functools.lru_cache(maxsize=16)
def _integral_denominators(ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """Denominator matrix d[k, i] = e_i a_k^2 - e_k a_i^2, infinite on the diagonal.

    The infinite diagonal drops the i = k term from every pair sum.  Raises
    ResonantAxes where an off-diagonal entry vanishes.  Cached per geometry
    (read-only), so run_orbit's start check and its integrals share one.
    """
    if ell.dim != sig.dim:
        raise ValueError("ellipsoid and signature dimensions must agree")
    a2 = ell.a2
    e = sig.e
    d = a2[:, None] * e - e[:, None] * a2  # d[k, i]
    np.fill_diagonal(d, np.inf)
    if not d.all():
        raise ResonantAxes("some e_i a_k^2 - e_k a_i^2 vanishes; axes are resonant")
    d.setflags(write=False)
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
    return sig.e * vs * vs + (w * w / d).sum(axis=2)


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
    kernel, in (u, w) = (x / a, v / a) on the unit sphere; each reflection's
    w.u, negated, is the next chord's u.w = Ax.v.  Rows are stored as x = a u,
    v = a w.  The loop decides nothing, and stops early only once u.w is not
    < 0 (NaN included), where no chord exists.  All decisions are made after
    it, over the stepped rows.  The two abort tests are row-wise predicates
    that the single-step API applies to its one row: bounce k fails when the
    chord test refuses row k - 1 (NotInward) or the normal test row k
    (NullNormal), the chord first.  A run that fails on a grazing chord or on
    a finite, tiny <n,n> may step on up to n_bounces, so it never costs more
    than a clean run of that length.  H, every F_k and, with `fam`, Q's
    coefficients are then evaluated for all rows at once, and the per-row
    core of confocal.tangency_parameters solves each row.  A row is recorded
    only when its state, H and every F_k are finite (else NonFinite) and its
    tangency parameters, if asked for, are solved (else RootIsolationFailure).
    A failed bounce or row k >= 1 ends the record before row k, with the
    reason and abort_bounce = k.  A failed row 0, resonant axes, or a start
    off the boundary or not pointing inward raise before the first bounce.
    """
    if n_bounces < 1:
        raise ValueError("bounce count must be >= 1")
    _integral_denominators(ell, sig)
    _require_on_boundary(r.x, ell)
    ax_v = float(ell.conormal(r.x) @ r.v)
    if not -np.inf < ax_v < 0.0:
        raise NotInward(f"initial Ax.v = {ax_v:.3e} is not inward")

    # a, E = e / a^2 and the verdict's A = 1 / a^2 are taken in extended
    # precision from a^2, so the orbit reflects off the ellipsoid whose F_k
    # are measured (a float64 1 / a^2 is 1e-16 away).
    a2 = ell.a2.astype(np.longdouble)
    a, E, A = np.sqrt(a2), sig.e / a2, 1.0 / a2
    us = np.empty((n_bounces + 1, ell.dim), dtype=np.longdouble)
    ws = np.empty_like(us)
    u, w = r.x / a, r.v / a
    us[0], ws[0] = u, w
    uw = u.dot(w)

    rows = n_bounces + 1
    with np.errstate(all="ignore"):
        for k in range(1, n_bounces + 1):
            if not uw < 0.0:
                rows = k
                break
            u = _chord(u, w, uw)
            wu = w.dot(u)
            w = _reflect(u, w, E, wu)
            us[k], ws[k] = u, w
            uw = -wu
        xs, vs = a * us[:rows], a * ws[:rows]

        # Bounce b + 1 takes the chord from row b and reflects at row b + 1.
        # Each list ends in a sentinel at index `taken`, the first bounce not
        # stepped: one past the last, or the chord the loop stopped at (u.w
        # not < 0, so refused).  axvs are H's unrounded values.
        Axs = A * xs
        axvs = (Axs * vs).sum(1)
        taken = rows - 1
        chord = _refused_chords(xs[:taken], vs[:taken], axvs[:taken]).tolist() + [True]
        normal = _null_normals(Axs[1:], sig.e).tolist() + [True]
        b = min(chord.index(True), normal.index(True))
        failure = None
        if b < n_bounces:
            failure = _not_inward(Axs[b].dot(vs[b])) if chord[b] else _null_normal(ell.conormal(xs[b + 1]), sig.e)
            rows = b + 1
        h = axvs[:rows].astype(float)
        f = integrals_batch(xs[:rows], vs[:rows], ell, sig).astype(float)
        xs, vs = xs[:rows].astype(float), vs[:rows].astype(float)
    finite = np.isfinite(np.concatenate((xs, vs, h[:, None], f), axis=1)).all(axis=1)
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b of two float64 vectors, summed left to right on Python floats.

    numpy's float64 @ and norm call BLAS, whose kernel (and rounding) is
    chosen per CPU; this sum rounds alike everywhere.
    """
    total = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        total += x * y
    return total


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def sample_null_ray(
    ell: Ellipsoid,
    sig: Signature,
    rng: "np.random.Generator | int",
) -> RayState:
    """Random boundary point with an inward light-like direction.

    The base point is area-weighted on the boundary (sphere sampling with a
    rejection correction for the axis scaling); the direction puts a unit
    Euclidean vector in each metric block so that <v,v> = 0 exactly, with the
    sign fixed to point inward.  Deterministic for a fixed seed, on every
    CPU: norms and Ax.v are summed on Python floats (_dot).
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
        nrm = _norm(s)
        if nrm == 0.0:
            continue
        s /= nrm
        # Surface-area weight of the sphere-to-ellipsoid map is prop. to |D^-1 s|.
        if rng.uniform() > _norm(s / a) * amin:
            continue
        x = a * s

        alpha = rng.standard_normal(sig.p)
        beta = rng.standard_normal(sig.q)
        na, nb = _norm(alpha), _norm(beta)
        if na == 0.0 or nb == 0.0:
            continue
        v = np.concatenate([alpha / na, beta / nb])
        axv = _dot(ell.conormal(x), v)
        if axv > 0.0:
            v = -v
            axv = -axv
        if _refused_chords(x, v, axv):
            continue
        return RayState(x, v)
    raise NotInward(f"rejection sampling exhausted after {NULL_RAY_TRIES} tries")

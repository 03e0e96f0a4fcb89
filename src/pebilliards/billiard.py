"""The billiard ball map inside an ellipsoid in a diagonal pseudo-Euclidean metric.

Free flight is a straight chord; at the boundary the metric-normal component
of the velocity flips sign while the tangential part is kept.  With the
outward conormal covector nu = Ax (componentwise x_i / a_i^2) the metric
normal vector is n_i = e_i nu_i and the reflection is

    v' = v - 2 (<v,n> / <n,n>) n .

The recorder (run_orbit) steps in u = x / a, w = v / a, where the ellipsoid
is the unit sphere, with one walk of a chord and a reflection per bounce
(_walk) on long-double arrays, and then evaluates and tests every row
(_record).  The same pass, written in C with the dimension as an argument
(_C_RECORD), steps, evaluates and tests each row in turn; it is compiled
with the system C compiler into the library of `native` and cached per
user.  The recorder takes that native pass where the library builds and
loads, and the numpy pass elsewhere.

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
from typing import NamedTuple

import numpy as np

from . import confocal, native
from .errors import (
    NonFinite,
    NotInward,
    NullNormal,
    OffBoundary,
    ResonantAxes,
)
from .pecore import BOUNDARY_TOL, Ellipsoid, RayState, Signature, VectorType, _dot, classify_vector

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


def _walk(start: np.ndarray, uw2, E: np.ndarray, n: int) -> np.ndarray:
    """The rows (u, w) of up to n bounces on the unit sphere, from the long-double row start = (u, w).

    In u = x / a, w = v / a the ellipsoid is the sphere u.u = 1, and
    E = e / a^2.  Each bounce is a chord and then a reflection:

    * the chord's far end is y = u - (2 u.w / w.w) w.  One Newton step
      along w re-projects y onto the sphere to absorb rounding; as
      y.w = -u.w on the exact chord, the step is (y.y - 1) / (2 u.w).
      `uw2` is 2 u.w = 2 Ax.v.
    * the reflection flips the metric-normal component of w at the new u.
      With m = E u, the normal n = e Ax has <v,n> = w.u and <n,n> = u.m, so
      v - 2 (<v,n> / <n,n>) n reads w - (2 w.u / u.m) m.  The negation of
      its 2 w.u, 2 w'.u, is the next chord's 2 u.w.

    The walk stops early where u.w is not < 0 (NaN included), where no chord
    exists.  It returns the long-double rows (u, w), row 0 the start and row
    k the state after bounce k, shape (rows, 2 dim): the first rows of an
    (n + 1, 2 dim) array it allocates before the first bounce, so that a
    count whose rows do not fit in memory raises MemoryError at once.  Every
    dot product is numpy's long-double `dot`, which sums left to right from
    +0, and `_C_RECORD` performs the same operations in the same order, so
    the two step the same rows, bit for bit.  Pure arithmetic: the caller
    decides whether a chord or a normal is allowed (_refused_chords,
    _null_normals).
    """
    dim = len(E)
    rows = np.zeros((n + 1, 2 * dim), dtype=np.longdouble)
    rows[0] = start
    u, w = rows[0, :dim], rows[0, dim:]
    k = 0
    while k < n and uw2 < 0.0:
        y = u - (uw2 / w.dot(w)) * w
        u = y + ((y.dot(y) - 1.0) / uw2) * w
        m = E * u
        wu2 = 2.0 * w.dot(u)
        w = w - (wu2 / u.dot(m)) * m
        uw2 = -wu2
        k += 1
        rows[k, :dim], rows[k, dim:] = u, w
    return rows[: k + 1]


#: The recorder's pass over one orbit in C on long double (`_record` is the
#: reference): `_walk`'s bounce, written with `dim` as an argument, and each
#: row's evaluation and tests.  Each operation rounds to long double as
#: numpy's does (native._CC contracts nothing).  Every sum runs left to
#: right: H, |x|^2, |v|^2 and |n|^2 from their first term, the others from
#: +0.  `row` holds n + 1 rows (u, w), row 0 the start, then a, A, E, e (dim
#: each), the P pair denominators, 2 u.w of the start, GRAZING_TOL and
#: NULL_NORMAL_TOL, then room for 3 dim + P entries of work.  `out` holds xs,
#: vs, f (n + 1 rows of dim each) and h (n + 1): the rows rounded to double.
#: It stops at the first failing bounce, returns the rows kept and sets
#: *kind to 0 (clean), 1 (NotInward), 2 (NullNormal) or 3 (NonFinite); the
#: failing bounce is the rows kept.
_C_RECORD = """\
long record(long double *row, double *out, long *kind, long dim, long n)
{
    long double *a = row + (n + 1) * 2 * dim, *A = a + dim, *E = A + dim, *e = E + dim, *den = e + dim;
    long double *arg = den + dim * (dim - 1) / 2, uw2 = arg[0], *x = arg + 3, *v = x + dim, *Ax = v + dim, *q = Ax + dim;
    double *xs = out, *vs = xs + (n + 1) * dim, *f = vs + (n + 1) * dim, *h = f + (n + 1) * dim;
    long k, i, j, p;
    for (k = 0;; k++, row += 2 * dim, xs += dim, vs += dim, f += dim) {
        const long double *u = row, *w = row + dim;
        int finite = 1;
        for (i = 0; i < dim; i++) {
            x[i] = a[i] * u[i];
            v[i] = a[i] * w[i];
            Ax[i] = A[i] * x[i];
        }
        long double H = Ax[0] * v[0], xx = x[0] * x[0], vv = v[0] * v[0], nn2 = Ax[0] * Ax[0];
        long double nn = 0.0L + nn2 * e[0];
        for (i = 1; i < dim; i++) {
            long double sq = Ax[i] * Ax[i];
            H += Ax[i] * v[i];
            xx += x[i] * x[i];
            vv += v[i] * v[i];
            nn2 += sq;
            nn += sq * e[i];
        }
        for (i = 0, p = 0; i < dim; i++)
            for (j = i + 1; j < dim; j++, p++) {
                long double m = x[i] * v[j] - x[j] * v[i];
                q[p] = m * m / den[p];
            }
        for (j = 0; j < dim; j++) {
            long double F = 0.0L;
            for (i = 0; i < dim; i++) /* the pair {i, j} is numbered p as in _pair_plan */
                if (i < j)
                    F += q[i * dim - i * (i + 1) / 2 + j - i - 1];
                else if (i > j)
                    F -= q[j * dim - j * (j + 1) / 2 + i - j - 1];
            F += v[j] * v[j] * e[j];
            xs[j] = (double)x[j];
            vs[j] = (double)v[j];
            f[j] = (double)F;
            finite = finite && __builtin_isfinite(xs[j]) && __builtin_isfinite(vs[j]) && __builtin_isfinite(f[j]);
        }
        h[k] = (double)H;
        if (k > 0 && __builtin_fabsl(nn) <= arg[2] * nn2) {
            *kind = 2;
            return k;
        }
        if (!(finite && __builtin_isfinite(h[k]))) {
            *kind = 3;
            return k;
        }
        if (k == n) {
            *kind = 0;
            return k + 1;
        }
        if (!(__builtin_isfinite(H) && H < 0.0L) || __builtin_fabsl(H) < arg[1] * __builtin_sqrtl(xx * vv)
            || !(uw2 < 0.0L)) {
            *kind = 1;
            return k + 1;
        }
        /* The bounce: the chord's far end y, re-projected, is the new u; then the reflection of w. */
        long double *y = row + 2 * dim, *w_next = y + dim;
        long double ww = 0.0L, yy = 0.0L, wu = 0.0L, um = 0.0L;
        for (i = 0; i < dim; i++)
            ww += w[i] * w[i];
        long double c = uw2 / ww;
        for (i = 0; i < dim; i++)
            y[i] = u[i] - c * w[i];
        for (i = 0; i < dim; i++)
            yy += y[i] * y[i];
        long double g = (yy - 1.0L) / uw2;
        for (i = 0; i < dim; i++)
            y[i] = y[i] + g * w[i];
        for (i = 0; i < dim; i++)
            wu += w[i] * y[i];
        long double wu2 = 2.0L * wu;
        for (i = 0; i < dim; i++)
            um += y[i] * (E[i] * y[i]);
        long double s = wu2 / um;
        for (i = 0; i < dim; i++)
            w_next[i] = w[i] - s * (E[i] * y[i]);
        uw2 = -wu2;
    }
}
"""


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, left to right from the first term, at every length.

    numpy's `sum` adds a row in that order only up to 7 terms, and pairs
    them from 8 on.
    """
    total = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return total


def _refused_chords(xs: np.ndarray, vs: np.ndarray, axv: np.ndarray) -> np.ndarray:
    """Chord test, row-wise over the last axis: True where the chord from x along v is refused.

    `axv` holds Ax.v per row.  A chord is refused unless -inf < Ax.v < 0 and
    |Ax.v| >= GRAZING_TOL |x||v|: outward, grazing and non-finite chords (NaN
    compares False with every bound) all fail it.  |x|^2 and |v|^2 are summed
    left to right (_row_sums).
    """
    scale = np.sqrt(_row_sums(xs * xs) * _row_sums(vs * vs))
    return ~(np.isfinite(axv) & (axv < 0.0)) | (abs(axv) < GRAZING_TOL * scale)


def _null_normals(Axs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Normal test, row-wise over the last axis: True where n = e Ax is light-like within tolerance.

    |<n,n>| <= NULL_NORMAL_TOL |n|^2, with <n,n> = sum e_i Ax_i^2 and |n|^2 =
    sum Ax_i^2 (as e_i = +-1, each term equals Ax_i n_i and n_i^2 exactly).
    <n,n> is summed left to right from +0 (_dot) and |n|^2 from its first
    term (_row_sums), so no verdict depends on the CPU's BLAS kernel or on
    numpy's order.  A NaN <n,n> passes it.
    """
    sq = Axs * Axs
    return abs(_dot(sq, e)) <= NULL_NORMAL_TOL * _row_sums(sq)


def _not_inward(axv) -> NotInward:
    """The error for a chord refused with Ax.v = axv."""
    return NotInward(f"Ax.v = {float(axv):.3e} is not inward-transversal")


def _null_normal(Ax: np.ndarray, e: np.ndarray) -> NullNormal:
    """The error for a null normal at the boundary point with conormal Ax.

    <n,n> is a cancelling sum, whose leading digits depend on the precision,
    so the recorder passes its row's conormal rounded to double and the
    message keeps its bytes wherever long double differs.  The sum runs left
    to right (_dot), on every CPU alike.
    """
    return NullNormal(f"<n,n> = {_dot(Ax, e * Ax):.3e} is null within tolerance")


class _PairPlan(NamedTuple):
    """Index plan of the F_k pair terms in one dimension.

    The pairs i < k are numbered p = 0 .. P - 1 in lexicographic order; `i`
    and `k` hold their indices.  Row r of the pair sums runs over the columns
    c != r in order: entry [j, r] of `cols` is its j-th column c and of
    `pairs` the number of the pair {r, c}.  Entry [j, r, 0] of `lower` is
    True where r is the pair's i, that is r < c.
    """

    i: np.ndarray
    k: np.ndarray
    cols: np.ndarray
    pairs: np.ndarray
    lower: np.ndarray


@functools.cache
def _pair_plan(dim: int) -> _PairPlan:
    i, k = np.triu_indices(dim, 1)
    pair = np.zeros((dim, dim), dtype=np.intp)
    pair[i, k] = pair[k, i] = np.arange(len(i))
    rows, cols = (a.reshape(dim, dim - 1).T for a in np.nonzero(~np.eye(dim, dtype=bool)))
    return _PairPlan(i, k, cols, pair[rows, cols], (rows < cols)[:, :, None])


def _pair_differences(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """M_p = x_i v_k - x_k v_i for every pair p, shape (P, N), from phase rows of shape (N, dim)."""
    plan = _pair_plan(xs.shape[1])
    xt, vt = xs.T, vs.T
    m = xt.take(plan.i, axis=0)
    m *= vt.take(plan.k, axis=0)
    m -= xt.take(plan.k, axis=0) * vt.take(plan.i, axis=0)
    return m


def _integral_denominators(ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """The denominators d_p = e_i a_k^2 - e_k a_i^2 of the F_k pair terms, in _pair_plan's order.

    Raises ResonantAxes where one of them vanishes.
    """
    if ell.dim != sig.dim:
        raise ValueError("ellipsoid and signature dimensions must agree")
    plan = _pair_plan(ell.dim)
    a2, e = ell.a2.tolist(), sig.e.tolist()
    d = [a2[k] * e[i] - e[k] * a2[i] for i, k in zip(plan.i.tolist(), plan.k.tolist())]
    if 0.0 in d:
        raise ResonantAxes("some e_i a_k^2 - e_k a_i^2 vanishes; axes are resonant")
    return np.array(d)


def integrals_batch(xs: np.ndarray, vs: np.ndarray, ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """Vectorized integrals for arrays of phase points, shape (N, dim) -> (N, dim).

    Extended-precision (longdouble) input is evaluated and returned in
    longdouble; every other input in float64 (see _integrals).
    """
    d = _integral_denominators(ell, sig)
    xs, vs = np.asarray(xs), np.asarray(vs)
    dtype = np.longdouble if np.longdouble in (xs.dtype, vs.dtype) else float
    xs = xs.astype(dtype, copy=False)
    vs = vs.astype(dtype, copy=False)
    if xs.ndim != 2 or xs.shape != vs.shape or xs.shape[1] != ell.dim:
        raise ValueError("phase arrays must both have shape (N, dim)")
    return _integrals(xs, vs, d, sig.e)


def _integrals(xs: np.ndarray, vs: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Every F_k of the rows (xs, vs), with the pair denominators d and the signs e, in the rows' precision.

    Each pair's term q_p = M_p^2 / d_p is formed once; row k adds q_p and row
    i -q_p, which is M_p^2 / -d_p exactly.  Every row adds its terms in
    column order, starting from +0, and then e_k v_k^2: the order, and so the
    rounding and the sign of a zero, of the sum over a whole row of the
    antisymmetric matrix (x_i v_k - x_k v_i)^2 / (e_i a_k^2 - e_k a_i^2)
    with its zero diagonal.
    """
    plan = _pair_plan(xs.shape[1])
    q = _pair_differences(xs, vs)
    q *= q
    q /= d[:, None]
    terms = q.take(plan.pairs, axis=0)
    np.negative(terms, out=terms, where=plan.lower)
    f = np.add.reduce(terms, axis=0, initial=0.0)
    # As e_k = +-1, e_k v_k^2 = (v_k^2) e_k exactly.
    ev2 = np.multiply(vs.T, vs.T, order="C")
    ev2 *= e[:, None]
    f += ev2
    return f.T


def pseudo_norm_defect(vs: np.ndarray, fs: np.ndarray, sig: Signature) -> np.ndarray:
    """Normalized defect of the sum rule sum_k F_k = <v,v> per sample."""
    vv = np.sum(sig.e * vs * vs, axis=1)
    total = np.sum(fs, axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(vv), np.sum(np.abs(fs), axis=1)))
    return np.abs(total - vv) / scale


@dataclass
class OrbitRecord:
    """Phase points and per-bounce invariant values of a billiard orbit.

    Row k of `xs`, `vs`, `h`, `f`, `lambdas` and `near_pole` is the
    post-reflection state after bounce k; row 0 is the initial state.  Row k
    of `lambdas` holds the tangency parameters of that state's line and of
    `near_pole` the roots set aside near a pole, each sorted and padded with
    NaN to one width; both are None without tangency.  NaN marks a missing
    parameter, and every other value is finite.  An abort ends the record
    before the failed row, whose index is `abort_bounce`.
    """

    xs: np.ndarray
    vs: np.ndarray
    h: np.ndarray
    f: np.ndarray
    lambdas: np.ndarray | None
    near_pole: np.ndarray | None
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


class _Record(NamedTuple):
    """One orbit's pass: its stepped rows, and its first failing bounce.

    `steps` holds the long-double rows (u, w) stepped, and `xs`, `vs`, `h`
    and `f` the same rows' x = a u, v = a w, H = Ax.v and every F_k rounded
    to double.  The first `kept` rows are recorded.  Where `failure`
    (NotInward, NullNormal or NonFinite) is not None, `kept` is its bounce,
    and the rows stepped are those kept plus, where the failing row itself
    was tested (NullNormal, NonFinite), that row.
    """

    steps: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    h: np.ndarray
    f: np.ndarray
    kept: int
    failure: type | None


def _record(start: np.ndarray, uw2, a: np.ndarray, A: np.ndarray, E: np.ndarray, e: np.ndarray, d: np.ndarray, n: int):
    """The recorder's pass over up to n bounces from the long-double row start = (u, w), in numpy.

    `a`, A = 1 / a^2 and E = e / a^2 are long double, `e` the signs and `d`
    the pair denominators.  The rows come from one call of _walk; each row's
    x, v, H (its unrounded values are the chords' Ax.v) and F_k (_integrals)
    are evaluated in long double and rounded to double, over all rows at
    once, and then the tests decide.  Bounce k fails when the chord test
    refuses row k - 1 (NotInward), the normal test row k (NullNormal) or row
    k is not finite in double (NonFinite), tested in this order, and the
    first failing bounce ends the record; row 0 takes only the last test.  The
    walk stops only once u.w is not < 0, at a chord that is refused.
    _C_RECORD makes the same pass, and stops at the failing bounce; both
    return the same rows, bit for bit.
    """
    dim = len(a)
    steps = _walk(start, uw2, E, n)
    taken = len(steps) - 1
    with np.errstate(all="ignore"):
        xs, vs = a * steps[:, :dim], a * steps[:, dim:]
        Axs = A * xs
        h = _row_sums(Axs * vs)
        chord = _refused_chords(xs[:taken], vs[:taken], h[:taken]).tolist() + [True]
        normal = _null_normals(Axs[1:], e).tolist() + [True]
        f = _integrals(xs, vs, d, e).astype(float)
        h, xs, vs = h.astype(float), xs.astype(float), vs.astype(float)
    finite = np.isfinite(np.concatenate((xs, vs, h[:, None], f), axis=1)).all(axis=1).tolist() + [False]
    # Each list ends in a sentinel at bounce `taken` + 1, one past the last
    # bounce stepped or the chord the walk stopped at.
    ends = (chord.index(True) + 1, 0, NotInward), (normal.index(True) + 1, 1, NullNormal), (finite.index(False), 2, NonFinite)
    kept, _, failure = min(ends)
    if kept > n:
        kept, failure = n + 1, None
    stepped = kept + (failure in (NullNormal, NonFinite))
    return _Record(steps[:stepped], xs[:stepped], vs[:stepped], h[:stepped], f[:stepped], kept, failure)


#: The failures of _C_RECORD, by the kind it returns.
_KINDS = (None, NotInward, NullNormal, NonFinite)


def _native_record(start: np.ndarray, uw2, a: np.ndarray, A: np.ndarray, E: np.ndarray, e: np.ndarray, d: np.ndarray, n: int):
    """`_record`'s result from the C record of native.library(), where that library loads.

    Every long double goes through one long-double buffer (rows, constants,
    work) and every double through one double buffer, never through a ctypes
    scalar, which would round a long double to double.  All rows are
    allocated before the first bounce, so a count whose rows do not fit in
    memory raises MemoryError at once.
    """
    import ctypes

    dim, size = len(a), (n + 1) * 2 * len(a)
    wide = np.zeros(size + 7 * dim + 2 * len(d) + 3, dtype=np.longdouble)
    wide[: 2 * dim] = start
    np.concatenate((a, A, E, e, d, (uw2, GRAZING_TOL, NULL_NORMAL_TOL)), out=wide[size : size + 4 * dim + len(d) + 3])
    out = np.empty((3 * dim + 1) * (n + 1))
    steps = wide[:size].reshape(n + 1, 2 * dim)
    xs, vs, f = out[: 3 * dim * (n + 1)].reshape(3, n + 1, dim)
    h = out[3 * dim * (n + 1) :]
    kind = ctypes.c_long()
    kept = native.library().record(wide.ctypes.data, out.ctypes.data, ctypes.byref(kind), dim, n)
    failure = _KINDS[kind.value]
    stepped = kept + (failure in (NullNormal, NonFinite))
    return _Record(steps[:stepped], xs[:stepped], vs[:stepped], h[:stepped], f[:stepped], kept, failure)


def _failure(rec: _Record, a: np.ndarray, A: np.ndarray, ell: Ellipsoid, sig: Signature) -> Exception | None:
    """The error of a pass's failing bounce, its message built from the pass's rows; None where none failed."""
    b, dim = rec.kept, ell.dim
    with np.errstate(all="ignore"):
        if rec.failure is NotInward:  # the chord from row b - 1
            x, v = a * rec.steps[b - 1, :dim], a * rec.steps[b - 1, dim:]
            return _not_inward(_row_sums(A * x * v))
        if rec.failure is NullNormal:
            return _null_normal(ell.conormal(a * rec.steps[b, :dim]), sig.e)
    if rec.failure is NonFinite:
        return NonFinite(f"not finite at bounce {b}: H = {rec.h[b]}, F = {rec.f[b].tolist()}")
    return None


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

    One pass steps, evaluates and decides: the C record of native.library()
    where that library loads (_C_RECORD), else its numpy reference (_record);
    both give the same rows and the same failure, bit for bit.  It steps a
    chord and a reflection per bounce on long-double rows (u, w) = (x / a,
    v / a) on the unit sphere; each reflection's 2 w.u, negated, is the next
    chord's 2 u.w = 2 Ax.v.  All rows are allocated before the first bounce
    (a MemoryError where they do not fit).  Each row's x = a u, v = a w,
    H = Ax.v and every F_k are evaluated in long double and rounded to
    double.  Bounce k fails when the chord test refuses row k - 1
    (NotInward: outward, grazing or not finite), the normal test row k
    (NullNormal) or row k is not finite in double (NonFinite), tested in this
    order; the pass names the first failing bounce, and this function builds
    its message from the pass's long-double rows.  The pair denominators of
    the F_k are formed once per orbit.  With `fam`, Q is then evaluated and
    solved for all kept rows in one array pass (confocal._solve).  Whether
    the line is light-like is decided once, by classify_vector on the
    start's direction, and holds for every row: reflection keeps the causal
    type, so a row whose <v,v> / |v|^2 has drifted past LIGHTLIKE_TOL is
    still solved as the line it is.  The first row whose tangency parameters
    are not solved ends the record (RootIsolationFailure).  A failed bounce
    or row k >= 1 ends the record before row k, with the reason and
    abort_bounce = k.  A failed row 0, resonant axes, or a start off the
    boundary or not pointing inward raise before the first bounce.
    """
    if n_bounces < 1:
        raise ValueError("bounce count must be >= 1")
    d = _integral_denominators(ell, sig)
    _require_on_boundary(r.x, ell)
    ax_v = _dot(ell.conormal(r.x), r.v)
    if not -np.inf < ax_v < 0.0:
        raise NotInward(f"initial Ax.v = {ax_v:.3e} is not inward")

    # a, E = e / a^2 and the verdict's A = 1 / a^2 are taken in extended
    # precision from a^2, so the orbit reflects off the ellipsoid whose F_k
    # are measured (a float64 1 / a^2 is 1e-16 away).
    a2 = ell.a2.astype(np.longdouble)
    a, E, A = np.sqrt(a2), sig.e / a2, 1.0 / a2
    u, w = r.x / a, r.v / a
    record = _record if native.library() is None else _native_record
    rec = record(np.concatenate((u, w)), 2.0 * u.dot(w), a, A, E, sig.e, d, n_bounces)
    rows, xs, vs, h, f = rec.kept, rec.xs, rec.vs, rec.h, rec.f
    failure = _failure(rec, a, A, ell, sig)
    lambdas = near_pole = None
    if fam is not None:
        q = confocal.tangency_polynomial(fam, xs[:rows], vs[:rows])
        lightlike = classify_vector(r.v, sig) is VectorType.LIGHTLIKE
        lambdas, near_pole, error = confocal._solve(fam, q, lightlike)
        if error is not None:
            failure, rows = error, len(lambdas)

    if failure is not None and rows == 0:
        raise failure
    reason = None if failure is None else f"{type(failure).__name__}: {failure}"
    bounce = None if failure is None else rows
    return OrbitRecord(xs[:rows], vs[:rows], h[:rows], f[:rows], lambdas, near_pole, reason, bounce)


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
    CPU: norms and Ax.v are summed left to right (_dot).
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

"""The billiard ball map inside an ellipsoid in a diagonal pseudo-Euclidean metric.

Free flight is a straight chord; at the boundary the metric-normal component
of the velocity flips sign while the tangential part is kept.  With the
outward conormal covector nu = Ax (componentwise x_i / a_i^2) the metric
normal vector is n_i = e_i nu_i and the reflection is

    v' = v - 2 (<v,n> / <n,n>) n .

The recorder (run_orbit) steps in u = x / a, w = v / a, where the ellipsoid
is the unit sphere, with one walk of straight-line code generated per
dimension (_kernels) from the source of a chord and a reflection.  The same
source is also emitted as C on long double, compiled once per dimension with
the system C compiler and cached per user; the recorder takes that native
walk where it builds and loads, and the Python walk elsewhere.

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
from textwrap import indent
from typing import Any, Callable, NamedTuple

import numpy as np

from . import confocal, native
from .errors import (
    NonFinite,
    NotInward,
    NullNormal,
    OffBoundary,
    ResonantAxes,
    RootIsolationFailure,
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


class _Kernels(NamedTuple):
    """The straight-line kernels of one dimension (_kernels); `native` is None where none was built."""

    chord: Callable[..., tuple]
    reflect: Callable[..., tuple]
    walk: Callable[..., np.ndarray]
    native: Callable[..., np.ndarray] | None


@functools.cache
def _kernels(dim: int) -> _Kernels:
    """The chord, reflection and walk kernels on the unit sphere, written out for `dim` coordinates.

    chord(u, w, uw2) is the exit point of the chord from u along inward w.
    In u = x / a, w = v / a the ellipsoid is the sphere u.u = 1 and the
    chord's far end is y = u - (2 u.w / w.w) w.  One Newton step along w
    re-projects y onto the sphere to absorb rounding; as y.w = -u.w on the
    exact chord, the step is (y.y - 1) / (2 u.w).  `uw2` is 2 u.w = 2 Ax.v.

    reflect(u, w, E) flips the metric-normal component of w at the sphere
    point u, with E = e / a^2.  With m = E u, the normal n = e Ax has
    <v,n> = w.u and <n,n> = u.m, so v - 2 (<v,n> / <n,n>) n reads
    w - (2 w.u / u.m) m.  It returns w' and 2 w.u, whose negation 2 w'.u is
    the next chord's 2 u.w.

    walk(start, uw2, E, n) takes up to n bounces from the long-double row
    start = (u, w), each a chord and then a reflection, and stops early
    where u.w is not < 0 (NaN included), where no chord exists.  It returns
    the long-double rows (u, w), row 0 the start and row k the state after
    bounce k, shape (rows, 2 dim): the first rows of an (n + 1, 2 dim)
    array it allocates before the first bounce, so that a count whose rows
    do not fit in memory raises MemoryError at once.  Its loop body is the
    same two snippets of source that make up chord and reflect, so the
    three compute alike, bit for bit.  `native`, where it exists, is the same walk with the same
    snippets emitted as C on `long double` (_native_walk): it returns the
    same rows, bit for bit, and the recorder takes it over `walk`.

    chord, reflect and walk take scalars and compute in their type (numpy
    long double in the recorder).  Each dot product is summed left to right
    from +0, the order of numpy's long-double dot, so the recorder's rows are
    those of the same arithmetic on arrays.  Pure arithmetic: the caller
    decides whether a chord or a normal is allowed (_refused_chords,
    _null_normals).  Built from one template on first use in each
    dimension; the source depends on `dim` alone.
    """
    idx = range(dim)

    def each(expr: str) -> str:
        return ", ".join(expr.format(i=i) for i in idx) + ","

    def lines(expr: str) -> str:
        return "\n".join(expr.format(i=i) for i in idx)

    def dot(p: str, q: str) -> str:
        # A square is never -0.0, so a sum of squares rounds alike without its +0 start.
        start = "" if p == q else "0.0 + "
        return f"({start}" + " + ".join(f"{p}{i} * {q}{i}" for i in idx) + ")"

    u, w, E = each("u{i}"), each("w{i}"), each("E{i}")
    # Each line of a snippet assigns an expression that reads alike in Python
    # and in C, so _native_walk emits the same snippets as C statements.
    # The chord's exit point u from u, w and uw2 = 2 u.w.
    chord_step = f"""\
c = uw2 / {dot("w", "w")}
{lines("y{i} = u{i} - c * w{i}")}
g = ({dot("y", "y")} - 1.0) / uw2
{lines("u{i} = y{i} + g * w{i}")}"""
    # The reflected direction w at u, and wu2 = 2 w.u from the direction before it.
    reflect_step = f"""\
wu2 = 2.0 * {dot("w", "u")}
{lines("m{i} = E{i} * u{i}")}
h = wu2 / {dot("u", "m")}
{lines("w{i} = w{i} - h * m{i}")}"""
    bounce = f"{chord_step}\n{reflect_step}"
    source = f"""
def chord(u, w, uw2):
    {u} = u
    {w} = w
{indent(chord_step, "    ")}
    return ({u})

def reflect(u, w, E):
    {u} = u
    {w} = w
    {E} = E
{indent(reflect_step, "    ")}
    return ({w}), wu2

def walk(start, uw2, E, n):
    out = np.zeros((n + 1, {2 * dim}), dtype=np.longdouble)
    rows = start.tolist()
    {u} {w} = rows
    {E} = E.tolist()
    for _ in range(n):
        if not uw2 < 0.0:
            break
{indent(bounce, "        ")}
        uw2 = -wu2
        rows.extend(({u} {w}))
    out.flat[: len(rows)] = rows
    return out[: len(rows) // {2 * dim}]
"""
    namespace: dict[str, Any] = {"np": np}
    exec(compile(source, f"<billiard kernels, dim {dim}>", "exec"), namespace)
    return _Kernels(namespace["chord"], namespace["reflect"], namespace["walk"], _native_walk(dim, bounce))


def _native_walk(dim: int, bounce: str) -> Callable[..., np.ndarray] | None:
    """_kernels' walk in C on `long double`, from its loop body `bounce`; None where it cannot be had.

    Each line of `bounce` becomes one C statement, so the C walk performs
    the Python walk's operations in its order, each rounded to long double
    (no contraction into fused multiply-adds, native._CC), and returns the
    same rows.  The library comes from the per-user cache or a build there
    (native.load); without a working compiler or a writable cache, or where
    the library does not load, this returns None and the recorder keeps
    the Python walk.  The returned walk(start, uw2, E, n) fills a
    preallocated (n + 1, 2 dim) array and returns its stepped rows.  Every
    long double goes through an array, never through a ctypes scalar, which
    would round it to double.
    """
    state = [f"{c}{i}" for c in "uw" for i in range(dim)]
    steps = bounce.splitlines()
    assigned = [line.split(" = ")[0] for line in steps]
    temps = dict.fromkeys(name for name in assigned if name not in state)
    loads = [f"{name} = row[{j}]" for j, name in enumerate(state)] + [f"E{i} = E[{i}]" for i in range(dim)]
    body = indent(";\n".join(steps) + ";", " " * 8)
    store = " ".join(f"row[{j}] = {name};" for j, name in enumerate(state))
    source = f"""\
long walk(long double *row, const long double *E, const long double *uw2_start, long n)
{{
    long double {", ".join(loads)}, uw2 = *uw2_start;
    long double {", ".join(temps)};
    long k;
    for (k = 0; k < n; k++) {{
        if (!(uw2 < 0.0))
            break;
{body}
        uw2 = -wu2;
        row += {2 * dim};
        {store}
    }}
    return k;
}}
"""
    lib = native.load(f"walk{dim}", source)
    if lib is None:
        return None
    import ctypes

    step = lib.walk
    step.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long)
    step.restype = ctypes.c_long

    def walk(start, uw2, E, n: int) -> np.ndarray:
        E = np.ascontiguousarray(E, dtype=np.longdouble)
        if E.shape != (dim,):
            raise ValueError(f"E must have shape ({dim},)")
        uw2 = np.array([uw2], dtype=np.longdouble)
        # np.zeros, not np.empty: the padding bytes of each long double stay zero.
        rows = np.zeros((n + 1, 2 * dim), dtype=np.longdouble)
        rows[0] = start
        taken = step(rows.ctypes.data, E.ctypes.data, uw2.ctypes.data, n)
        return rows[: taken + 1]

    return walk


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
    <n,n> is summed left to right (_dot), so no verdict depends on the CPU's
    BLAS kernel.  A NaN <n,n> passes it.
    """
    sq = Axs * Axs
    return abs(_dot(sq, e)) <= NULL_NORMAL_TOL * sq.sum(-1)


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
    longdouble; every other input in float64.  Each pair's term
    q_p = M_p^2 / d_p is formed once; row k adds q_p and row i -q_p, which is
    M_p^2 / -d_p exactly.  Every row adds its terms in column order, starting
    from +0, and then e_k v_k^2: the order, and so the rounding and the sign
    of a zero, of the sum over a whole row of the antisymmetric matrix
    (x_i v_k - x_k v_i)^2 / (e_i a_k^2 - e_k a_i^2) with its zero diagonal.
    """
    d = _integral_denominators(ell, sig)
    xs, vs = np.asarray(xs), np.asarray(vs)
    dtype = np.longdouble if np.longdouble in (xs.dtype, vs.dtype) else float
    xs = xs.astype(dtype, copy=False)
    vs = vs.astype(dtype, copy=False)
    if xs.ndim != 2 or xs.shape != vs.shape or xs.shape[1] != ell.dim:
        raise ValueError("phase arrays must both have shape (N, dim)")
    plan = _pair_plan(ell.dim)
    q = _pair_differences(xs, vs)
    q *= q
    q /= d[:, None]
    terms = q.take(plan.pairs, axis=0)
    np.negative(terms, out=terms, where=plan.lower)
    f = np.add.reduce(terms, axis=0, initial=0.0)
    # As e_k = +-1, e_k v_k^2 = (v_k^2) e_k exactly.
    ev2 = np.multiply(vs.T, vs.T, order="C")
    ev2 *= sig.e[:, None]
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

    The bounces are stepped by one call of the generated walk (_kernels),
    whose loop body is the chord and reflection source, on long-double
    scalars in (u, w) = (x / a, v / a) on the unit sphere; each reflection's
    2 w.u, negated, is the next chord's 2 u.w = 2 Ax.v.  The walk is the
    native one, compiled from the same source, where it was built, else the
    Python one; both give the same rows, bit for bit.  It returns the rows
    (u, w) as one long-double array of shape (rows, 2 dim), from an array
    of n_bounces + 1 rows allocated before the first bounce (a MemoryError
    where they do not fit), and the rows are returned as x = a u, v = a w.
    The walk decides nothing, and stops early only once u.w is not < 0
    (NaN included), where no chord exists.  All decisions are made after
    it, over the stepped rows, by two row-wise
    predicates: bounce k fails when the chord test refuses row k - 1
    (NotInward) or the normal test row k (NullNormal), the chord first.  A
    run that fails on a grazing chord or on a finite, tiny <n,n> may step on
    up to n_bounces, so it never costs more than a clean run of that length.
    H, every F_k and, with `fam`, Q's coefficients are then evaluated for all
    rows at once, and the per-row core of confocal.tangency_parameters
    solves each row.  Whether the line is light-like is decided once, by
    classify_vector on the start's direction, and holds for every row:
    reflection keeps the causal type, so a row whose <v,v> / |v|^2 has
    drifted past LIGHTLIKE_TOL is still solved as the line it is.  A row
    is recorded only when its state, H and every F_k are finite (else
    NonFinite) and its tangency parameters, if asked for, are solved (else
    RootIsolationFailure).  A failed bounce or row k >= 1
    ends the record before row k, with the reason and abort_bounce = k.  A
    failed row 0, resonant axes, or a start off the boundary or not pointing
    inward raise before the first bounce.
    """
    if n_bounces < 1:
        raise ValueError("bounce count must be >= 1")
    _integral_denominators(ell, sig)
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
    uw2 = 2.0 * u.dot(w)
    kernels = _kernels(ell.dim)

    with np.errstate(all="ignore"):
        steps = (kernels.native or kernels.walk)(np.concatenate((u, w)), uw2, E, n_bounces)
        rows = len(steps)
        xs, vs = a * steps[:, : ell.dim], a * steps[:, ell.dim :]

        # Bounce b + 1 takes the chord from row b and reflects at row b + 1.
        # Each list ends in a sentinel at index `taken`, the first bounce not
        # stepped: one past the last, or the chord the walk stopped at (u.w
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
        lightlike = classify_vector(r.v, sig) is VectorType.LIGHTLIKE
        for q in confocal.tangency_polynomial(fam, xs[:rows], vs[:rows]).tolist():
            try:
                tangs.append(confocal._tangency_set(fam, q, lightlike))
            except RootIsolationFailure as exc:
                failure, rows = exc, len(tangs)
                break

    if failure is not None and rows == 0:
        raise failure
    reason = None if failure is None else f"{type(failure).__name__}: {failure}"
    bounce = None if failure is None else rows
    return OrbitRecord(xs[:rows], vs[:rows], h[:rows], f[:rows], tangs, reason, bounce)


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

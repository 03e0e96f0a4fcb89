"""Pseudo-confocal quadric families and tangency parameters of lines.

A centered ellipsoid with semi-axes a_i in a diagonal metric of signature
(p, q) generates the one-parameter family of quadrics

    sum_i x_i^2 / c_i(lam) = 1,      c_i(lam) = a_i^2 + e_i * lam,

so the positive metric block carries a_i^2 + lam and the negative block
a_i^2 - lam.  The family has poles at lam = -e_i a_i^2.  A line {x + t v}
is tangent to the member at lam exactly when the discriminant of the
restricted quadratic vanishes:

    G(lam) = (x.Bv)^2 - (v.Bv) (x.Bx - 1),      B = diag(1 / c_i(lam)).

By Lagrange's identity G = Q / prod_i c_i, where in dimension d

    Q(lam) = sum_i v_i^2 prod_{j != i} c_j - sum_{i<j} (x_i v_j - x_j v_i)^2 prod_{k != i,j} c_k

is a polynomial of degree <= d - 1 with top coefficient (prod_i e_i) <v,v>.
The degree drops by one for light-like directions, which is the paper's
one tangency parameter fewer.  The tangency parameters are the real roots
of Q, each polished by one Newton step; roots within the pole tolerance of
a pole are set aside.  Whether a line is light-like is the verdict of
pecore.classify_vector on its direction, taken once per orbit: reflection
keeps a line's causal type.  Q is evaluated for all rows of an orbit at once
and solved row by row; no factor divides by e_i a_k^2 - e_k a_i^2, so
resonant axes need no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PoleParameter, RootIsolationFailure
from .pecore import Ellipsoid, Quadric, RayState, Signature, VectorType, classify_vector

#: Roots closer than this times max(a_i^2) to a pole are discarded as spurious.
POLE_FILTER_FACTOR = 1e-7

#: A root of Q counts as real when |imag| <= REAL_TOL * max(1, |real|).
REAL_TOL = 1e-7


def _linear_product(factors) -> list[float]:
    """Ascending coefficients of the product of the linear factors a + b lam, given as (a, b)."""
    out = [1.0]
    for a, b in factors:
        out = [a * hi + b * lo for lo, hi in zip([0.0] + out, out + [0.0])]
    return out


@dataclass(frozen=True)
class ConfocalFamily:
    """The pseudo-confocal family generated by an ellipsoid and a signature."""

    ellipsoid: Ellipsoid
    sig: Signature

    def __post_init__(self) -> None:
        if self.ellipsoid.dim != self.sig.dim:
            raise ValueError(
                f"ellipsoid dimension {self.ellipsoid.dim} != signature dimension {self.sig.dim}"
            )

    @property
    def dim(self) -> int:
        return self.sig.dim

    def coefficients(self, lam) -> np.ndarray:
        """Member coefficients c_i(lam) = a_i^2 + e_i * lam.

        `lam` may be a scalar (returns shape (dim,)) or an array of m values
        (returns shape (m, dim)).
        """
        lam = np.asarray(lam, dtype=float)
        return self.ellipsoid.a2 + np.multiply.outer(lam, self.sig.e)

    @cached_property
    def pole_tolerance(self) -> float:
        return POLE_FILTER_FACTOR * float(np.max(self.ellipsoid.a2))

    @cached_property
    def factors(self) -> list[tuple[float, float]]:
        """The linear factors c_i(lam) = a_i^2 + e_i lam as pairs (a_i^2, e_i)."""
        return list(zip(self.ellipsoid.a2.tolist(), self.sig.e.tolist()))

    @cached_property
    def _q_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs i <= j as a (2 x pairs) index array, and the (pairs x d) matrix whose row
        (i, j) holds the ascending coefficients of prod_{k not in {i, j}} c_k, zero-padded."""
        pairs = [(i, j) for i in range(self.dim) for j in range(i, self.dim)]
        prods = [_linear_product([f for k, f in enumerate(self.factors) if k not in p]) for p in pairs]
        return np.array(pairs).T, np.array([c + [0.0] * (self.dim - len(c)) for c in prods])


def _near_pole(fam: ConfocalFamily, lam: float) -> bool:
    """Whether lam is within the pole tolerance of a pole: |lam - pole_k| = |c_k(lam)| exactly."""
    return min(abs(a2k + ek * lam) for a2k, ek in fam.factors) <= fam.pole_tolerance


def member(fam: ConfocalFamily, lam: float) -> Quadric:
    """The family member at parameter lam.

    Raises PoleParameter when lam is within the pole tolerance of a pole,
    and ValueError when a coefficient is not finite.  The coefficients are
    summed on Python floats, so an overflow warns of nothing.
    """
    lam = float(lam)
    if _near_pole(fam, lam):
        raise PoleParameter(f"lambda = {lam} is at (or within tolerance of) a family pole")
    return Quadric([a2k + ek * lam for a2k, ek in fam.factors])


def tangency_polynomial(fam: ConfocalFamily, xs, vs) -> np.ndarray:
    """Ascending coefficients of Q (length d on the last axis) for each row of xs, vs.

    The monomials v_i^2 and -(x_i v_j - x_j v_i)^2 of all rows are formed at
    once and accumulated over the pairs in one fixed order with elementwise
    operations, so a row's coefficients do not depend on the rows evaluated
    with it.  Overflow gives non-finite coefficients, not an exception.
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if xs.shape != vs.shape or xs.shape[-1:] != (fam.dim,):
        raise ValueError(f"phase arrays {xs.shape} and {vs.shape} do not match family dimension {fam.dim}")
    (i, j), prods = fam._q_terms
    q = np.zeros(xs.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        w = xs[..., i] * vs[..., j] - xs[..., j] * vs[..., i]
        mono = np.where(i == j, vs[..., i] * vs[..., j], -(w * w))
        for p, prod in enumerate(prods):
            q += mono[..., p, None] * prod
    return q


def _is_real(re: float, im: float) -> bool:
    return abs(im) <= REAL_TOL * max(1.0, abs(re))


def _real_roots(q: list[float]) -> list[float]:
    """Real roots of the polynomial with ascending coefficients q, top one non-zero.

    Closed form up to degree 2, companion-matrix eigenvalues above.
    """
    if len(q) == 2:
        return [-q[0] / q[1]]
    if len(q) == 3:
        c, b, a = q
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            re = -b / (2.0 * a)
            return [re, re] if _is_real(re, math.sqrt(-disc) / (2.0 * a)) else []
        s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return [s / a, c / s] if s != 0.0 else [0.0, 0.0]
    # numpy's polyroots, without importing numpy.polynomial: ones on the
    # subdiagonal, last column -q[:-1] / q[-1], eigenvalues sorted.
    n = len(q) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n :: n + 1] = 1.0
    companion[:, -1] -= np.array(q[:-1]) / q[-1]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise RootIsolationFailure(f"companion eigenvalues failed: {exc}") from exc
    roots.sort()
    return [z.real for z in roots.tolist() if _is_real(z.real, z.imag)]


def _horner(q: list[float], lam: float) -> tuple[float, float]:
    """Value and derivative at lam of the polynomial with ascending coefficients q."""
    val = der = 0.0
    for c in reversed(q):
        der = der * lam + val
        val = val * lam + c
    return val, der


@dataclass(frozen=True)
class TangencySet:
    """Sorted tangency parameters of a line.

    Every real root of Q is listed, a multiple root once per multiplicity,
    so `count` is the number of real roots counted with multiplicity.
    `near_pole` lists roots discarded by the spurious-root filter, kept for
    diagnostics only.
    """

    lambdas: tuple[float, ...]
    near_pole: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("tangency parameters must be sorted ascending")

    @property
    def count(self) -> int:
        return len(self.lambdas)


def tangency_parameters(fam: ConfocalFamily, r: RayState) -> TangencySet:
    """All real tangency parameters of the line of r: Q on its one row, solved as the recorder does."""
    q = tangency_polynomial(fam, r.x, r.v)
    return _tangency_set(fam, q.tolist(), classify_vector(r.v, fam.sig) is VectorType.LIGHTLIKE)


def _tangency_set(fam: ConfocalFamily, q: list[float], lightlike: bool) -> TangencySet:
    """The tangency parameters of a line from the coefficients q of its Q.

    For a light-like line Q's top coefficient, (prod e) <v,v>, is dropped.
    The roots (closed form up to degree 2, Q's companion matrix above) get
    one Newton step on Q, kept where it lowers |Q|.  Roots within the pole
    tolerance of a pole are reported in `near_pole` only.  A non-finite Q
    (from a non-finite state or an overflow) raises RootIsolationFailure.
    """
    if not all(math.isfinite(c) for c in q):
        raise RootIsolationFailure(f"tangency polynomial not finite: {q}")
    if lightlike:
        q.pop()
    while q and q[-1] == 0.0:
        q.pop()
    if len(q) < 2:
        return TangencySet(lambdas=())

    lams = []
    for lam in _real_roots(q):
        val, der = _horner(q, lam)
        if der != 0.0:
            step = lam - val / der
            if abs(_horner(q, step)[0]) <= abs(val):
                lam = step
        lams.append(lam)
    lams.sort()

    kept: list[float] = []
    near_pole: list[float] = []
    for lam in lams:
        (near_pole if _near_pole(fam, lam) else kept).append(lam)
    return TangencySet(lambdas=tuple(kept), near_pole=tuple(near_pole))

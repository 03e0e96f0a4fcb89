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
keeps a line's causal type.  Q is evaluated and solved for all rows of an
orbit in one array pass (_solve); no factor divides by e_i a_k^2 - e_k a_i^2,
so resonant axes need no special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PoleParameter, RootIsolationFailure
from .pecore import Ellipsoid, Quadric, RayState, Signature, VectorType, classify_vector

#: Roots closer than this times max(a_i^2) to a pole are discarded as spurious.
POLE_FILTER_FACTOR = 1e-7

#: A root of Q counts as real when |imag| <= REAL_TOL * max(1, |real|).
REAL_TOL = 1e-7


def _linear_product(factors, poly=(1.0,)) -> list[float]:
    """Ascending coefficients of poly (ascending coefficients) times the linear factors a + b lam, given as (a, b), in turn."""
    out = list(poly)
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
        (i, j) holds the ascending coefficients of prod_{k not in {i, j}} c_k, zero-padded.

        Each product takes its factors in ascending k from 1, as
        `_linear_product` of them does, and shares its leading factors with
        the pairs before it: it continues the product of the factors before
        i, then before j but i."""
        d, fac = self.dim, self.factors
        pairs, prods = [], []
        head = [1.0]  # the product of the factors before i
        for i in range(d):
            mid = head  # the product of the factors before j, but i
            for j in range(i, d):
                if j > i + 1:
                    mid = _linear_product([fac[j - 1]], mid)
                c = _linear_product(fac[j + 1 :], mid)
                pairs.append((i, j))
                prods.append(c + [0.0] * (d - len(c)))
            head = _linear_product([fac[i]], head)
        return np.array(pairs).T, np.array(prods)


def _near_pole(fam: ConfocalFamily, lam):
    """Where lam (a float or an array) is within the pole tolerance of a pole: |lam - pole_k| = |c_k(lam)| exactly."""
    return np.logical_or.reduce([np.abs(lam + ek * a2k) <= fam.pole_tolerance for a2k, ek in fam.factors])


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

    The monomials v_i^2 and -(x_i v_j - x_j v_i)^2 of all rows, times their
    products of c_k, form one (pairs, d, rows) array, reduced over its
    outermost axis: term after term in pair order from +0, so a row's
    coefficients do not depend on the rows evaluated with it.  Overflow gives
    non-finite coefficients, not an exception.
    """
    xs, vs = np.asarray(xs, dtype=float), np.asarray(vs, dtype=float)
    if xs.shape != vs.shape or xs.shape[-1:] != (fam.dim,):
        raise ValueError(f"phase arrays {xs.shape} and {vs.shape} do not match family dimension {fam.dim}")
    (i, j), prods = fam._q_terms
    xt, vt = xs.reshape(-1, fam.dim).T, vs.reshape(-1, fam.dim).T
    with np.errstate(over="ignore", invalid="ignore"):
        w = xt[i] * vt[j] - xt[j] * vt[i]
        mono = np.where((i == j)[:, None], vt[i] * vt[j], -(w * w))
        return np.add.reduce(mono[:, None] * prods[:, :, None], axis=0, initial=0.0).T.reshape(xs.shape)


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
    """All real tangency parameters of the line of r: Q on its one row, solved as the recorder solves its rows.

    Raises RootIsolationFailure where that row cannot be solved.
    """
    q = tangency_polynomial(fam, r.x, r.v)[None]
    lambdas, near_pole, error = _solve(fam, q, classify_vector(r.v, fam.sig) is VectorType.LIGHTLIKE)
    if error is not None:
        raise error
    return TangencySet(*(tuple(row[~np.isnan(row)].tolist()) for row in (lambdas[0], near_pole[0])))


def _solve(fam: ConfocalFamily, q: np.ndarray, lightlike: bool):
    """The tangency parameters of the lines whose Q has the coefficients q, one row (of length d) per line.

    A light-like line drops Q's top coefficient, (prod e) <v,v>, so each row
    has `width` = d - 1 - lightlike roots at most; a row whose top
    coefficients are exactly zero is solved at its lower degree (_roots).
    Each root gets one Newton step, by Horner's rule from 0, kept where |Q|
    does not grow; roots near a pole are set aside.  Every step is
    elementwise or per matrix (on q.T), so a row gets what it gets alone.

    Returns the kept and the set-aside roots of the rows before the first
    that cannot be solved, (solved, width) each, sorted and padded with NaN,
    and that row's RootIsolationFailure (Q not finite, or its companion
    matrix refused), or None.
    """
    rows, width = len(q), q.shape[1] - 1 - lightlike
    solved = rows if np.isfinite(q).all() else int(np.argmin(np.isfinite(q).all(axis=1)))
    error = None if solved == rows else RootIsolationFailure(f"tangency polynomial not finite: {q[solved].tolist()}")
    q, roots = q.T, np.full((width, rows), np.nan)
    pending = np.arange(rows) < solved  # the rows of degree below n
    with np.errstate(all="ignore"):
        for n in range(width, 0, -1):
            at = pending & (q[n] != 0.0)
            pending &= ~at
            if not at.any():
                continue
            qn = q[: n + 1].compress(at, axis=1)
            z, refused, exc = _roots(qn)
            if exc is not None and np.flatnonzero(at)[refused] < solved:
                solved, error = int(np.flatnonzero(at)[refused]), RootIsolationFailure(f"companion eigenvalues failed: {exc}")
            val = der = at_step = 0.0
            for c in qn[::-1]:
                der, val = der * z + val, val * z + c
            step = z - val / der
            for c in qn[::-1]:
                at_step = at_step * step + c
            roots[:n, at] = np.where((der != 0.0) & (np.abs(at_step) <= np.abs(val)), step, z)
        near = _near_pole(fam, roots)
    lambdas, near_pole = (np.sort(np.where(side, roots, np.nan), axis=0, kind="stable").T[:solved] for side in (~near, near))
    return lambdas, near_pole, error


def _roots(q: np.ndarray):
    """The real roots of the polynomials q[:, m] (ascending coefficients, all of degree n >= 1, top one non-zero).

    Root k of polynomial m is entry [k, m], NaN where |imag| > REAL_TOL *
    max(1, |real|); a complex pair that is real is a double root.  Degrees 1
    and 2 take the closed form; above, as numpy's polyroots, one stacked
    np.linalg.eigvals of the companion matrices solves each as alone, and
    the roots are sorted.  Also returns the first matrix LAPACK refuses and
    its LinAlgError (the first not finite, else the first of the stack), or
    (polynomials, None).
    """
    n, k = len(q) - 1, q.shape[1]
    if n == 1:
        return -q[:1] / q[1:], k, None
    if n == 2:
        c, b, a = q
        disc = b * b - 4.0 * a * c
        re = -b / (2.0 * a)
        double = np.abs(np.sqrt(-disc) / (2.0 * a)) <= REAL_TOL * np.fmax(1.0, np.abs(re))
        s = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        return np.where(disc < 0.0, np.where(double, re, np.nan), np.where(s != 0.0, (s / a, c / s), 0.0)), k, None
    companion = np.zeros((k, n, n))
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, :, -1] -= (q[:-1] / q[-1]).T
    try:
        z = np.sort(np.linalg.eigvals(companion), axis=1)
    except np.linalg.LinAlgError as exc:
        refused = int(np.argmin(np.isfinite(companion).all(axis=(1, 2))))
        roots = np.full((n, k), np.nan)
        roots[:, :refused], first, first_exc = _roots(q[:, :refused])
        return (roots, first, first_exc) if first_exc else (roots, refused, exc)
    return np.where(np.abs(z.imag) <= REAL_TOL * np.fmax(1.0, np.abs(z.real)), z.real, np.nan).T, k, None

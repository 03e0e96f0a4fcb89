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
a pole are set aside, and every root is re-verified against |G|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PoleParameter, RootIsolationFailure
from .pecore import LIGHTLIKE_TOL, Ellipsoid, Quadric, RayState, Signature

#: Roots closer than this times max(a_i^2) to a pole are discarded as spurious.
POLE_FILTER_FACTOR = 1e-7

#: Normalized |G| threshold for accepting a polished root as a tangency.
VERIFY_TOL = 1e-9

#: A root of Q counts as real when |imag| <= REAL_TOL * max(1, |real|); real
#: roots that close to each other are flagged as one multiple root.
REAL_TOL = 1e-7

_poly = np.polynomial.polynomial


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

    def poles(self) -> np.ndarray:
        """Sorted distinct pole parameters lam = -e_i a_i^2."""
        return np.unique(-self.sig.e * self.ellipsoid.a2)

    @cached_property
    def pole_tolerance(self) -> float:
        return POLE_FILTER_FACTOR * float(np.max(self.ellipsoid.a2))

    @cached_property
    def factors(self) -> list[tuple[float, float]]:
        """The linear factors c_i(lam) = a_i^2 + e_i lam as pairs (a_i^2, e_i)."""
        return list(zip(self.ellipsoid.a2.tolist(), self.sig.e.tolist()))

    @cached_property
    def _q_products(self) -> list[tuple[int, int, list[float]]]:
        """(i, j, ascending coefficients of prod_{k not in {i, j}} c_k) for all i <= j."""
        lin = self.factors
        return [
            (i, j, _linear_product([f for k, f in enumerate(lin) if k not in (i, j)]))
            for i in range(self.dim)
            for j in range(i, self.dim)
        ]


def member(fam: ConfocalFamily, lam: float) -> Quadric:
    """The family member at parameter lam.

    Raises PoleParameter when lam is within the pole tolerance of a pole.
    """
    lam = float(lam)
    if np.min(np.abs(fam.poles() - lam)) <= fam.pole_tolerance:
        raise PoleParameter(f"lambda = {lam} is at (or within tolerance of) a family pole")
    return Quadric(fam.coefficients(lam))


def _discriminant_terms(lin: list, x: list, v: list, lam: float) -> tuple[float, float]:
    """The two competing terms (x.Bv)^2 and (v.Bv)(x.Bx - 1) of G at lam; G is their difference."""
    xbv = vbv = xbx = 0.0
    for (a2k, ek), xk, vk in zip(lin, x, v):
        c = a2k + ek * lam
        xbv += xk * vk / c
        vbv += vk * vk / c
        xbx += xk * xk / c
    return xbv * xbv, vbv * (xbx - 1.0)


def tangency_discriminant(fam: ConfocalFamily, r: RayState, lam: float) -> float:
    """G(lam) for the line of r; zero iff the line is tangent to member(fam, lam)."""
    lam = float(lam)
    if np.min(np.abs(fam.poles() - lam)) <= fam.pole_tolerance:
        raise PoleParameter(f"lambda = {lam} is at (or within tolerance of) a family pole")
    if r.dim != fam.dim:
        raise ValueError(f"ray dimension {r.dim} != family dimension {fam.dim}")
    first, second = _discriminant_terms(fam.factors, r.x.tolist(), r.v.tolist(), lam)
    return first - second


def cleared_polynomial(fam: ConfocalFamily, r: RayState) -> np.ndarray:
    """Coefficients (ascending, length 2d) of P(lam) = G(lam) * prod_i c_i(lam)^2.

    P is polynomial of degree <= 2d - 1 in dimension d, and P = Q * prod_i c_i
    for the tangency polynomial Q.  Its top coefficient equals <v,v>, which
    is the degree-drop mechanism for light-like directions.  Expansion uses

        P = S_xv^2 - S_vv * (S_xx - C),

    with C = prod_i c_i,  S_ww = sum_i w_i^2 prod_{j != i} c_j, and
    S_xv = sum_i x_i v_i prod_{j != i} c_j.
    """
    if r.dim != fam.dim:
        raise ValueError(f"ray dimension {r.dim} != family dimension {fam.dim}")
    lin = fam.factors
    partial = np.array([_linear_product(lin[:i] + lin[i + 1 :]) for i in range(len(lin))])
    s_xv, s_vv, s_xx = (w @ partial for w in (r.x * r.v, r.v * r.v, r.x * r.x))
    p = _poly.polysub(
        _poly.polymul(s_xv, s_xv), _poly.polymul(s_vv, _poly.polysub(s_xx, _linear_product(lin)))
    )
    out = np.zeros(2 * len(lin))
    out[: p.shape[0]] = p
    return out


def tangency_polynomial(fam: ConfocalFamily, r: RayState) -> np.ndarray:
    """Coefficients (ascending, length d) of Q, whose real roots are the tangency parameters.

    Q(lam) = sum_i v_i^2 prod_{j != i} c_j - sum_{i<j} (x_i v_j - x_j v_i)^2 prod_{k != i,j} c_k.
    No factor divides by e_i a_k^2 - e_k a_i^2, so resonant axes need no
    special case.
    """
    if r.dim != fam.dim:
        raise ValueError(f"ray dimension {r.dim} != family dimension {fam.dim}")
    x, v = r.x.tolist(), r.v.tolist()
    q = [0.0] * fam.dim
    for i, j, prod in fam._q_products:
        w = v[i] * v[i] if i == j else -((x[i] * v[j] - x[j] * v[i]) ** 2)
        for k, c in enumerate(prod):
            q[k] += w * c
    return np.array(q)


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
    try:
        roots = _poly.polyroots(q)
    except np.linalg.LinAlgError as exc:
        raise RootIsolationFailure(f"companion eigenvalues failed: {exc}") from exc
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
    """Sorted tangency parameters of a line, with multiplicity flags.

    Every real root of Q is listed, a multiple root once per multiplicity,
    so `count` is the number of real roots counted with multiplicity.  The
    entries of a multiple root are flagged 2.  `near_pole` lists roots
    discarded by the spurious-root filter, kept for diagnostics only.
    """

    lambdas: tuple[float, ...]
    multiplicities: tuple[int, ...] = field(default=())
    near_pole: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.multiplicities:
            object.__setattr__(self, "multiplicities", tuple(1 for _ in self.lambdas))
        if len(self.multiplicities) != len(self.lambdas):
            raise ValueError("multiplicity flags must match the parameter list")
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("tangency parameters must be sorted ascending")

    @property
    def count(self) -> int:
        return len(self.lambdas)

    @property
    def has_multiple(self) -> bool:
        return any(m > 1 for m in self.multiplicities)


def tangency_parameters(fam: ConfocalFamily, r: RayState) -> TangencySet:
    """All real tangency parameters of the line of r: the real roots of Q.

    For a light-like direction (|<v,v>| <= LIGHTLIKE_TOL |v|^2) Q's top
    coefficient is dropped.  The roots (closed form up to degree 2, Q's
    companion matrix above) get one Newton step on Q, kept where it lowers
    |Q|.  Roots within the pole tolerance of a pole are reported in
    `near_pole` only, and a root is kept only where |G| <= VERIFY_TOL times
    the size of G's two terms.
    """
    if r.dim != fam.dim:
        raise ValueError(f"ray dimension {r.dim} != family dimension {fam.dim}")
    x, v = r.x.tolist(), r.v.tolist()
    if not all(math.isfinite(c) for c in x + v):
        raise RootIsolationFailure("non-finite ray state")

    q = tangency_polynomial(fam, r).tolist()
    if not all(math.isfinite(c) for c in q):
        raise RootIsolationFailure(f"tangency polynomial not finite: {q}")
    if abs(q[-1]) <= LIGHTLIKE_TOL * sum(c * c for c in v):  # |q[-1]| = |<v,v>|: light-like
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

    lin, pole_tol = fam.factors, fam.pole_tolerance
    kept: list[float] = []
    near_pole: list[float] = []
    for lam in lams:
        if min(abs(a2k + ek * lam) for a2k, ek in lin) <= pole_tol:  # |lam - pole| = |c_k(lam)|
            near_pole.append(lam)
            continue
        first, second = _discriminant_terms(lin, x, v, lam)
        if abs(first - second) <= VERIFY_TOL * max(1.0, first, abs(second)):
            kept.append(lam)

    mult = [1] * len(kept)
    for i in range(len(kept) - 1):
        if kept[i + 1] - kept[i] <= REAL_TOL * max(1.0, abs(kept[i + 1])):
            mult[i] = mult[i + 1] = 2
    return TangencySet(
        lambdas=tuple(kept),
        multiplicities=tuple(mult),
        near_pole=tuple(near_pole),
    )

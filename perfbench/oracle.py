"""Independent reference computations for the benchmark's output checks.

Nothing here imports the program under test.  Every function re-derives a
quantity from the paper's formulas (or from the documented table format),
so a check compares the program's output with a second, separate
computation rather than with a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble


def signs(p: int, q: int) -> np.ndarray:
    """Diagonal of the metric of signature (p, q)."""
    return np.array([1.0] * p + [-1.0] * q)


def _denominators(a2, e) -> np.ndarray:
    """den[k, i] = e_i a_k^2 - e_k a_i^2, with an infinite diagonal."""
    a2 = np.asarray(a2, LD)
    e = np.asarray(e, LD)
    den = np.outer(a2, e) - np.outer(e, a2)
    np.fill_diagonal(den, np.inf)
    return den


def integrals(xs, vs, a2, e) -> tuple[np.ndarray, np.ndarray]:
    """F_k at each row of (xs, vs), in extended precision, and the size of its terms.

    F_k = e_k v_k^2 + sum_{i != k} (x_i v_k - x_k v_i)^2 / (e_i a_k^2 - e_k a_i^2).
    The second array sums the absolute values of the terms, the scale that
    rounding errors in the inputs are relative to.
    """
    xs = np.atleast_2d(np.asarray(xs, LD))
    vs = np.atleast_2d(np.asarray(vs, LD))
    e = np.asarray(e, LD)
    den = _denominators(a2, e)
    w = vs[:, :, None] * xs[:, None, :] - xs[:, :, None] * vs[:, None, :]
    terms = w * w / den
    f = e * vs * vs + terms.sum(axis=2)
    size = vs * vs + np.abs(terms).sum(axis=2)
    return f, size


def tangency_roots(x, v, a2, e, null: bool) -> np.ndarray:
    """Sorted real roots of Q(lam) = sum_k e_k F_k prod_{j != k} (a_j^2 + e_j lam).

    Q's top coefficient is (prod e) <v,v>; for a light-like ray it is zero
    and is dropped, which is the paper's one-parameter-fewer case.
    """
    d = len(x)
    f = integrals(x, v, a2, e)[0][0].astype(float)
    poly = np.polynomial.polynomial
    q = np.zeros(d)
    for k in range(d):
        term = np.array([e[k] * f[k]])
        for j in range(d):
            if j != k:
                term = poly.polymul(term, [a2[j], e[j]])
        q[: len(term)] += term
    if null:
        q = q[:-1]
    if len(q) < 2:
        return np.zeros(0)
    roots = poly.polyroots(q)
    real = roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots.real))]
    return np.sort(real)


def root_rounding_bound(x, v, a2, e, null: bool, roots) -> np.ndarray:
    """First-order change of each root of Q when x and v are rounded to float64.

    eps * sum_i |z_i| |d lam / d z_i| over the components z of (x, v), with
    the derivatives by forward differences of relative step 1e-10.  Near a
    caustic the roots are ill-conditioned: rounding the recorded state moves
    them far more than eps.  Where the step changes the root count (a
    near-double root) no allowance is given.
    """
    d = len(x)
    z = np.concatenate([x, v]).astype(float)
    bound = np.zeros(len(roots))
    for i in np.flatnonzero(z):
        zp = z.copy()
        zp[i] *= 1.0 + 1e-10
        moved = tangency_roots(zp[:d], zp[d:], a2, e, null)
        if len(moved) != len(roots):
            return np.zeros(len(roots))
        bound += np.abs(moved - roots) / 1e-10
    return np.finfo(float).eps * bound


def gradients(x, v, a2, e) -> tuple[np.ndarray, np.ndarray]:
    """dF_k/dx_i and dF_k/dv_i at one phase point, as (d, d) arrays [k, i]."""
    x = np.asarray(x, LD)
    v = np.asarray(v, LD)
    e = np.asarray(e, LD)
    den = _denominators(a2, e)
    d = len(x)
    gx = np.zeros((d, d), LD)
    gv = np.zeros((d, d), LD)
    for k in range(d):
        gv[k, k] = 2 * e[k] * v[k]
        for i in range(d):
            if i == k:
                continue
            w = x[i] * v[k] - x[k] * v[i]
            gx[k, i] += 2 * w * v[k] / den[k, i]
            gx[k, k] -= 2 * w * v[i] / den[k, i]
            gv[k, k] += 2 * w * x[i] / den[k, i]
            gv[k, i] -= 2 * w * x[k] / den[k, i]
    return gx, gv


def normalized_bracket(x, v, a2, e, j: int, k: int) -> float:
    """|{F_j, F_k}| / (|grad F_j| |grad F_k|), with the bracket in velocity variables."""
    gx, gv = gradients(x, v, a2, e)
    e = np.asarray(e, LD)
    br = np.sum(e * (gx[j] * gv[k] - gv[j] * gx[k]))
    nj = np.sqrt(np.sum(gx[j] ** 2) + np.sum(gv[j] ** 2))
    nk = np.sqrt(np.sum(gx[k] ** 2) + np.sum(gv[k] ** 2))
    return float(abs(br) / (nj * nk))


class Table:
    """Radius r(theta) of a CLI oval table document, from its documented format.

    Kinds: "ellipse" (semi_axes, center), "ellipse_form" (form M, center:
    (p - c)^T M (p - c) = 1) and "radial" (base ellipse plus bumps
    [anchor, value, tilt, halfwidth], each adding (value + tilt d)(1 - (d/h)^2)^3
    at wrapped angular offset d from its anchor, for |d| < h).
    """

    def __init__(self, doc: dict):
        kind = doc["kind"]
        self.bumps = []
        if kind == "radial":
            self.bumps = [tuple(float(c) for c in b) for b in doc.get("bumps", [])]
            doc = doc["base"]
            kind = doc["kind"]
        if kind == "ellipse":
            a, b = (float(s) for s in doc["semi_axes"])
            self.form = np.diag([1.0 / a**2, 1.0 / b**2])
        elif kind == "ellipse_form":
            self.form = np.asarray(doc["form"], dtype=float)
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        self.center = np.asarray(doc.get("center", [0.0, 0.0]), dtype=float)

    def radius(self, theta):
        """r(theta) and r'(theta), vectorised over theta."""
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        (m00, m01), (_, m11) = self.form
        q = m00 * c * c + 2 * m01 * c * s + m11 * s * s
        q1 = 2 * ((m11 - m00) * c * s + m01 * (c * c - s * s))
        r = q**-0.5
        r1 = -0.5 * q**-1.5 * q1
        for anchor, value, tilt, half in self.bumps:
            d = np.mod(theta - anchor + np.pi, 2 * np.pi) - np.pi
            xi = d / half
            inside = np.abs(xi) < 1.0
            one = np.where(inside, 1.0 - xi * xi, 0.0)
            r = r + (value + tilt * d) * one**3
            r1 = r1 + tilt * one**3 - 6.0 * (value + tilt * d) * xi * one**2 / half
        return r, r1

    def off_curve(self, pts) -> np.ndarray:
        """Radial distance of each point from the curve, |p - c| - r(angle of p)."""
        rel = np.atleast_2d(pts) - self.center
        r, _ = self.radius(np.arctan2(rel[:, 1], rel[:, 0]))
        return np.hypot(rel[:, 0], rel[:, 1]) - r

    def slope(self, theta):
        """dy/dx of the tangent at theta."""
        r, r1 = self.radius(theta)
        c, s = np.cos(theta), np.sin(theta)
        return (r1 * s + r * c) / (r1 * c - r * s)


def tilted_form(a: float, b: float, n: int) -> list[list[float]]:
    """Ellipse form whose null-chart chord map has period n in its parameter.

    For the form [[1/a^2, m], [m, 1/b^2]] the vertical and horizontal chord
    involutions are reflections, in the affine frame that makes the ellipse
    a circle, across lines at angle phi with cos(phi) = -m a b.  Their
    composition (one oval_map) is a rotation by 2 phi, so phi = pi / n makes
    every orbit close after n oval_map steps.
    """
    m = -np.cos(np.pi / n) / (a * b)
    return [[1.0 / a**2, m], [m, 1.0 / b**2]]

"""Light-like billiards in convex plane ovals, in null coordinates.

This module works in the chart where the plane metric is the product of the
two coordinate differentials, so the null directions are exactly vertical
and horizontal.  The light-like billiard inside a closed strictly convex
curve is then the chord map: from a point draw the vertical line to its
second intersection, then the horizontal line, and so on.

Conventions
-----------
* Curves are parameterized by the angle about an interior center point and
  must be polar graphs about it: point(t) = center + r(t) (cos t, sin t).
* A chord direction is the coordinate it keeps: VERTICAL = 0 (a vertical
  chord keeps x) and HORIZONTAL = 1.  Directions alternate, so chord step j
  of a walk has direction j % 2.
* `oval_map` applies a vertical chord step followed by a horizontal one.
* A closed null polygon P_1 .. P_{2n} stores its vertices so that the chord
  P_1 -> P_2 is horizontal and directions alternate; the closing chord
  P_{2n} -> P_1 is vertical.
* Slopes are signed dy/dx.  A reflection turns a horizontal velocity (1, 0)
  at a point of slope t into (0, t) and a vertical one (0, 1) into (1/t, 0),
  so a full traversal multiplies the speed by

      (t_2 t_4 ... t_{2n}) / (t_1 t_3 ... t_{2n-1}).

* The orthonormal chart of the ellipsoid billiard (metric diag(1, -1)) is
  reached by the fixed involution u = (x + y)/sqrt(2), w = (x - y)/sqrt(2),
  owned by this module.

Evaluation
----------
* Floats in, floats out: a curve's radius, points, tangents and slopes take
  one angle as a Python float and return floats (a point or a tangent as an
  (x, y) tuple), computed with the math module.  A caller with several
  angles loops over them.
* The one array is the SCAN_GRID: its angles, and their cos and sin taken
  with math once at import, are module constants.  Each curve evaluates
  r, r', r'' on them once (`grid_derivs`, read-only), and both the extremum
  scan and a radial table's convexity check read that array.  A radial
  table copies its base ellipse's grid, so the candidate tables of one
  synthesis share one base evaluation.  The grid is built only from
  + - * /, sqrt and math, which round alike on every CPU that numpy
  dispatches to, so its entries equal the float path's at the same angles.
  A synthesis therefore skips, unbuilt, a candidate whose float-path
  curvature numerator at one scan angle is at most the best margin so far.
  An ellipse's radius (cos, sin and sqrt chosen once, by whether the angle
  is the grid), a bump's shape and the curvature numerator are the only
  formulas written for both a float and the grid.
* A bump is its wrapped offset d from the anchor (`RadialBump.offset`) and
  its shape g, g', g'' at d (`RadialBump.shape`), one clipped formula per
  quantity.  A float angle wraps each offset once, for the support test, and
  only an offset inside the support reaches the shape.  On the grid the
  shape clips d / halfwidth to [-1, 1], so outside its support a bump adds
  an exact zero.  It is evaluated only on the index range that covers its
  support (two slices where it wraps past 2 pi) and added there in place,
  and the sums equal the whole-grid ones.  The offsets on that range are
  kept read-only on the base ellipse, per anchor, and a narrower range is a
  slice of them, so the candidate tables of one synthesis wrap each vertex's
  offsets once, not once per candidate.
* An ellipse's chord partner is the other root of its quadratic in the free
  coordinate, and its coordinate-k extrema lie along +-M^-1 e_k: both closed
  form.  Other curves solve both by one guarded Newton iteration
  (`_guarded_newton`): the extrema inside the cells of a grid scan where the
  coordinate's derivative changes sign, and the partner on the arc between
  them, seeded at the base ellipse's closed-form partner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    ConvexityViolation,
    DegenerateChord,
    InfeasibleSlopes,
    NoConvergence,
    ZeroSlope,
)
from .pecore import Ellipsoid, _readonly

#: Chord directions, as the coordinate a chord keeps: a vertical chord keeps x.
VERTICAL = 0
HORIZONTAL = 1

#: Angular distance to a coordinate extremum below which a chord is degenerate.
DEGENERATE_TOL = 1e-9

#: Grid used for extrema search and construction-time convexity checks.
SCAN_GRID = 4096

TWO_PI = 2.0 * math.pi

#: The SCAN_GRID angles i * 2 pi / SCAN_GRID, their spacing, cosines and sines.
_SCAN_ANGLES = _readonly(np.linspace(0.0, TWO_PI, SCAN_GRID, endpoint=False))
_SCAN_STEP = TWO_PI / SCAN_GRID
# From math, one angle at a time: numpy's array cos and sin round by CPU.
_SCAN_COS = _readonly(np.array([math.cos(t) for t in _SCAN_ANGLES.tolist()]))
_SCAN_SIN = _readonly(np.array([math.sin(t) for t in _SCAN_ANGLES.tolist()]))

#: Step (radians) below which the guarded Newton root solve stops.
ROOT_XTOL = 1e-14

#: Iterations after which the guarded Newton root solve gives up.
ROOT_MAX_ITER = 100

_R45 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def to_null_chart(xy: np.ndarray) -> np.ndarray:
    """Map orthonormal-chart coordinates (x, y) to null-chart (u, w); the map is an involution."""
    return np.asarray(xy, dtype=float) @ _R45.T


def wrap_angle(t: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    t = float(t) % TWO_PI
    # A tiny negative t rounds up to exactly 2*pi.
    return 0.0 if t == TWO_PI else t


def signed_angle_gap(a: float, b: float) -> float:
    """Signed circular difference a - b reduced to (-pi, pi]."""
    d = (float(a) - float(b) + math.pi) % TWO_PI - math.pi
    return math.pi if d == -math.pi else d


def _guarded_newton(fdf, lo: float, hi: float, t: float, rising: bool, what: str) -> float:
    """Root of f on [lo, hi] by Newton from t, bisecting where a step leaves the bracket.

    fdf(t) returns f(t) and f'(t) as floats; f changes sign on the bracket,
    from negative to positive when `rising`.  The sign of each new f shrinks
    the bracket (Numerical Recipes' rtsafe), and the iteration stops once a
    step is at most ROOT_XTOL.  Raises NoConvergence on a non-finite f or
    after ROOT_MAX_ITER steps.
    """
    neg, pos = (lo, hi) if rising else (hi, lo)
    for _ in range(ROOT_MAX_ITER):
        f, df = fdf(t)
        if f == 0.0:
            return t
        if not math.isfinite(f):
            raise NoConvergence(f"{what}: function not finite at {t}")
        if f < 0.0:
            neg = t
        else:
            pos = t
        step = f / df if df != 0.0 else math.nan
        if abs(step) <= ROOT_XTOL:
            return t - step
        # A step onto a bracket end is a step out: where rounding noise in f
        # outweighs f' * ROOT_XTOL, Newton would hop between the two ends.
        new = t - step
        if not min(neg, pos) < new < max(neg, pos):
            new = 0.5 * (neg + pos)
            if abs(new - t) <= ROOT_XTOL:
                return new
        t = new
    raise NoConvergence(f"{what}: no root to {ROOT_XTOL} after {ROOT_MAX_ITER} steps")


class OvalCurve:
    """Closed strictly convex curve given as a polar graph about a center.

    Subclasses provide radius_derivs; everything else (points, slopes,
    chord partners) lives here.  radius_derivs, point, velocity and slope
    take one angle as a Python float and return floats (a point or velocity
    as an (x, y) tuple).  The only array is grid_derivs, on the SCAN_GRID
    angles; a subclass whose radius_derivs does not take the grid itself
    overrides _evaluate_grid.
    """

    center: np.ndarray
    _center: tuple[float, float]
    #: Ellipse the curve perturbs, whose closed-form partner seeds chord_partner.
    base: EllipseOval | None = None

    def radius_derivs(self, theta):
        """Radius and its first two angle derivatives."""
        raise NotImplementedError

    def point(self, theta: float) -> tuple[float, float]:
        c, s = math.cos(theta), math.sin(theta)
        r, _, _ = self.radius_derivs(theta)
        return self._center[0] + r * c, self._center[1] + r * s

    def velocity(self, theta: float) -> tuple[float, float]:
        """Tangent d/dtheta of the parameterization, components (x', y')."""
        c, s = math.cos(theta), math.sin(theta)
        r, r1, _ = self.radius_derivs(theta)
        return r1 * c - r * s, r1 * s + r * c

    def slope(self, theta: float) -> float:
        """Signed dy/dx of the tangent line at the given parameter."""
        dx, dy = self.velocity(theta)
        return dy / dx if dx != 0.0 else math.copysign(math.inf, dy)

    @functools.cached_property
    def grid_derivs(self) -> np.ndarray:
        """r, r' and r'' on the SCAN_GRID angles: the rows of a read-only (3, SCAN_GRID) array.

        Evaluated once per curve, on first use; the extremum scan reads it.
        """
        grid = self._evaluate_grid()
        grid.setflags(write=False)
        return grid

    def _evaluate_grid(self) -> np.ndarray:
        return np.array(self.radius_derivs(_SCAN_ANGLES))

    def _coordinate_derivs(self, theta: float, axis: int) -> tuple[float, float, float]:
        """Coordinate `axis` of point(theta) and its first two theta-derivatives, on a float."""
        r, r1, r2 = self.radius_derivs(theta)
        u, w = (math.cos(theta), -math.sin(theta)) if axis == 0 else (math.sin(theta), math.cos(theta))
        return self._center[axis] + r * u, r1 * u + r * w, (r2 - r) * u + 2.0 * r1 * w

    def coordinate_extrema(self, axis: int) -> tuple[float, float]:
        """The two parameters where the given coordinate is extremal, ascending.

        The coordinate's derivative on the SCAN_GRID angles (from
        grid_derivs) must change sign in exactly two cells, else the curve
        is not strictly convex; each cell's root is then solved by the
        guarded Newton on the first and second derivatives, seeded by the
        secant of the scan.  The cache keeps the coordinate's values at both
        extrema next to them, for chord_partner.
        """
        cache = self.__dict__.setdefault("_extrema_cache", {})
        if axis not in cache:
            r, r1, _ = self.grid_derivs
            u, w = (_SCAN_COS, -_SCAN_SIN) if axis == 0 else (_SCAN_SIN, _SCAN_COS)
            der = r1 * u + r * w
            nxt = np.roll(der, -1)
            cells = np.flatnonzero((der == 0.0) | (der * nxt < 0.0))
            if len(cells) != 2:
                raise ConvexityViolation(
                    f"expected exactly two extrema of coordinate {axis}, found {len(cells)}"
                )

            def fdf(t: float) -> tuple[float, float]:
                return self._coordinate_derivs(t, axis)[1:]

            roots = []
            for i in cells:
                # The last cell ends at 2 pi, scanned as 0; the solve's own
                # signs decide a root within an ulp of either end.
                lo, d0, d1 = float(_SCAN_ANGLES[i]), float(der[i]), float(nxt[i])
                if d0 == 0.0:
                    roots.append(lo)
                    continue
                seed = lo + _SCAN_STEP * d0 / (d0 - d1)
                roots.append(
                    _guarded_newton(
                        fdf, lo, lo + _SCAN_STEP, seed, d0 < 0.0, f"extremum of coordinate {axis}"
                    )
                )
            angles = tuple(sorted(wrap_angle(t) for t in roots))
            cache[axis] = angles, tuple(self._coordinate_derivs(t, axis)[0] for t in angles)
        return cache[axis][0]

    def chord_partner(self, theta: float, axis: int) -> float:
        """Parameter of the other point of the curve with the same coordinate `axis`.

        Strict convexity splits the curve into two monotone arcs per
        coordinate, between its two extrema; the partner lies on the arc not
        containing theta and is solved there by the guarded Newton, seeded
        at the base ellipse's closed-form partner when the curve has one.
        theta must lie in [0, 2*pi) and off the extrema, as chord_step
        ensures; the result is not wrapped.
        """
        t_lo, t_hi = self.coordinate_extrema(axis)
        x_lo, x_hi = self._extrema_cache[axis][1]
        target = self._coordinate_derivs(theta, axis)[0]
        if t_lo < theta < t_hi:
            lo, hi, flo, fhi = t_hi, t_lo + TWO_PI, x_hi - target, x_lo - target
        else:
            lo, hi, flo, fhi = t_lo, t_hi, x_lo - target, x_hi - target
        if flo == 0.0 or fhi == 0.0:
            # The coordinate at theta equals an extremum's in float64 (theta
            # within ~1.5e-8 of it): the only partner is the extremum itself.
            raise DegenerateChord(f"parameter {theta} is at a coordinate-{axis} extremum in float64")
        if flo * fhi > 0.0:
            raise DegenerateChord("chord endpoint could not be bracketed; point is at an extremum")
        seed = 0.5 * (lo + hi)
        if self.base is not None:
            guess = lo + (self.base.chord_partner(theta, axis) - lo) % TWO_PI
            if guess <= hi:
                seed = guess

        def fdf(t: float) -> tuple[float, float]:
            x, dx, _ = self._coordinate_derivs(t, axis)
            return x - target, dx

        return _guarded_newton(fdf, lo, hi, seed, flo < 0.0, "chord partner")


class EllipseOval(OvalCurve):
    """Centered ellipse (x - c)^T M (x - c) = 1 for a symmetric positive form M.

    Chord partners and coordinate extrema are closed form.
    """

    def __init__(self, form: np.ndarray, center=(0.0, 0.0)):
        form = np.asarray(form, dtype=float)
        if form.shape != (2, 2) or not abs(float(form[0, 1]) - float(form[1, 0])) <= 1e-14:
            raise ValueError("form must be a symmetric 2x2 matrix")
        # On Python floats, which overflow to inf without a numpy warning.
        (m00, m01), (m10, m11) = form.tolist()
        if not (m00 > 0.0 and 0.0 < m00 * m11 - m01 * m10 < math.inf):
            raise ValueError("form must be positive definite, with a finite determinant")
        self.form = form
        self.center = np.asarray(center, dtype=float)
        self._center = (float(self.center[0]), float(self.center[1]))
        self._m = (m00, m01, m11)

    @classmethod
    def axis_aligned(cls, a: float, b: float, center=(0.0, 0.0)) -> "EllipseOval":
        if not (a > 0 and b > 0):
            raise ValueError("semi-axes must be positive")
        try:
            form = np.diag([1.0 / a**2, 1.0 / b**2])
        except (OverflowError, ZeroDivisionError):  # a square past the float range, or 0.0
            raise ValueError(f"semi-axes {a}, {b} must have finite non-zero squares") from None
        return cls(form, center)

    def radius_derivs(self, theta):
        """r, r' and r'' at a float angle, or as arrays on the SCAN_GRID angles themselves."""
        if theta is _SCAN_ANGLES:
            c, s, sqrt = _SCAN_COS, _SCAN_SIN, np.sqrt
        else:
            c, s, sqrt = math.cos(theta), math.sin(theta), math.sqrt
        m00, m01, m11 = self._m
        q = m00 * c * c + 2.0 * m01 * c * s + m11 * s * s
        q1 = 2.0 * ((m11 - m00) * c * s + m01 * (c * c - s * s))
        q2 = 2.0 * ((m11 - m00) * (c * c - s * s) - 4.0 * m01 * c * s)
        # r = q^-1/2; the higher powers are products, which round alike on every CPU.
        r = 1.0 / sqrt(q)
        r3 = r * r * r
        r1 = -0.5 * r3 * q1
        r2 = 0.75 * (r3 * r * r) * q1 * q1 - 0.5 * r3 * q2
        return r, r1, r2

    def coordinate_extrema(self, axis: int) -> tuple[float, float]:
        """Coordinate `axis` is extremal along +-M^-1 e_axis."""
        m00, m01, m11 = self._m
        t = math.atan2(-m01, m11) if axis == 0 else math.atan2(m00, -m01)
        a, b = wrap_angle(t), wrap_angle(t + math.pi)
        return (a, b) if a < b else (b, a)

    def chord_partner(self, theta: float, axis: int) -> float:
        """The other root of the ellipse's quadratic in the free coordinate."""
        theta = float(theta)
        r, _, _ = self.radius_derivs(theta)
        dx, dy = r * math.cos(theta), r * math.sin(theta)
        m00, m01, m11 = self._m
        if axis == 0:
            dy = -2.0 * m01 * dx / m11 - dy
        else:
            dx = -2.0 * m01 * dy / m00 - dx
        return math.atan2(dy, dx)


@dataclass(frozen=True)
class RadialBump:
    """Compactly supported radial perturbation (value + tilt) at one angle.

    g(t) = (value + tilt * d) * psi(d / halfwidth) with d the wrapped offset
    from anchor and psi(xi) = (1 - xi^2)^3 on |xi| <= 1, zero beyond; so
    g(anchor) = value and g'(anchor) = tilt.  `shape` evaluates g, g', g''
    at a float offset inside the support, or at an array of offsets with xi
    clipped to [-1, 1].
    """

    anchor: float
    value: float
    tilt: float
    halfwidth: float

    def __post_init__(self) -> None:
        if not 0.0 < self.halfwidth < np.pi:
            raise ValueError("bump halfwidth must lie in (0, pi)")
        for name in ("anchor", "value", "tilt", "halfwidth"):
            # Python floats keep scalar evaluations off numpy scalar arithmetic.
            object.__setattr__(self, name, float(getattr(self, name)))

    def offset(self, theta):
        """Wrapped offset d = (theta - anchor + pi) mod 2 pi - pi of an array of angles."""
        return (theta - self.anchor + math.pi) % TWO_PI - math.pi

    def shape(self, d):
        """g, g' and g'' at the wrapped offset d: a float inside the support, or an array.

        A float must lie inside the support (|d| < halfwidth), as
        RadialOval.radius_derivs tests first.  On an array xi = d / halfwidth
        is clipped to [-1, 1], so psi, psi' and psi'' are exact zeros outside
        the support; inside it the clip changes nothing, and both give the
        same bits.
        """
        h, tilt = self.halfwidth, self.tilt
        xi = d / h
        if isinstance(xi, np.ndarray):
            xi = np.minimum(np.maximum(xi, -1.0), 1.0)
        one = 1.0 - xi * xi
        psi = one * one * one
        psi1 = -6.0 * xi * one * one
        psi2 = (30.0 * xi * xi - 6.0) * one
        lin = tilt * d + self.value
        return lin * psi, tilt * psi + lin * psi1 / h, 2.0 * tilt * psi1 / h + lin * psi2 / h**2


def _curvature_numerator(r, r1, r2):
    return r * r + 2.0 * r1 * r1 - r * r2


class RadialOval(OvalCurve):
    """Base ellipse plus localized radial bumps; verified strictly convex.

    convexity_margin is the least r^2 + 2 r'^2 - r r'' on the SCAN_GRID and
    margin_index its first index, also on a refused table's ConvexityViolation.
    """

    def __init__(self, base: EllipseOval, bumps: tuple[RadialBump, ...] = ()):
        self.base = base
        self.bumps = tuple(bumps)
        self.center = base.center
        self._center = base._center
        # A numerator that overflows is nan or -inf, and is refused like a
        # non-positive one, without numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            r, r1, r2 = self.grid_derivs
            numerator = _curvature_numerator(r, r1, r2)
            self.convexity_margin = float(np.min(numerator))
            self.margin_index = int(np.argmin(numerator))
            if np.any(r <= 0.0):
                raise ConvexityViolation("perturbed radius is not positive everywhere", self.margin_index)
        if not self.convexity_margin > 0.0:
            raise ConvexityViolation(
                f"curvature numerator is not positive (min {self.convexity_margin:.3e})", self.margin_index
            )

    def radius_derivs(self, theta: float) -> tuple[float, float, float]:
        r, r1, r2 = self.base.radius_derivs(theta)
        for bump in self.bumps:
            # bump.offset(theta), inline: the call would cost more than the
            # wrap.  An angle outside the support skips the shape.
            d = (theta - bump.anchor + math.pi) % TWO_PI - math.pi
            if abs(d) < bump.halfwidth:
                g, g1, g2 = bump.shape(d)
                r, r1, r2 = r + g, r1 + g1, r2 + g2
        return r, r1, r2

    def _evaluate_grid(self) -> np.ndarray:
        """The base's cached grid plus each bump's shape, added in place on the grid points of its support.

        A bump adds an exact zero outside its support, so the sums equal
        radius_derivs on the whole grid (up to the sign of a zero).
        """
        grid = self.base.grid_derivs.copy()
        for bump in self.bumps:
            first, count = _support_range(bump)
            offsets = _support_offsets(self.base, bump, first, count)
            # The range wraps past 2 pi after its first `head` indices.
            head = min(count, SCAN_GRID - first)
            pieces = [(slice(first, first + head), offsets[:head])]
            if count > head:
                pieces.append((slice(0, count - head), offsets[head:]))
            for cells, d in pieces:
                for row, part in zip(grid[:, cells], bump.shape(d)):
                    row += part
        return grid


def _support_range(bump: RadialBump) -> tuple[int, int]:
    """The SCAN_GRID indices that cover a bump's support: the first, in [0, SCAN_GRID), and their count.

    The indices run on from the first one modulo SCAN_GRID, so the range
    wraps past 2 pi where first + count > SCAN_GRID.  It is widened by a
    grid step at each end, far beyond the rounding of the bump's wrapped
    offset, so it misses no grid angle of the support.  Beyond |anchor| =
    1e6 that rounding grows, and the whole grid is used.
    """
    if abs(bump.anchor) > 1e6:
        return 0, SCAN_GRID
    first = math.floor((bump.anchor - bump.halfwidth) / _SCAN_STEP) - 1
    count = math.floor((bump.anchor + bump.halfwidth) / _SCAN_STEP) + 2 - first
    if count >= SCAN_GRID:
        return 0, SCAN_GRID
    return first % SCAN_GRID, count


def _support_offsets(base: EllipseOval, bump: RadialBump, first: int, count: int) -> np.ndarray:
    """The bump's wrapped offsets on the grid index range (first, count) of _support_range, read-only.

    The base keeps each anchor's offsets on the last range it wrapped, and
    a range inside it is a slice.  The candidate tables of one synthesis
    share their base and are built widest first, so each anchor is wrapped
    once per synthesis.
    """
    cache = base.__dict__.setdefault("_grid_offsets", {})
    if bump.anchor in cache:
        first0, offsets = cache[bump.anchor]
        skip = (first - first0) % SCAN_GRID
        if skip + count <= len(offsets):
            return offsets[skip:skip + count]
    angles = _SCAN_ANGLES[first:first + count]
    if first + count > SCAN_GRID:
        angles = np.concatenate([angles, _SCAN_ANGLES[:first + count - SCAN_GRID]])
    offsets = bump.offset(angles)
    offsets.setflags(write=False)
    cache[bump.anchor] = first, offsets
    return offsets


def chord_step(curve: OvalCurve, theta: float, direction: int) -> float:
    """Parameter of the second intersection of the coordinate line through theta.

    Raises DegenerateChord at coordinate extrema; otherwise the curve's
    chord_partner solves for the other intersection (closed form on an
    ellipse, a guarded Newton solve on other curves).
    """
    if direction not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"direction must be VERTICAL (0) or HORIZONTAL (1), got {direction!r}")
    t_lo, t_hi = curve.coordinate_extrema(direction)
    theta = wrap_angle(theta)
    if min(abs(signed_angle_gap(theta, t_lo)), abs(signed_angle_gap(theta, t_hi))) < DEGENERATE_TOL:
        raise DegenerateChord(f"parameter {theta} is at a coordinate-{direction} extremum")
    return wrap_angle(curve.chord_partner(theta, direction))


def oval_map(curve: OvalCurve, theta: float) -> float:
    """Vertical chord step followed by a horizontal one."""
    return chord_step(curve, chord_step(curve, theta, VERTICAL), HORIZONTAL)


def speed_factor(t: float, dir_in: int) -> float:
    """Signed speed multiplier of one reflection at a point of slope t."""
    if dir_in not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"dir_in must be VERTICAL (0) or HORIZONTAL (1), got {dir_in!r}")
    t = float(t)
    if t == 0.0 or not math.isfinite(t):
        raise ZeroSlope(f"cannot reflect across slope {t}")
    return t if dir_in == HORIZONTAL else 1.0 / t


@dataclass(frozen=True)
class NullPolygon:
    """Closed alternating null polygon: vertices on the curve plus their slopes.

    The chord P_1 -> P_2 is horizontal (shared second coordinate), directions
    alternate, and the closing chord P_{2n} -> P_1 is vertical.  A chord's
    shared coordinate may differ at its ends by up to 1e-6 times the largest
    |coordinate| of the points, a margin that scales with the polygon.
    """

    points: np.ndarray
    slopes: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4 or pts.shape[0] % 2:
            raise ValueError("a null polygon needs an even number >= 4 of plane points")
        slopes = tuple(float(t) for t in self.slopes)
        if len(slopes) != pts.shape[0]:
            raise ValueError("need exactly one slope per vertex")
        scale = float(np.max(np.abs(pts)))
        m = pts.shape[0]
        for j in range(m):
            shared = 1 if j % 2 == 0 else 0  # horizontal chords share coordinate 1
            a, b = pts[j], pts[(j + 1) % m]
            if abs(a[shared] - b[shared]) > 1e-6 * scale:
                raise ValueError(
                    f"chord {j + 1} is not {'horizontal' if shared else 'vertical'}: "
                    f"{a} -> {b}"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "slopes", slopes)

    @property
    def half_period(self) -> int:
        return self.points.shape[0] // 2


def polygon_params(curve: OvalCurve, poly: NullPolygon) -> list[float]:
    """Curve parameters of the polygon vertices (angles about the center)."""
    cx, cy = curve._center
    return [math.atan2(y - cy, x - cx) % TWO_PI for x, y in poly.points.tolist()]


def acceleration_factor(poly: NullPolygon) -> float:
    """Per-period speed multiplier from the vertex slopes.

    Product of the even-position slopes over the odd-position ones, signed.
    """
    t = poly.slopes
    if not all(s != 0.0 and math.isfinite(s) for s in t):
        raise ZeroSlope("acceleration factor needs finite non-zero slopes")
    return math.prod(t[1::2]) / math.prod(t[0::2])


def simulate_speed(curve: OvalCurve, poly: NullPolygon) -> float:
    """Walk the polygon once, multiplying per-reflection speed factors.

    Slopes are re-read from the curve at each vertex, making this an
    independent path to the same number as acceleration_factor.
    """
    params = polygon_params(curve, poly)
    m = poly.points.shape[0]
    speed = 1.0
    for j in range(1, m + 1):
        speed *= speed_factor(curve.slope(params[j % m]), j % 2)
    return speed


def simulate_periods(curve: OvalCurve, poly: NullPolygon, periods: int) -> tuple[float, float]:
    """Chord-step the table for whole periods, starting at P_1 with unit speed.

    Re-derives every vertex by root solving, so drift accumulates honestly.
    Returns (final signed speed, closing parameter defect).
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    params = polygon_params(curve, poly)
    theta = start = params[0]
    speed = 1.0
    # Leg j runs horizontal when j is odd, from P_1 -> P_2 on.
    for j in range(1, 2 * poly.half_period * periods + 1):
        theta = chord_step(curve, theta, j % 2)
        speed *= speed_factor(curve.slope(theta), j % 2)
    return speed, abs(signed_angle_gap(theta, start))


def _walk(curve: OvalCurve, s: float, n: int) -> list[float]:
    """Parameters visited by the 2n chord steps of oval_map^n from s."""
    params = [s]
    for j in range(2 * n):
        params.append(chord_step(curve, params[-1], j % 2))
    return params[1:]


def _chain_derivative(curve: OvalCurve, params) -> float:
    """d t_m / d t_0 along the chord steps t_0 -> ... -> t_m, vertical first.

    A chord step keeps one coordinate X, X(t') = X(t), so dt'/dt = X'(t) / X'(t').
    """
    vel = [curve.velocity(t) for t in params]
    # Step j keeps coordinate j % 2: vertical chords keep coordinate 0.
    return math.prod(vel[j][j % 2] / vel[j + 1][j % 2] for j in range(len(params) - 1))


def _null_polygon(curve: OvalCurve, params: list[float]) -> NullPolygon:
    return NullPolygon([curve.point(t) for t in params], tuple(curve.slope(t) for t in params))


def polygon_from_parameter(curve: OvalCurve, fixed_param: float, n: int) -> NullPolygon:
    """Expand a fixed point of the n-fold oval map into its 2n-vertex polygon."""
    if n < 2:
        raise ValueError("half-period must be >= 2")
    return _null_polygon(curve, _walk(curve, fixed_param, n))


#: Closure defect (radians) below which a parameter counts as periodic.
CLOSURE_TOL = 1e-10

#: Newton iterations of the periodic-orbit search.
MAX_NEWTON_ITER = 60


def find_periodic_orbit(curve: OvalCurve, n: int, seed_param: float) -> NullPolygon:
    """Damped Newton search for a parameter with oval_map^n equal to the identity.

    The closure defect oval_map^n(s) - s has the exact derivative D(s) - 1,
    D the chain-rule product along the same chord steps; on curves where the
    n-fold map is the identity (circle, axis-aligned ellipse) the seed itself
    already closes and is returned directly.
    """
    if n < 2:
        raise ValueError("half-period must be >= 2")
    s = wrap_angle(seed_param)
    params = _walk(curve, s, n)
    g = signed_angle_gap(params[-1], s)
    for _ in range(MAX_NEWTON_ITER):
        if abs(g) <= CLOSURE_TOL:
            return _null_polygon(curve, params)
        dg = _chain_derivative(curve, [s, *params]) - 1.0
        if abs(dg) < 1e-12:
            raise NoConvergence("closure defect is flat; cannot take a Newton step")
        step = g / dg
        lam = 1.0
        for _ in range(30):
            s_new = wrap_angle(s - lam * step)
            params_new = _walk(curve, s_new, n)
            g_new = signed_angle_gap(params_new[-1], s_new)
            if abs(g_new) < abs(g):
                s, params, g = s_new, params_new, g_new
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"damping failed at defect {g:.3e}")
    if abs(g) <= CLOSURE_TOL:
        return _null_polygon(curve, params)
    raise NoConvergence(f"no closure after {MAX_NEWTON_ITER} iterations (defect {g:.3e})")


def return_map_derivative(curve: OvalCurve, poly: NullPolygon) -> float:
    """Derivative of the n-fold oval map at the polygon's fixed point.

    The chain-rule product over the polygon's chords; it telescopes to the
    vertex slopes, so it equals 1 / acceleration_factor(poly): |D| is v or
    1/v and equals 1 exactly when the orbit is linearly stable.
    """
    params = polygon_params(curve, poly)
    return _chain_derivative(curve, [params[-1], *params])


#: Candidate bump supports, as fractions of the angular gap to the nearest vertex.
SUPPORT_FRACTIONS = (0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5, 0.45, 0.4)


#: Upper bound on a bump's halfwidth (radians).
MAX_BUMP_HALFWIDTH = 1.5


def build_accelerating_table(points, slopes) -> RadialOval:
    """Convex table through a null polygon with prescribed vertex slopes.

    A base axis-aligned ellipse is fitted through the vertices about their
    centroid; each vertex then gets a localized radial bump whose value and
    tilt solve the through-point and slope conditions.  Bump supports exclude
    the neighboring vertices, so the per-vertex 2x2 systems stay decoupled.
    Of the candidate support widths, in SUPPORT_FRACTIONS order, the first
    with the largest curvature margin wins.  A candidate is not built if its
    float-path numerator is at most the best margin so far at the scan angle
    of least numerator of any candidate built before it, refused ones too:
    its margin, the least numerator on the grid, equal to the float path's,
    could not be larger (a nan never skips).  Raises InfeasibleSlopes when
    the tangent line at a vertex, with its slope, does not have every other
    vertex strictly on one side, by more than 1e-9 times the largest
    coordinate offset from the centroid, a margin that scales with the
    polygon: no convex curve through the vertices has that slope there.
    Raises ConvexityViolation when all candidates fail.
    """
    pts = np.asarray(points, dtype=float)
    slopes = [float(t) for t in slopes]
    NullPolygon(pts, slopes)  # validates the alternating-null-chord shape

    if not all(t != 0.0 and math.isfinite(t) for t in slopes):
        raise ZeroSlope("target slopes must be finite and non-zero")

    center = pts.mean(axis=0)
    rel = (pts - center).tolist()
    axis_tol = 1e-9 * max(abs(c) for p in rel for c in p)

    ratios = []
    for j, ((du, dw), t) in enumerate(zip(rel, slopes)):
        # Signed distances of the other vertices from the tangent line at vertex j.
        norm = math.hypot(1.0, t)
        sides = [((dw_k - dw) - t * (du_k - du)) / norm for k, (du_k, dw_k) in enumerate(rel) if k != j]
        if not (min(sides) > axis_tol or max(sides) < -axis_tol):
            raise InfeasibleSlopes(
                f"slope {t} at vertex {j + 1} cannot lie on a convex curve: "
                "the other vertices are not strictly on one side of its tangent line"
            )
        if abs(du) > axis_tol and abs(dw) > axis_tol:
            ratios.append(abs(t) * abs(dw) / abs(du))
    k = math.exp(math.fsum(map(math.log, ratios)) / len(ratios)) if ratios else 1.0

    weights = [du * du + dw * dw / k for du, dw in rel]
    squares = math.fsum(w * w for w in weights)
    if not 0.0 < squares < math.inf:
        raise ValueError("no base ellipse: the squared vertex offsets from the centroid leave the float range")
    p_coeff = math.fsum(weights) / squares
    base = EllipseOval.axis_aligned(math.sqrt(1.0 / p_coeff), math.sqrt(k / p_coeff), center)

    thetas = [math.atan2(dw, du) % TWO_PI for du, dw in rel]
    m = len(thetas)
    order = sorted(range(m), key=thetas.__getitem__)
    gaps = {}
    for pos, idx in enumerate(order):
        before = thetas[order[pos - 1]]
        after = thetas[order[(pos + 1) % m]]
        gap_prev = abs(signed_angle_gap(thetas[idx], before))
        gap_next = abs(signed_angle_gap(after, thetas[idx]))
        gaps[idx] = min(gap_prev, gap_next)

    anchors = []
    for j, ((du, dw), theta_j, t_j) in enumerate(zip(rel, thetas, slopes)):
        r_j = math.hypot(du, dw)
        c, s = math.cos(theta_j), math.sin(theta_j)
        denom = t_j * c - s
        if abs(denom) <= 1e-12 * (1.0 + abs(t_j)):
            raise InfeasibleSlopes(f"target slope at vertex {j + 1} points along the radius")
        r1_req = r_j * (c + t_j * s) / denom
        rb, rb1, _ = base.radius_derivs(theta_j)
        anchors.append((theta_j, r_j - rb, r1_req - rb1, gaps[j]))

    best: RadialOval | None = None
    best_margin, probes = 0.0, []  # probes: each built candidate's least-numerator scan angle
    for fraction in SUPPORT_FRACTIONS:
        bumps = tuple(
            RadialBump(theta_j, value, tilt, min(fraction * gap, MAX_BUMP_HALFWIDTH))
            for theta_j, value, tilt, gap in anchors
        )
        unbuilt = SimpleNamespace(base=base, bumps=bumps)  # all that radius_derivs reads
        if any(_curvature_numerator(*RadialOval.radius_derivs(unbuilt, t)) <= best_margin for t in probes):
            continue
        try:
            candidate = RadialOval(base, bumps)
        except ConvexityViolation as exc:
            probes.append(float(_SCAN_ANGLES[exc.margin_index]))
            continue
        probes.append(float(_SCAN_ANGLES[candidate.margin_index]))
        if candidate.convexity_margin > best_margin:
            best, best_margin = candidate, candidate.convexity_margin
    if best is None:
        raise ConvexityViolation("no candidate bump support keeps the curve strictly convex")
    return best


def null_chart_table(ell: Ellipsoid) -> EllipseOval:
    """The null-chart image of a plane ellipsoid from the orthonormal chart."""
    if ell.dim != 2:
        raise ValueError("only plane ellipses have a null-chart table")
    form = _R45 @ np.diag(ell.shape_diag) @ _R45
    return EllipseOval(form)

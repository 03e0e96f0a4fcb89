import contextlib
import functools
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pebilliards import errors
from pebilliards import lorentz_oval as lo
from pebilliards.billiard import run_orbit
from pebilliards.errors import (
    ConvexityViolation,
    DegenerateChord,
    InfeasibleSlopes,
    NoConvergence,
    ZeroSlope,
)
from pebilliards.cli import main
from pebilliards.pecore import Ellipsoid, RayState, Signature

CIRCLE = lo.EllipseOval.axis_aligned(1.0, 1.0)
ELLIPSE = lo.EllipseOval.axis_aligned(2.0, 1.0)
TILTED = lo.EllipseOval(np.array([[0.8, 0.3], [0.3, 0.5]]), center=(0.2, -0.1))
RECT = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def angle_of(curve, point):
    rel = np.asarray(point, dtype=float) - curve.center
    return float(np.arctan2(rel[1], rel[0]) % (2 * np.pi))


def test_chord_step_circle():
    t = angle_of(CIRCLE, (0.6, 0.8))
    down = lo.chord_step(CIRCLE, t, lo.VERTICAL)
    assert np.allclose(CIRCLE.point(down), [0.6, -0.8], atol=1e-12)
    left = lo.chord_step(CIRCLE, t, lo.HORIZONTAL)
    assert np.allclose(CIRCLE.point(left), [-0.6, 0.8], atol=1e-12)


def test_chord_step_degenerate_at_extrema():
    # The horizontal line through the top point is tangent; the vertical line
    # through the rightmost point is tangent.
    with pytest.raises(DegenerateChord):
        lo.chord_step(CIRCLE, np.pi / 2, lo.HORIZONTAL)
    with pytest.raises(DegenerateChord):
        lo.chord_step(CIRCLE, 0.0, lo.VERTICAL)
    # On a tilted ellipse the closed-form extrema are where chords degenerate.
    for axis, direction in ((0, lo.VERTICAL), (1, lo.HORIZONTAL)):
        for t in TILTED.coordinate_extrema(axis):
            for offset in (0.0, 0.9 * lo.DEGENERATE_TOL, -0.9 * lo.DEGENERATE_TOL):
                with pytest.raises(DegenerateChord):
                    lo.chord_step(TILTED, t + offset, direction)
            for offset in (1e-6, -1e-6):
                lo.chord_step(TILTED, t + offset, direction)


def test_chord_step_through_axis_points_is_fine():
    # The vertical chord from the top of the circle is the full diameter.
    down = lo.chord_step(CIRCLE, np.pi / 2, lo.VERTICAL)
    assert np.allclose(CIRCLE.point(down), [0.0, -1.0], atol=1e-12)


def test_oval_map_circle_antipode():
    t = angle_of(CIRCLE, (0.6, 0.8))
    out = lo.oval_map(CIRCLE, t)
    assert np.allclose(CIRCLE.point(out), [-0.6, -0.8], atol=1e-12)


def test_oval_map_ellipse_antipode():
    t = angle_of(ELLIPSE, (1.6, -0.6))
    out = lo.oval_map(ELLIPSE, t)
    assert np.allclose(ELLIPSE.point(out), [-1.6, 0.6], atol=1e-12)


def test_oval_map_squared_is_identity_on_axis_aligned_ellipses():
    rng = np.random.default_rng(0)
    for a, b in [(1.0, 1.0), (2.0, 1.0), (1.7, 0.4)]:
        curve = lo.EllipseOval.axis_aligned(a, b)
        for _ in range(25):
            t = rng.uniform(0.05, 2 * np.pi)
            if min(abs(t % (np.pi / 2)), np.pi / 2 - (t % (np.pi / 2))) < 0.02:
                continue
            back = lo.oval_map(curve, lo.oval_map(curve, t))
            assert abs(lo.signed_angle_gap(back, t)) <= 1e-10


def test_speed_factor():
    assert lo.speed_factor(2.0, lo.HORIZONTAL) == 2.0
    assert lo.speed_factor(2.0, lo.VERTICAL) == 0.5
    assert lo.speed_factor(1.0, lo.HORIZONTAL) == 1.0
    assert lo.speed_factor(1.0, lo.VERTICAL) == 1.0
    with pytest.raises(ZeroSlope):
        lo.speed_factor(0.0, lo.HORIZONTAL)


@pytest.mark.parametrize("direction", ["vertical", "horizontal", 2, -1, 0.5, None])
def test_bad_direction_is_refused(direction):
    # A direction is the axis its chord keeps, VERTICAL (0) or HORIZONTAL (1);
    # anything else is a ValueError, not a chord along some other axis.
    assert (lo.VERTICAL, lo.HORIZONTAL) == (0, 1)
    with pytest.raises(ValueError, match="must be VERTICAL"):
        lo.chord_step(TILTED, 1.0, direction)
    with pytest.raises(ValueError, match="must be VERTICAL"):
        lo.speed_factor(2.0, direction)


def test_acceleration_factor_examples():
    circle_rect = lo.NullPolygon(RECT, (-1.0, 1.0, -1.0, 1.0))
    assert lo.acceleration_factor(circle_rect) == pytest.approx(1.0)
    four = lo.NullPolygon(RECT, (1.0, 2.0, 1.0, 2.0))
    assert lo.acceleration_factor(four) == pytest.approx(4.0)


def test_acceleration_factor_ellipse_slope_symmetry():
    poly = lo.find_periodic_orbit(ELLIPSE, 2, 0.8)
    t = poly.slopes
    assert t[1] == pytest.approx(-t[0], rel=1e-10)
    assert t[2] == pytest.approx(t[0], rel=1e-10)
    assert t[3] == pytest.approx(-t[0], rel=1e-10)
    assert lo.acceleration_factor(poly) == pytest.approx(1.0, abs=1e-12)


def test_simulate_speed_matches_formula_two_paths():
    big = lo.EllipseOval.axis_aligned(np.sqrt(2.0), np.sqrt(2.0))
    poly = lo.polygon_from_parameter(big, angle_of(big, (1.0, -1.0)), 2)
    assert np.allclose(np.sort(poly.points.ravel()), np.sort(RECT.ravel()))
    v_formula = lo.acceleration_factor(poly)
    v_sim = lo.simulate_speed(big, poly)
    assert v_sim == pytest.approx(v_formula, rel=1e-12)
    assert v_sim == pytest.approx(1.0, rel=1e-12)


def test_simulate_speed_reversal_inverts():
    curve = lo.build_accelerating_table(RECT, (-1.0, 2.0, -1.0, 2.0))
    poly = lo.polygon_from_parameter(curve, angle_of(curve, (1.0, -1.0)), 2)
    v = lo.simulate_speed(curve, poly)
    # Reversed traversal, relabeled to start at P2 so the first chord stays
    # horizontal: P2, P1, P_{2n}, ..., P3.
    order = [1, 0] + list(range(len(poly.slopes) - 1, 1, -1))
    reversed_poly = lo.NullPolygon(
        poly.points[order], tuple(poly.slopes[i] for i in order)
    )
    v_rev = lo.simulate_speed(curve, reversed_poly)
    assert v_rev == pytest.approx(1.0 / v, rel=1e-10)


def test_find_periodic_orbit_circle_returns_seed_rectangle():
    t = angle_of(CIRCLE, (0.6, 0.8))
    poly = lo.find_periodic_orbit(CIRCLE, 2, t)
    expect = {(0.6, -0.8), (-0.6, -0.8), (-0.6, 0.8), (0.6, 0.8)}
    got = {(round(float(p[0]), 9), round(float(p[1]), 9)) for p in poly.points}
    assert got == expect


def test_find_periodic_orbit_ellipse():
    poly = lo.find_periodic_orbit(ELLIPSE, 2, 1.234)
    closing = lo.oval_map(ELLIPSE, lo.oval_map(ELLIPSE, angle_of(ELLIPSE, poly.points[-1])))
    assert abs(lo.signed_angle_gap(closing, angle_of(ELLIPSE, poly.points[-1]))) <= 1e-12
    assert lo.acceleration_factor(poly) == pytest.approx(1.0, abs=1e-12)


def test_find_periodic_orbit_perturbed_circle():
    # A single bump breaks the slope symmetry: the 4-orbit survives but
    # accelerates.
    bump = lo.RadialBump(anchor=2.3, value=0.0, tilt=0.05, halfwidth=0.5)
    curve = lo.RadialOval(lo.EllipseOval.axis_aligned(1.0, 1.0), (bump,))
    poly = lo.find_periodic_orbit(curve, 2, angle_of(CIRCLE, (0.6, 0.8)))
    v = lo.acceleration_factor(poly)
    assert abs(v - 1.0) > 1e-4
    assert lo.simulate_speed(curve, poly) == pytest.approx(v, rel=1e-10)


def test_return_map_derivative_circle_and_ellipse():
    poly_c = lo.find_periodic_orbit(CIRCLE, 2, 0.93)
    assert abs(lo.return_map_derivative(CIRCLE, poly_c)) == pytest.approx(1.0, abs=1e-12)
    poly_e = lo.find_periodic_orbit(ELLIPSE, 2, 0.93)
    assert abs(lo.return_map_derivative(ELLIPSE, poly_e)) == pytest.approx(1.0, abs=1e-12)


def test_return_map_derivative_accelerating_table():
    curve = lo.build_accelerating_table(RECT, (-1.0, 2.0, -1.0, 2.0))
    poly = lo.polygon_from_parameter(curve, angle_of(curve, (1.0, -1.0)), 2)
    d = abs(lo.return_map_derivative(curve, poly))
    assert d == pytest.approx(1.0 / lo.acceleration_factor(poly), abs=1e-12)
    assert d == pytest.approx(0.25, abs=1e-12)


def central_difference(curve, n, s, h=1e-6):
    def iterate(t):
        for _ in range(n):
            t = lo.oval_map(curve, t)
        return t

    return lo.signed_angle_gap(iterate(s + h), iterate(s - h)) / (2.0 * h)


def test_chain_rule_derivative_matches_central_difference():
    curve = lo.build_accelerating_table(RECT, (-1.0, 2.0, -1.0, 2.0))
    # At the fixed point: the derivative the CLI reports.
    poly = lo.find_periodic_orbit(curve, 2, angle_of(curve, (1.0, -1.0)))
    fixed = float(lo.polygon_params(curve, poly)[-1])
    d = lo.return_map_derivative(curve, poly)
    assert d == pytest.approx(central_difference(curve, 2, fixed), rel=1e-6)
    # Off the fixed point: the derivative Newton steps with.
    seed = angle_of(curve, (1.0, -1.0)) + 0.03
    chain = lo._chain_derivative(curve, [seed, *lo._walk(curve, seed, 2)])
    assert abs(chain - 0.25) > 1e-3
    assert chain == pytest.approx(central_difference(curve, 2, seed), rel=1e-6)


def test_build_table_circle_case():
    curve = lo.build_accelerating_table(RECT, (-1.0, 1.0, -1.0, 1.0))
    r = [curve.radius_derivs(t)[0] for t in np.linspace(0, 2 * np.pi, 256).tolist()]
    assert np.allclose(r, np.sqrt(2.0), atol=1e-12)
    poly = lo.polygon_from_parameter(curve, angle_of(curve, (1.0, -1.0)), 2)
    assert lo.acceleration_factor(poly) == pytest.approx(1.0, abs=1e-12)


def test_build_table_v4_closed_loop():
    slopes = (-1.0, 2.0, -1.0, 2.0)
    curve = lo.build_accelerating_table(RECT, slopes)
    poly = lo.NullPolygon(RECT, slopes)
    params = lo.polygon_params(curve, poly)
    pts = np.array([curve.point(t) for t in params])
    assert np.max(np.abs(pts - RECT)) <= 1e-8
    got_slopes = np.array([curve.slope(t) for t in params])
    assert np.max(np.abs(got_slopes - np.array(slopes))) <= 1e-8
    assert curve.convexity_margin > 0  # least curvature numerator on the 4096-point grid
    rebuilt = lo.polygon_from_parameter(curve, params[-1], 2)
    assert lo.acceleration_factor(rebuilt) == pytest.approx(4.0, abs=1e-10)
    assert lo.simulate_speed(curve, rebuilt) == pytest.approx(4.0, abs=1e-8)


def test_build_table_infeasible_sign_pattern():
    with pytest.raises(InfeasibleSlopes):
        lo.build_accelerating_table(RECT, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ZeroSlope):
        lo.build_accelerating_table(RECT, (0.0, 1.0, -1.0, 1.0))


def test_build_table_feasibility_is_the_supporting_line_condition():
    # A tilted ellipse whose chord map has period 3 (form [[1/a^2, m], [m,
    # 1/b^2]], m = -cos(pi/3) / (a b)) is a convex curve through its closed
    # hexagon with its own slopes, although at vertices 3 and 6 the slope has
    # the sign of the product of the offsets from the centroid, which an
    # axis-aligned shape forbids.  Every tangent line supports the hexagon, so
    # synthesis passes its feasibility test; no bump table on its
    # axis-aligned base is convex.
    a, b = 1.2677, 1.9257
    m = -0.5 / (a * b)
    poly = lo.polygon_from_parameter(lo.EllipseOval(np.array([[a**-2, m], [m, b**-2]])), 0.5, 3)
    rel = np.asarray(poly.points) - np.mean(poly.points, axis=0)
    same_sign = [bool((t > 0.0) == (du * dw > 0.0)) for (du, dw), t in zip(rel, poly.slopes)]
    assert same_sign == [False, False, True, False, False, True]
    with pytest.raises(ConvexityViolation):
        lo.build_accelerating_table(poly.points, poly.slopes)
    # Flipping one slope puts vertices on both sides of that vertex's tangent line.
    for j in range(6):
        slopes = list(poly.slopes)
        slopes[j] = -slopes[j]
        with pytest.raises(InfeasibleSlopes, match=f" at vertex {j + 1} cannot lie on a convex curve"):
            lo.build_accelerating_table(poly.points, slopes)


def test_radial_oval_convexity_violation():
    with pytest.raises(ConvexityViolation):
        lo.RadialOval(
            lo.EllipseOval.axis_aligned(1.0, 1.0),
            (lo.RadialBump(anchor=0.5, value=0.0, tilt=2.5, halfwidth=0.3),),
        )


@pytest.mark.parametrize(
    "bump, message",
    [
        (lo.RadialBump(anchor=0.5, value=0.0, tilt=2.5, halfwidth=0.3), r"curvature numerator is not positive \(min "),
        (lo.RadialBump(anchor=0.5, value=-1.5, tilt=0.0, halfwidth=0.3), r"perturbed radius is not positive everywhere$"),
    ],
    ids=["numerator", "radius"],
)
def test_convexity_violation_carries_the_least_numerator_index(bump, message):
    # Either refusal names the first scan index where r^2 + 2 r'^2 - r r''
    # is least, as a built table does; the message is unchanged.
    with pytest.raises(ConvexityViolation, match=message) as refusal:
        lo.RadialOval(CIRCLE, (bump,))
    r, r1, r2 = _full_grid_sum(CIRCLE, (bump,))
    assert refusal.value.margin_index == np.argmin(r * r + 2.0 * r1 * r1 - r * r2)
    assert ConvexityViolation("no index").margin_index is None


def test_null_polygon_validation():
    with pytest.raises(ValueError):
        lo.NullPolygon(np.array([[1, 1], [0, 0], [-1, -1], [0, 0]]), (1.0,) * 4)
    with pytest.raises(ValueError):
        lo.NullPolygon(RECT, (1.0,) * 3)


def test_chart_maps_are_involutive_isometries_on_nullity():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((10, 2))
    assert np.allclose(lo.to_null_chart(lo.to_null_chart(pts)), pts, atol=1e-14)
    # null directions map to the coordinate axes
    assert np.allclose(lo.to_null_chart(np.array([1.0, -1.0])), [0.0, np.sqrt(2.0)])
    assert np.allclose(lo.to_null_chart(np.array([1.0, 1.0])), [np.sqrt(2.0), 0.0])


def test_cross_chart_consistency_with_billiard_module():
    sig = Signature(1, 1)
    ell = Ellipsoid((2.0, 1.0))
    table = lo.null_chart_table(ell)
    assert np.allclose(table.form, [[0.625, -0.375], [-0.375, 0.625]])

    rec = run_orbit(RayState((0.0, 1.0), (1.0, -1.0)), 120, ell, sig)
    assert rec.abort_reason is None
    bounce_pts = lo.to_null_chart(np.array([s.x for s in rec.states[1:]]))

    z0 = lo.to_null_chart(np.array([0.0, 1.0]))
    theta = float(np.arctan2(z0[1], z0[0]) % (2 * np.pi))
    worst = 0.0
    for k, target in enumerate(bounce_pts):
        direction = lo.VERTICAL if k % 2 == 0 else lo.HORIZONTAL
        theta = lo.chord_step(table, theta, direction)
        worst = max(worst, float(np.max(np.abs(np.asarray(table.point(theta)) - target))))
    assert worst <= 1e-9


def test_find_periodic_orbit_no_convergence():
    with pytest.raises((NoConvergence, DegenerateChord)):
        # Seeding exactly at a coordinate extremum cannot even evaluate the map.
        lo.find_periodic_orbit(ELLIPSE, 2, 0.0)


def test_wrap_angle_maps_tiny_negative_to_zero():
    assert lo.wrap_angle(-1e-17) == 0.0
    assert lo.wrap_angle(2 * np.pi) == 0.0


@given(st.floats(min_value=-1e3, max_value=1e3))
def test_wrap_angle_range(t):
    assert 0.0 <= lo.wrap_angle(t) < 2 * np.pi


def _random_ellipse(rng):
    lam = rng.uniform(0.25, 4.0, 2)
    phi = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    form = rot @ np.diag(lam) @ rot.T
    return lo.EllipseOval((form + form.T) / 2.0, center=rng.uniform(-1.0, 1.0, 2))


def test_ellipse_closed_form_matches_bracketed_solve():
    # A RadialOval without bumps is the same curve through the generic
    # OvalCurve scan and bracketed root solve.
    rng = np.random.default_rng(2024)
    for _ in range(50):
        ell = _random_ellipse(rng)
        generic = lo.RadialOval(ell)
        for axis, direction in ((0, lo.VERTICAL), (1, lo.HORIZONTAL)):
            closed = ell.coordinate_extrema(axis)
            scanned = generic.coordinate_extrema(axis)
            for t in closed:
                assert min(abs(lo.signed_angle_gap(t, u)) for u in scanned) <= 1e-12
            for theta in rng.uniform(0.0, 2 * np.pi, 5):
                if min(abs(lo.signed_angle_gap(theta, t)) for t in closed) < 1e-3:
                    continue
                got = lo.chord_step(ell, theta, direction)
                want = lo.chord_step(generic, theta, direction)
                assert abs(lo.signed_angle_gap(got, want)) <= 1e-12


def _wrap_bump_table():
    """A radial table with one bump anchored 4e-4 below 2 pi and one at 2.0."""
    bumps = (
        lo.RadialBump(anchor=2 * np.pi - 4e-4, value=0.02, tilt=0.03, halfwidth=0.8),
        lo.RadialBump(anchor=2.0, value=-0.02, tilt=-0.03, halfwidth=0.8),
    )
    return lo.RadialOval(TILTED, bumps)


def _assert_float_path_matches_grid(radius_derivs, grid):
    """radius_derivs at every scan angle, and the curvature numerator from it, equal the grid's (up to a zero's sign)."""
    derivs = [radius_derivs(t) for t in lo._SCAN_ANGLES.tolist()]
    assert all(type(v) is float for row in derivs for v in row)
    assert np.array_equal(np.array(derivs).T, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = [lo._curvature_numerator(*row) for row in derivs]
        assert np.array_equal(numerator, lo._curvature_numerator(*grid), equal_nan=True)


@pytest.mark.parametrize(
    "curve",
    [ELLIPSE, TILTED, _wrap_bump_table(), lo.build_accelerating_table(RECT, (-1.0, 2.0, -1.0, 2.0))],
    ids=["axis", "tilted", "radial", "synthesized"],
)
def test_float_path_matches_array_path(curve):
    # The scan grid is the one array computation: at every grid angle the
    # float path gives the same bits (np.array_equal: up to the sign of a
    # zero) as grid_derivs, and point() as the grid's r, cos and sin.
    ts = lo._SCAN_ANGLES.tolist()
    _assert_float_path_matches_grid(curve.radius_derivs, curve.grid_derivs)
    r = curve.grid_derivs[0]
    x, y = zip(*(curve.point(t) for t in ts))
    assert np.array_equal(x, curve.center[0] + r * lo._SCAN_COS)
    assert np.array_equal(y, curve.center[1] + r * lo._SCAN_SIN)


def _radius_array(curve, ts):
    """r on an array of angles, from the ellipse's form and every bump's shape on the whole array."""
    base = curve.base or curve
    c, s = np.cos(ts), np.sin(ts)
    (m00, m01), (_, m11) = base.form
    r = (m00 * c * c + 2.0 * m01 * c * s + m11 * s * s) ** -0.5
    for bump in getattr(curve, "bumps", ()):
        r = r + bump.shape(bump.offset(ts))[0]
    return r


def _bisection_partner(curve, theta, axis):
    """The chord partner by plain bisection, on the arc between the coordinate
    extrema of a dense array scan (no Newton, no cached library extrema)."""
    ts = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
    coord = curve.center[axis] + _radius_array(curve, ts) * (np.cos(ts) if axis == 0 else np.sin(ts))
    t_lo, t_hi = sorted((float(ts[np.argmin(coord)]), float(ts[np.argmax(coord)])))
    lo_, hi_ = (t_hi, t_lo + 2 * np.pi) if t_lo < theta < t_hi else (t_lo, t_hi)
    target = curve.point(theta)[axis]
    neg_at_lo = curve.point(lo_)[axis] < target
    while True:
        mid = 0.5 * (lo_ + hi_)
        if not lo_ < mid < hi_:
            return mid
        if (curve.point(mid)[axis] < target) == neg_at_lo:
            lo_ = mid
        else:
            hi_ = mid


@st.composite
def radial_tables(draw):
    """A random ellipse with one to four random bumps.

    A bump's value and tilt scale with its halfwidth h as h^2 and h (its
    curvature term as 1), and with the minor semi-axis, so that about half
    the tables are strictly convex.  Halfwidths reach 3.1, and some anchors
    lie within 0.3 of 0 on either side, so many supports straddle 0 = 2 pi.
    """
    lam = np.array([draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))])
    phi = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    form = rot @ np.diag(lam) @ rot.T
    center = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    base = lo.EllipseOval((form + form.T) / 2.0, center=center)
    size = 1.0 / np.sqrt(lam.max())
    bumps = []
    for _ in range(draw(st.integers(1, 4))):
        h = draw(st.floats(0.05, 3.1))
        anchor = draw(
            st.floats(0.0, 2 * np.pi, exclude_max=True)
            | st.floats(-0.3, 0.3)
            | st.floats(2 * np.pi - 0.3, 2 * np.pi + 0.3)
        )
        value, tilt = draw(st.floats(-0.2, 0.2)) * size * h * h, draw(st.floats(-0.2, 0.2)) * size * h
        bumps.append(lo.RadialBump(anchor, value, tilt, h))
    return base, tuple(bumps)


@settings(max_examples=60, deadline=None)
@given(table=radial_tables())
def test_float_path_matches_array_path_on_random_tables(table):
    # A synthesis skips a candidate on its float-path curvature numerator at
    # one scan angle, which bounds the candidate's margin only because it is
    # the grid's value there.  An unbuilt table, refused or not, has the
    # same two paths: RadialOval's methods read only its base and bumps.
    base, bumps = table
    unbuilt = SimpleNamespace(base=base, bumps=bumps)
    grid = lo.RadialOval._evaluate_grid(unbuilt)
    _assert_float_path_matches_grid(functools.partial(lo.RadialOval.radius_derivs, unbuilt), grid)
    try:
        curve = lo.RadialOval(base, bumps)
    except ConvexityViolation:
        event("not strictly convex")
        return
    assert np.array_equal(curve.grid_derivs, grid)


@settings(max_examples=60, deadline=None)
@given(table=radial_tables(), thetas=st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=1, max_size=6),
       offsets=st.lists(st.sampled_from([0.0, 1e-10, -1e-10, 2e-9, -2e-9, 1e-6, -1e-6, 1e-3]), max_size=4))
def test_random_radial_table_chord_steps(table, thetas, offsets):
    # A random table is either refused as not strictly convex or its chord
    # steps end in a named error (DegenerateChord, NoConvergence) or in a
    # partner that keeps the coordinate.  Off the extrema, where the chord
    # is well conditioned (|X'| >= 1e-2 * scale at both ends), the partner
    # lies on the other arc, matches plain bisection, and the inverse chord
    # returns theta.
    base, bumps = table
    try:
        curve = lo.RadialOval(base, bumps)
        extrema = [curve.coordinate_extrema(axis) for axis in (0, 1)]
    except ConvexityViolation:
        event("not strictly convex")
        return
    scale = max(1.0, max(abs(c) for t in np.linspace(0.0, 2 * np.pi, 64).tolist() for c in curve.point(t)))
    for axis, direction in ((0, lo.VERTICAL), (1, lo.HORIZONTAL)):
        t_lo, t_hi = extrema[axis]
        near = [lo.wrap_angle(t + d) for t in extrema[axis] for d in offsets]
        for theta in [*thetas, *near]:
            try:
                partner = lo.chord_step(curve, theta, direction)
            except (DegenerateChord, NoConvergence) as exc:
                event(type(exc).__name__)
                continue
            assert abs(curve.point(partner)[axis] - curve.point(theta)[axis]) <= 1e-12 * scale
            if min(abs(curve.velocity(t)[axis]) for t in (theta, partner)) < 1e-2 * scale:
                continue
            event("well-conditioned chord")
            assert (t_lo < partner < t_hi) != (t_lo < theta < t_hi)
            assert abs(lo.signed_angle_gap(partner, _bisection_partner(curve, theta, axis))) <= 1e-12
            assert abs(lo.signed_angle_gap(lo.chord_step(curve, partner, direction), theta)) <= 1e-12


def _full_grid_sum(base, bumps):
    """r, r', r'' on the SCAN_GRID angles as the base plus every bump's shape on the whole grid."""
    total = np.array(base.radius_derivs(lo._SCAN_ANGLES))
    for bump in bumps:
        total = total + np.array(bump.shape(bump.offset(lo._SCAN_ANGLES)))
    return total


@settings(max_examples=200, deadline=None)
@given(table=radial_tables())
def test_cached_grid_equals_full_grid_sum(table):
    # Each bump is evaluated only on the grid cells of its support; outside
    # it a bump adds an exact zero, so every entry equals the full-grid sum
    # (np.array_equal: equal bits, up to the sign of a zero).  The
    # convexity verdict, margin and margin index follow from the same
    # values; a refused table's error carries the index too.
    base, bumps = table
    want = _full_grid_sum(base, bumps)
    r, r1, r2 = want
    numerator = r * r + 2.0 * r1 * r1 - r * r2
    margin = float(np.min(numerator))
    if np.any(r <= 0.0) or margin <= 0.0:
        event("not strictly convex")
        with pytest.raises(ConvexityViolation) as refusal:
            lo.RadialOval(base, bumps)
        assert refusal.value.margin_index == np.argmin(numerator)
        return
    if any(not b.halfwidth <= b.anchor <= 2 * np.pi - b.halfwidth for b in bumps):
        event("a support straddles 0 = 2 pi")
    curve = lo.RadialOval(base, bumps)
    assert curve.grid_derivs.shape == (3, lo.SCAN_GRID)
    assert np.array_equal(curve.grid_derivs, want)
    assert curve.convexity_margin == margin == numerator[curve.margin_index]
    assert curve.margin_index == np.argmin(numerator)


def test_radial_table_is_evaluated_on_the_grid_once(monkeypatch):
    # Building a table and scanning both coordinates for extrema evaluates
    # the base on the whole grid once and each bump's shape once on the grid
    # offsets of its support: the wrapping bump on two slices, no cell twice.
    grid_calls = []
    base_derivs, bump_shape = lo.EllipseOval.radius_derivs, lo.RadialBump.shape
    bumps = _wrap_bump_table().bumps

    def record(fn, owner):
        def wrapper(self, arg):
            if isinstance(arg, np.ndarray):
                grid_calls.append((owner(self), arg.copy()))
            return fn(self, arg)

        return wrapper

    monkeypatch.setattr(lo.EllipseOval, "radius_derivs", record(base_derivs, lambda _: "base"))
    monkeypatch.setattr(lo.RadialBump, "shape", record(bump_shape, lambda b: b.anchor))
    curve = lo.RadialOval(lo.EllipseOval(TILTED.form, TILTED.center), bumps)
    curve.coordinate_extrema(0)
    curve.coordinate_extrema(1)
    grid = np.linspace(0.0, 2 * np.pi, lo.SCAN_GRID, endpoint=False)
    assert [len(ts) for owner, ts in grid_calls if owner == "base"] == [lo.SCAN_GRID]
    for bump in curve.bumps:
        offsets = np.concatenate([d for owner, d in grid_calls if owner == bump.anchor])
        assert len(offsets) == len(np.unique(offsets)) < lo.SCAN_GRID
        grid_offsets = (grid - bump.anchor + np.pi) % (2 * np.pi) - np.pi
        inside = np.abs(bump_shape(bump, grid_offsets)[0]) > 0.0
        assert set(grid_offsets[inside]) <= set(offsets)
    assert sum(owner == curve.bumps[0].anchor for owner, _ in grid_calls) == 2
    n_calls = len(grid_calls)
    curve.coordinate_extrema(0)
    lo.chord_step(curve, 1.0, lo.VERTICAL)
    assert len(grid_calls) == n_calls


def test_synthesis_wraps_grid_offsets_once_per_anchor(monkeypatch):
    # The candidate tables of one synthesis share their base, which keeps
    # each anchor's offsets on the grid range of its widest support: a
    # square's 4 anchors are wrapped once each, not once per bump of every
    # candidate built.  The bound skips all but 4 of the 12 candidates.
    offset_calls, candidates = [], []
    offset, evaluate = lo.RadialBump.offset, lo.RadialOval._evaluate_grid

    def record_offset(self, theta):
        if isinstance(theta, np.ndarray):
            offset_calls.append((self.anchor, len(theta)))
        return offset(self, theta)

    def record_candidate(self):
        candidates.append(self)
        return evaluate(self)

    monkeypatch.setattr(lo.RadialBump, "offset", record_offset)
    monkeypatch.setattr(lo.RadialOval, "_evaluate_grid", record_candidate)
    curve = lo.build_accelerating_table(RECT, (-1.0, 2.0, -1.0, 2.0))
    assert len(lo.SUPPORT_FRACTIONS) == 12 and 1 <= len(candidates) <= 4
    assert curve in candidates
    assert len(offset_calls) == len({anchor for anchor, _ in offset_calls}) == 4
    assert {anchor for anchor, _ in offset_calls} == {b.anchor for b in curve.bumps}
    assert all(not d.flags.writeable for _, d in curve.base._grid_offsets.values())


def _exhaustive_table(points, slopes):
    """The oracle of the synthesis's bound: each candidate built alone, the first largest margin wins.

    With one support fraction there is no earlier candidate, so nothing is
    skipped; the setup (base, anchors and their errors) is the library's.
    """
    tables, refusal = [], None
    for fraction in lo.SUPPORT_FRACTIONS:
        with mock.patch.object(lo, "SUPPORT_FRACTIONS", (fraction,)):
            try:
                tables.append(lo.build_accelerating_table(points, slopes))
            except ConvexityViolation as exc:
                refusal = exc
    if not tables:
        raise refusal
    return max(tables, key=lambda table: table.convexity_margin)  # the first of equal maxima


@st.composite
def null_polygons(draw):
    """Points and slopes of a random alternating null 4-gon, which is a rectangle.

    The slopes are the side ratio with the signs a convex curve allows about
    the centroid, each scaled by a factor in [2^-0.5, 2^0.5], so that about
    a third of the draws give a table; a tenth get any signs.
    """
    cx, cy = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    hx, hy = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    points = [(cx + hx, cy + hy), (cx - hx, cy + hy), (cx - hx, cy - hy), (cx + hx, cy - hy)]
    signs = [-1.0, 1.0, -1.0, 1.0]
    if draw(st.integers(0, 9)) == 0:
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4))
    return points, [s * hy / hx * 2.0 ** draw(st.floats(-0.5, 0.5)) for s in signs]


def _synthesis_outcome(build, points, slopes):
    try:
        table = build(points, slopes)
    except (errors.PEBilliardsError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [(b.anchor, b.value, b.tilt, b.halfwidth) for b in table.bumps], table.convexity_margin


@settings(max_examples=200, deadline=None)
@given(polygon=null_polygons())
@example(polygon=(RECT.tolist(), [-1.0, 1.0, -1.0, 1.0]))
@example(polygon=(RECT.tolist(), [-1.0, 2.0, -1.0, 2.0]))
def test_synthesis_bound_keeps_the_exhaustive_table(polygon):
    # A candidate whose float-path numerator at an earlier candidate's
    # least-numerator angle is at most the best margin has a margin no
    # larger, so skipping it keeps the table (same bumps and margin) and,
    # when no candidate is convex, the error of building every one.
    got = _synthesis_outcome(lo.build_accelerating_table, *polygon)
    want = _synthesis_outcome(_exhaustive_table, *polygon)
    event("table" if isinstance(got[1], float) else got[0])
    assert got == want


@pytest.mark.parametrize("value", [1e200, 1e155])
def test_overflowing_curvature_numerator_is_a_convexity_violation(value):
    # r^2 and r r'' overflow to inf, so the least curvature numerator is
    # inf - inf = nan: it is refused like a non-positive one, and numpy
    # warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvexityViolation, match=r"min nan"):
            lo.RadialOval(ELLIPSE, (lo.RadialBump(1.0, value, 0.0, 0.5),))


def _radial_table_doc(base, bumps):
    """A radial table as the oval commands read it from their config."""
    return {
        "kind": "radial",
        "base": {"kind": "ellipse_form", "form": base.form.tolist(), "center": base.center.tolist()},
        "bumps": [[b.anchor, b.value, b.tilt, b.halfwidth] for b in bumps],
    }


def _json_numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _json_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _json_numbers(v)]
    return [doc] if isinstance(doc, float | int) and not isinstance(doc, bool) else []


def _names_an_error(line):
    """Whether a `config error:`/`error:` line or an aborted-row comment names a PEBilliardsError."""
    match = re.fullmatch(r"(?:config error|error|# aborted): (\w+): .*", line)
    cls = getattr(errors, match.group(1), None) if match else None
    return isinstance(cls, type) and issubclass(cls, errors.PEBilliardsError)


@settings(max_examples=30, deadline=None)
@given(table=radial_tables(), mode=st.sampled_from(["iterate", "periodic"]),
       theta=st.floats(0.0, 2 * np.pi, exclude_max=True), n=st.integers(2, 4))
def test_random_radial_table_through_the_cli_ends_in_a_named_outcome(table, mode, theta, n):
    # oval iterate or periodic on a random radial table exits 0 with only
    # finite numbers in its file, 1 with a refused table (nothing written),
    # or 2 with one line naming the error: on stderr, or for iterate as the
    # last row of its file.  Never a traceback or a numpy warning.
    oval = {"table": _radial_table_doc(*table)}
    oval.update({"start": theta, "steps": 10} if mode == "iterate" else {"half_period": n, "seed_param": theta})
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps({"oval": oval}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["oval", mode, "--config", str(config), "--out", str(out)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        said = err.getvalue().splitlines()
        event(f"exit {rc}")
        if said:
            assert rc in (1, 2) and len(said) == 1 and _names_an_error(said[0]), said
            assert rc == 2 or not out.exists()
            return
        if mode == "periodic":
            assert rc == 0
            numbers = _json_numbers(json.loads((out / "polygon.json").read_text()))
        else:
            rows = (out / "oval_orbit.csv").read_text().splitlines()[1:]
            if rc == 2:
                assert _names_an_error(rows.pop()), rows
            assert rc in (0, 2)
            numbers = [float(c) for row in rows for c in row.split(",")]
        assert numbers and all(np.isfinite(numbers))


def test_cached_grid_is_read_only():
    curve = _wrap_bump_table()
    for grid in (curve.grid_derivs, curve.base.grid_derivs):
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
    assert curve.grid_derivs is curve.grid_derivs


def test_chord_step_within_float_resolution_of_an_extremum_is_degenerate():
    # Between DEGENERATE_TOL and ~1.5e-8 from the x-extremum at pi, the
    # point's x equals the extremum's in float64: the only partner would be
    # the extremum itself, from which the next vertical step is degenerate.
    curve = lo.RadialOval(lo.EllipseOval.axis_aligned(1.0, 0.8), (lo.RadialBump(1.0, 0.01, 0.0, 0.3),))
    t_lo, t_hi = curve.coordinate_extrema(0)
    assert t_lo == 0.0 and t_hi == np.pi
    with pytest.raises(DegenerateChord, match="parameter 3.14159265"):
        lo.chord_step(curve, np.pi + 2e-9, lo.VERTICAL)
    partner = lo.chord_step(curve, np.pi + 1e-6, lo.VERTICAL)
    assert abs(lo.signed_angle_gap(partner, np.pi - 1e-6)) <= 1e-9

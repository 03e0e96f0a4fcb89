import json
import shutil
import stat
import subprocess

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pebilliards.billiard import integrals_batch, pseudo_norm_defect, run_orbit, sample_null_ray
from pebilliards import billiard, confocal, native, pecore, verify
from pebilliards.confocal import ConfocalFamily
from pebilliards.errors import (
    NonFinite,
    NotInward,
    NullNormal,
    OffBoundary,
    PEBilliardsError,
    ResonantAxes,
    RootIsolationFailure,
)
from pebilliards.pecore import (
    Ellipsoid,
    RayState,
    Signature,
    VectorType,
    classify_vector,
    inner,
)
from pebilliards.verify import drift_report

LORENTZ = Signature(1, 1)
ELLIPSE = Ellipsoid((2.0, 1.0))


def line_canonicalize(r: RayState) -> RayState:
    """Canonical representative of the oriented line through r, a test oracle.

    The base point becomes the point of the line closest to the origin in
    the auxiliary Euclidean metric and the direction is rescaled to unit
    Euclidean length, preserving orientation.  Two states on the same
    oriented line canonicalize to equal results up to rounding.
    """
    vhat = r.v / float(np.linalg.norm(r.v))
    return RayState(r.x - float(r.x @ vhat) * vhat, vhat)


def _dot_left_to_right(p: np.ndarray, q: np.ndarray):
    """p.q summed left to right from +0: in long double for long-double arrays, else on Python floats."""
    total = 0.0
    for s, t in zip(p, q) if p.dtype == np.longdouble else zip(p.tolist(), q.tolist()):
        total = total + s * t
    return total


def _array_chord(u: np.ndarray, w: np.ndarray, uw2: float) -> np.ndarray:
    """The chord's exit point on the unit sphere in array arithmetic, a test oracle."""
    y = u - (uw2 / _dot_left_to_right(w, w)) * w
    return y + ((_dot_left_to_right(y, y) - 1.0) / uw2) * w


def _array_reflect(u: np.ndarray, w: np.ndarray, E: np.ndarray, wu2: float) -> np.ndarray:
    """The reflected direction at the sphere point u in array arithmetic, a test oracle."""
    m = E * u
    return w - (wu2 / _dot_left_to_right(u, m)) * m


def _chord(r: RayState, ell: Ellipsoid) -> RayState:
    """The chord's exit point from the boundary state r: the array oracle on doubles, no refusals."""
    a = np.sqrt(ell.a2)
    u, w = r.x / a, r.v / a
    with np.errstate(all="ignore"):  # an overflow or invalid operation rounds as on Python floats
        return RayState(a * _array_chord(u, w, 2.0 * _dot_left_to_right(u, w)), r.v)


def _reflect(r: RayState, ell: Ellipsoid, sig: Signature) -> RayState:
    """The reflected state at the boundary point of r: the array oracle on doubles, no refusals."""
    a = np.sqrt(ell.a2)
    u, w = r.x / a, r.v / a
    with np.errstate(all="ignore"):
        return RayState(r.x, a * _array_reflect(u, w, sig.e / ell.a2, 2.0 * _dot_left_to_right(w, u)))


def _step(r: RayState, ell: Ellipsoid, sig: Signature) -> RayState:
    """One bounce of the double-precision map: the chord, then the reflection at its exit point."""
    return _reflect(_chord(r, ell), ell, sig)


def test_canonicalize_examples():
    r = line_canonicalize(RayState((5, 5), (2, 2)))
    assert np.allclose(r.x, [0, 0], atol=1e-14)
    assert np.allclose(r.v, [1 / np.sqrt(2)] * 2)

    r = line_canonicalize(RayState((1, 0), (0, 3)))
    assert np.allclose(r.x, [1, 0])
    assert np.allclose(r.v, [0, 1])

    # Derived: minimize Euclidean distance to the origin over the line.
    r = line_canonicalize(RayState((2, 1), (1, 0)))
    assert np.allclose(r.x, [0, 1])
    assert np.allclose(r.v, [1, 0])


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_canonicalize_quotient_property(x, v, t, s):
    x, v = np.array(x), np.array(v)
    base = line_canonicalize(RayState(x, v))
    slid = line_canonicalize(RayState(x + t * v, s * v))
    again = line_canonicalize(base)
    scale = max(1.0, float(np.max(np.abs(base.x))))
    assert np.max(np.abs(base.x - slid.x)) <= 1e-9 * scale
    assert np.max(np.abs(base.v - slid.v)) <= 1e-12
    # idempotent
    assert np.max(np.abs(base.x - again.x)) <= 1e-12 * scale
    assert np.max(np.abs(base.v - again.v)) <= 1e-15


def test_advance_circle_diameter():
    out = _chord(RayState((0, 1), (0, -1)), Ellipsoid((1.0, 1.0)))
    assert np.allclose(out.x, [0, -1], atol=1e-15)


def test_advance_worked_chord():
    out = _chord(RayState((0, 1), (1, -1)), ELLIPSE)
    assert np.allclose(out.x, [1.6, -0.6], atol=1e-15)
    assert ELLIPSE.boundary_defect(out.x) == pytest.approx(0.0, abs=1e-15)


def test_reflect_worked_example():
    out = _reflect(RayState((1.6, -0.6), (1, -1)), ELLIPSE, LORENTZ)
    assert np.allclose(out.v, [5.0, 5.0], atol=1e-12)
    assert inner(out.v, out.v, LORENTZ) == pytest.approx(0.0, abs=1e-12)
    nu = ELLIPSE.conormal(out.x)
    assert float(nu @ out.v) == pytest.approx(-1.0, abs=1e-12)
    assert float(nu @ np.array([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)


def test_reflect_normal_incidence_circle():
    out = _reflect(RayState((0, -1), (0, -1)), Ellipsoid((1.0, 1.0)), Signature(2, 0))
    assert np.allclose(out.v, [0, 1], atol=1e-15)


def test_reflect_null_normal():
    # On the sqrt(2)-circle the normal at (1, 1) is light-like: the normal test flags it.
    ell = Ellipsoid((np.sqrt(2.0), np.sqrt(2.0)))
    assert billiard._null_normals(ell.conormal(np.array([1.0, 1.0])), LORENTZ.e)
    assert not billiard._null_normals(ell.conormal(np.array([0.0, np.sqrt(2.0)])), LORENTZ.e)


def test_reflect_preserves_pseudo_norm_all_types():
    rng = np.random.default_rng(4)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    seen = set()
    for _ in range(200):
        s = rng.standard_normal(3)
        x = np.array(ell.a) * s / np.linalg.norm(s)
        v = rng.standard_normal(3)
        if float(ell.conormal(x) @ v) > 0:
            v = -v
        if abs(float(ell.conormal(x) @ v)) < 1e-6:
            continue
        out = _reflect(RayState(x, v), ell, sig)
        seen.add(classify_vector(v, sig))
        before = inner(v, v, sig)
        after = inner(out.v, out.v, sig)
        scale = max(1.0, float(v @ v), float(out.v @ out.v))
        assert abs(after - before) <= 1e-12 * scale
        # H flips sign across the reflection
        nu = ell.conormal(x)
        assert float(nu @ out.v) == pytest.approx(-float(nu @ v), rel=1e-10, abs=1e-12)
    assert VectorType.SPACELIKE in seen and VectorType.TIMELIKE in seen


def test_billiard_map_composition():
    rec = run_orbit(RayState((0, 1), (1, -1)), 1, ELLIPSE, LORENTZ)
    assert np.allclose(rec.xs[1], [1.6, -0.6], atol=1e-14)
    assert np.allclose(rec.vs[1], [5.0, 5.0], atol=1e-12)


def test_reflect_is_an_involution():
    rng = np.random.default_rng(14)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    for seed in range(10):
        state = sample_null_ray(ell, sig, seed)
        twice = _reflect(_reflect(state, ell, sig), ell, sig)
        assert np.allclose(twice.v, state.v, rtol=1e-12, atol=1e-12)


def test_billiard_map_descends_to_lines():
    # Sliding the base point along the ray and rescaling the direction must
    # give the same oriented outgoing line.
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    state = sample_null_ray(ell, sig, 21)
    out = run_orbit(state, 1, ell, sig).states[1]
    scaled = run_orbit(RayState(state.x, 3.7 * state.v), 1, ell, sig).states[1]
    a = line_canonicalize(out)
    b = line_canonicalize(scaled)
    assert np.allclose(a.x, b.x, atol=1e-12)
    assert np.allclose(a.v, b.v, atol=1e-12)
    # same bounce point, direction scaled by the same factor
    assert np.allclose(scaled.x, out.x, atol=1e-12)
    assert np.allclose(scaled.v, 3.7 * out.v, rtol=1e-12)


def test_billiard_map_circle_rotation_invariance():
    # Chord length (inscribed angle) is preserved on the Euclidean circle,
    # which run_orbit refuses as resonant.
    circle = Ellipsoid((1.0, 1.0))
    sig = Signature(2, 0)
    state = RayState((1.0, 0.0), (-0.8, 0.6))
    lengths = []
    for _ in range(10):
        nxt = _step(state, circle, sig)
        lengths.append(float(np.linalg.norm(nxt.x - state.x)))
        state = nxt
    assert np.ptp(lengths) <= 1e-12


def test_minor_axis_period_two():
    sig = Signature(2, 0)
    state = RayState((0.0, 1.0), (0.0, -1.0))
    rec = run_orbit(state, 2, ELLIPSE, sig)
    assert np.allclose(rec.xs[1], [0, -1], atol=1e-14)
    assert np.allclose(rec.vs[1], [0, 1], atol=1e-14)
    assert np.allclose(rec.xs[2], state.x, atol=1e-14)
    assert np.allclose(rec.vs[2], state.v, atol=1e-14)


def test_joachimsthal_examples():
    # The recorder's H column is the Joachimsthal invariant Ax.v.  The circle
    # is resonant in signature (2, 0), where run_orbit refuses it, so its
    # case runs in the Lorentz plane: H does not depend on the metric.
    def h0(r, ell, sig=Signature(2, 0)):
        return run_orbit(r, 1, ell, sig).h[0]

    assert h0(RayState((0, 1), (1, -1)), ELLIPSE) == pytest.approx(-1.0)
    assert h0(RayState((1.6, -0.6), (5, 5)), ELLIPSE) == pytest.approx(-1.0)
    assert h0(RayState((0, 1), (0, -1)), Ellipsoid((1.0, 1.0)), LORENTZ) == pytest.approx(-1.0)
    with pytest.raises(OffBoundary):
        h0(RayState((0, 0.2), (1, 0)), ELLIPSE)


def test_integral_values_lorentz():
    f1, f2 = integrals_batch([[0, 1]], [[1, -1]], ELLIPSE, LORENTZ)[0]
    assert f1 == pytest.approx(0.8)
    assert f2 == pytest.approx(-0.8)
    assert f1 + f2 == pytest.approx(inner((1, -1), (1, -1), LORENTZ), abs=1e-15)


def test_integral_values_euclid():
    sig = Signature(2, 0)
    fs = integrals_batch([[0, 1]], [[1, -1]], ELLIPSE, sig)
    assert float(np.sum(fs)) == pytest.approx(2.0, abs=1e-14)


def test_resonant_axes():
    with pytest.raises(ResonantAxes):
        integrals_batch([[0, 1]], [[1, 0]], Ellipsoid((1.0, 1.0)), Signature(2, 0))
    # Equal axes across metric blocks are fine: denominators are sums there.
    fs = integrals_batch([[0, 1]], [[1, -1]], Ellipsoid((1.0, 1.0)), LORENTZ)
    assert np.all(np.isfinite(fs))


def test_sum_rule_batch():
    rng = np.random.default_rng(12)
    for sig, axes in [
        (Signature(1, 1), (2.0, 1.0)),
        (Signature(2, 1), (3.0, 2.0, 1.0)),
        (Signature(2, 2), (4.0, 3.0, 2.0, 1.0)),
    ]:
        xs = rng.standard_normal((2000, sig.dim))
        vs = rng.standard_normal((2000, sig.dim))
        fs = integrals_batch(xs, vs, Ellipsoid(axes), sig)
        assert float(np.max(pseudo_norm_defect(vs, fs, sig))) <= 1e-12


def test_free_flight_leaves_integrals_unchanged():
    rng = np.random.default_rng(2)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    for _ in range(50):
        x = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 3))
        t = rng.uniform(-5, 5)
        f0 = integrals_batch(x, v, ell, sig)
        f1 = integrals_batch(x + t * v, v, ell, sig)
        assert np.allclose(f0, f1, rtol=1e-11, atol=1e-11)


def test_run_orbit_circle_h_constant():
    # The Lorentz circle: the Euclidean one is resonant, which run_orbit refuses.
    circle = Ellipsoid((1.0, 1.0))
    rec = run_orbit(RayState((1.0, 0.0), (-0.8, 0.6)), 100, circle, LORENTZ)
    assert rec.abort_reason is None
    assert rec.bounce_count == 100
    assert float(np.max(np.abs(rec.h - rec.h[0]))) <= 1e-12


def test_run_orbit_circle_null_four_periodic():
    # In the Lorentz plane the circle's null orbit through the axis points
    # closes exactly after four bounces.
    circle = Ellipsoid((1.0, 1.0))
    rec = run_orbit(RayState((0.0, 1.0), (1.0, -1.0)), 4, circle, LORENTZ)
    assert rec.abort_reason is None
    first = line_canonicalize(rec.states[0])
    last = line_canonicalize(rec.states[4])
    assert np.allclose(first.x, last.x, atol=1e-12)
    assert np.allclose(first.v, last.v, atol=1e-12)


def test_run_orbit_preserves_light_like_type():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    rec = run_orbit(sample_null_ray(ell, sig, 3), 200, ell, sig)
    assert rec.abort_reason is None
    for state in rec.states[::10]:
        assert classify_vector(state.v, sig) is VectorType.LIGHTLIKE


def test_run_orbit_aborts_and_partial_record():
    # A near-grazing start is refused by the chord guard: the record keeps
    # state 0 and the reason.
    rec = run_orbit(RayState((0.0, 1.0), (1.0, -1e-15)), 5, ELLIPSE, LORENTZ)
    assert rec.abort_reason is not None and "NotInward" in rec.abort_reason
    assert rec.abort_bounce == 1
    assert len(rec.states) == 1


def test_run_orbit_aborts_at_null_normal():
    # On the sqrt(2)-circle the boundary normal is light-like at |x1| = |x2|;
    # this chord lands exactly there.
    ell = Ellipsoid((np.sqrt(2.0), np.sqrt(2.0)))
    rec = run_orbit(RayState((1.0, 1.0), (-1.0, 0.0)), 10, ell, LORENTZ)
    assert rec.abort_reason is not None and "NullNormal" in rec.abort_reason


def test_reflect_leaves_integrals_unchanged():
    rng = np.random.default_rng(6)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    for seed in range(20):
        state = sample_null_ray(ell, sig, seed)
        out = _reflect(state, ell, sig)
        f_in, f_out = integrals_batch([state.x, out.x], [state.v, out.v], ell, sig)
        scale = np.maximum(1.0, np.abs(f_in)) * max(1.0, float(out.v @ out.v))
        assert np.all(np.abs(f_out - f_in) / scale <= 1e-12)


def test_run_orbit_speed_not_invariant_for_null():
    rec = run_orbit(RayState((0.0, 1.0), (1.0, -1.0)), 1, ELLIPSE, LORENTZ)
    s0 = float(np.linalg.norm(rec.states[0].v))
    s1 = float(np.linalg.norm(rec.states[1].v))
    assert s1 == pytest.approx(5.0 * s0, rel=1e-12)


def test_run_orbit_records_tangency():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    fam = ConfocalFamily(ell, sig)
    rec = run_orbit(sample_null_ray(ell, sig, 8), 20, ell, sig, fam=fam)
    assert rec.lambdas.shape == rec.near_pole.shape == (21, 1)
    assert not np.isnan(rec.lambdas).any() and np.isnan(rec.near_pole).all()


def test_sample_null_ray_contract():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    for seed in range(10):
        r = sample_null_ray(ell, sig, seed)
        assert abs(ell.boundary_defect(r.x)) <= 1e-12
        assert abs(inner(r.v, r.v, sig)) <= 1e-12 * float(r.v @ r.v)
        assert float(ell.conormal(r.x) @ r.v) < 0.0


def test_sample_null_ray_plane_directions():
    ell = Ellipsoid((2.0, 1.0))
    for seed in range(10):
        r = sample_null_ray(ell, LORENTZ, seed)
        assert abs(abs(r.v[0]) - abs(r.v[1])) <= 1e-12


def test_sample_null_ray_deterministic():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    a = sample_null_ray(ell, sig, 99)
    b = sample_null_ray(ell, sig, 99)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


def test_sample_null_ray_needs_mixed_signature():
    with pytest.raises(ValueError):
        sample_null_ray(Ellipsoid((2.0, 1.0)), Signature(2, 0), 0)


ABORT_STARTS = [
    (ELLIPSE, RayState((0.0, 1.0), (1.0, -1e-15)), "NotInward"),
    (Ellipsoid((np.sqrt(2.0), np.sqrt(2.0))), RayState((1.0, 1.0), (-1.0, 0.0)), "NullNormal"),
]

#: The abort reasons of ABORT_STARTS, byte for byte.  <n,n> is reported in
#: double precision at the row rounded to double, wherever long double differs.
ABORT_TEXTS = {
    "NotInward": "NotInward: Ax.v = -1.000e-15 is not inward-transversal",
    "NullNormal": "NullNormal: <n,n> = 1.110e-16 is null within tolerance",
}


@pytest.mark.parametrize("ell, start, reason", ABORT_STARTS)
def test_run_orbit_partial_record_rows(ell, start, reason):
    # An aborted record keeps one row per completed state in every array,
    # and its states are those rows.
    rec = run_orbit(start, 10, ell, LORENTZ)
    assert rec.abort_reason == ABORT_TEXTS[reason]
    rows = rec.abort_bounce
    assert rows == 1 and rec.bounce_count == rows - 1
    assert rec.xs.shape == rec.vs.shape == rec.f.shape == (rows, 2)
    assert rec.h.shape == (rows,)
    states = rec.states
    assert len(states) == rows
    for state, x, v in zip(states, rec.xs, rec.vs):
        assert np.array_equal(state.x, x) and np.array_equal(state.v, v)
    assert np.array_equal(rec.xs[0], start.x) and np.array_equal(rec.vs[0], start.v)


#: Starts that run_orbit refuses before the first bounce.  NaN and inf
#: compare False with every bound, so each guard is written to fail on them
#: rather than let a NaN state through.
REFUSED_STARTS = {
    "grazing": (RayState((0.0, 1.0), (1.0, 0.0)), NotInward),
    "outward": (RayState((0.0, 1.0), (1.0, 1.0)), NotInward),
    "off-boundary": (RayState((0.0, 0.5), (1.0, -1.0)), OffBoundary),
    "nan-x": (RayState((np.nan, 1.0), (1.0, -1.0)), OffBoundary),
    "inf-v": (RayState((0.0, 1.0), (np.inf, -1.0)), NotInward),
    "minus-inf-v": (RayState((1.6, -0.6), (-np.inf, -1.0)), NotInward),
    "nan-v": (RayState((0.0, 1.0), (np.nan, -1.0)), NotInward),
}


@pytest.mark.parametrize("start, error", list(REFUSED_STARTS.values()), ids=list(REFUSED_STARTS))
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_run_orbit_refuses_bad_starts(start, error):
    with pytest.raises(error):
        run_orbit(start, 3, ELLIPSE, LORENTZ)


def test_run_orbit_steps_a_direction_whose_square_underflows_double():
    # The chord divides by w.w, which is 0 in double precision here; the
    # recorder steps in extended precision, where it is not.
    start = RayState((0.0, 1.0), (1e-200, -1e-200))
    assert run_orbit(start, 3, ELLIPSE, LORENTZ).abort_reason is None


def test_run_orbit_rows_match_double_map():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    r = sample_null_ray(ell, sig, 5)
    rec = run_orbit(r, 3, ell, sig)
    direct = _step(r, ell, sig)
    assert rec.xs.dtype == rec.vs.dtype == rec.h.dtype == rec.f.dtype == np.float64
    assert np.allclose(rec.xs[1], direct.x, rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.vs[1], direct.v, rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.f, integrals_batch(rec.xs, rec.vs, ell, sig), rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.h, np.sum(ell.shape_diag * rec.xs * rec.vs, axis=1), rtol=1e-12, atol=1e-12)


def test_run_orbit_tangency_failure_at_bounce_zero():
    # A start whose own row cannot be recorded is refused like any other bad
    # start: at speed 1e154 every F_k is finite, but Q's coefficients, which
    # carry a_i^2 v^2, are not.
    start = RayState((0.0, 1.0), (1e154, -1e154))
    assert np.isfinite(run_orbit(start, 3, ELLIPSE, LORENTZ).f).all()
    with pytest.raises(RootIsolationFailure, match=r"^tangency polynomial not finite: \[-?inf, "):
        run_orbit(start, 3, ELLIPSE, LORENTZ, fam=ConfocalFamily(ELLIPSE, LORENTZ))


def test_run_orbit_solves_every_row_as_the_start_is_classified():
    # The README simulate orbit: from bounce 57 954 on, some rows' <v,v> / |v|^2
    # has drifted past LIGHTLIKE_TOL.  The line stays light-like, so every row
    # keeps Q's degree-one part and has exactly one tangency parameter.
    sig, ell = Signature(2, 1), Ellipsoid((3.0, 2.0, 1.0))
    rec = run_orbit(sample_null_ray(ell, sig, 7), 58_000, ell, sig, fam=ConfocalFamily(ell, sig))
    drifted = np.abs(np.sum(sig.e * rec.vs * rec.vs, axis=1)) > pecore.LIGHTLIKE_TOL * np.sum(rec.vs * rec.vs, axis=1)
    assert rec.bounce_count == 58_000 and int(np.argmax(drifted)) == 57_954
    assert rec.lambdas.shape == (58_001, 1) and not np.isnan(rec.lambdas).any()
    assert "count varies" not in (drift_report(rec).lambda_mismatch or "")


def test_run_orbit_non_finite_row_ends_the_record(monkeypatch, no_compiler):
    # One abort rule for every reason: a row k >= 1 whose integrals are not
    # finite ends the record before row k, as a failed step does.  The stub
    # reaches the numpy pass only, the one taken without a compiler.
    integrals = billiard._integrals

    def overflow_row_2(xs, vs, d, e):
        f = integrals(xs, vs, d, e)
        f[2:, 0] = np.inf
        return f

    monkeypatch.setattr(billiard, "_integrals", overflow_row_2)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    rec = run_orbit(sample_null_ray(ell, sig, 8), 5, ell, sig, fam=ConfocalFamily(ell, sig))
    assert rec.abort_reason.startswith("NonFinite: not finite at bounce 2: ")
    assert rec.abort_bounce == 2 and rec.bounce_count == 1
    assert len(rec.lambdas) == len(rec.near_pole) == 2 and np.all(np.isfinite(rec.f))


#: Both record passes: the C one, where the library builds here, and the numpy one.
PASSES = ["native", "numpy"]


def _take_pass(name: str, request) -> None:
    """Make run_orbit take the named record pass."""
    if name == "numpy":
        request.getfixturevalue("no_compiler")
        assert native.library() is None
    elif native.library() is None:
        pytest.skip("no native record: no C compiler on PATH or no writable cache")


@pytest.mark.parametrize("name", PASSES)
def test_integrals_that_overflow_double_after_bounce_1_end_the_record(name, request):
    # A start near a null normal, scaled by 2^513: F_2 rounds to a double
    # near -1.7e308 on rows 0 and 1, and past it to -inf on row 2, whose
    # reflection is nearly null.  Scaling v by a power of two scales every
    # F_k by its square, exactly, and decides nothing else.
    _take_pass(name, request)
    v = np.array((0.02842224131579679, 0.5467129866124469)) * 2.0**513
    start = RayState((0.8909144261398751, -1.0983039129930554), v)
    rec = run_orbit(start, 10, SQRT2_CIRCLE, LORENTZ)
    assert rec.abort_reason == (
        "NonFinite: not finite at bounce 2: H = -8.547363261109847e+153, F = [-4.156225956730004e+307, -inf]"
    )
    assert rec.abort_bounce == 2 and rec.bounce_count == 1 and np.all(np.isfinite(rec.f))


def test_run_orbit_refuses_resonant_axes():
    # The Euclidean circle has no quadratic integrals F_k; the start is refused.
    with pytest.raises(ResonantAxes):
        run_orbit(RayState((1.0, 0.0), (-0.8, 0.6)), 10, Ellipsoid((1.0, 1.0)), Signature(2, 0))


def test_run_orbit_checks_the_axes_before_the_start():
    # A start that is off the boundary of resonant axes is refused for the axes.
    with pytest.raises(ResonantAxes):
        run_orbit(RayState((0.5, 0.0), (-0.8, 0.6)), 10, Ellipsoid((1.0, 1.0)), Signature(2, 0))


#: Semi-axes for each of the five signatures the suite covers.
SIGNATURE_AXES = {
    (1, 1): (2.0, 1.0),
    (2, 1): (3.0, 2.0, 1.0),
    (3, 1): (4.0, 3.0, 2.0, 1.0),
    (2, 2): (4.0, 3.0, 2.0, 1.0),
    (3, 0): (3.0, 2.0, 1.0),
}


def test_run_orbit_builds_no_per_bounce_raystates(monkeypatch):
    # The recorder keeps its states in arrays: without tangency a long run
    # constructs no RayState per bounce.
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    start = sample_null_ray(ell, sig, 3)
    built = []
    post_init = pecore.RayState.__post_init__

    def counted(state):
        built.append(1)
        post_init(state)

    monkeypatch.setattr(pecore.RayState, "__post_init__", counted)
    rec = run_orbit(start, 1000, ell, sig)
    assert rec.abort_reason is None and rec.bounce_count == 1000
    assert len(built) <= 2
    # Tangency is solved from the rows after the loop, so it builds none either.
    built.clear()
    rec = run_orbit(start, 1000, ell, sig, fam=ConfocalFamily(ell, sig))
    assert rec.abort_reason is None and len(rec.lambdas) == 1001
    assert len(built) <= 2


def test_integrals_batch_keeps_longdouble():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    rng = np.random.default_rng(12)
    xs, vs = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
    f64 = integrals_batch(xs, vs, ell, sig)
    fld = integrals_batch(xs.astype(np.longdouble), vs.astype(np.longdouble), ell, sig)
    assert f64.dtype == np.float64
    assert fld.dtype == np.longdouble
    assert integrals_batch(xs.tolist(), vs.astype(np.float32), ell, sig).dtype == np.float64
    scale = np.maximum(1.0, np.abs(f64))
    assert np.all(np.abs(fld.astype(float) - f64) <= 1e-14 * scale)



def _wedge(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """w[:, k, i] = x_i v_k - x_k v_i, antisymmetric in (k, i)."""
    return vs[:, :, None] * xs[:, None, :] - xs[:, :, None] * vs[:, None, :]


def _wedge_denominators(ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """d[k, i] = e_i a_k^2 - e_k a_i^2, with an infinite diagonal that drops the i = k terms."""
    d = ell.a2[:, None] * sig.e - sig.e[:, None] * ell.a2
    np.fill_diagonal(d, np.inf)
    return d


def _wedge_integrals(xs: np.ndarray, vs: np.ndarray, ell: Ellipsoid, sig: Signature) -> np.ndarray:
    """Every F_k as a sum over a whole row of the wedge matrix, a test oracle.

    The d x d matrix (x_i v_k - x_k v_i)^2 / d[k, i], with the i = k term
    dropped by the infinite diagonal of d, is summed over i in column order
    (numpy's order for these short rows), then e_k v_k^2 is added.
    """
    w = _wedge(xs, vs)
    return sig.e * vs * vs + (w * w / _wedge_denominators(ell, sig)).sum(axis=2)


def _wedge_gradients(xs: np.ndarray, vs: np.ndarray, ell: Ellipsoid, sig: Signature):
    """The gradients (gx, gv) of every F_k from the wedge matrix, a test oracle.

    wd[k, i] = w[k, i] / d[k, i] is zero on the diagonal; the derivatives by
    the own coordinate k are sums over whole rows of wd.
    """
    wd = _wedge(xs, vs) / _wedge_denominators(ell, sig)
    idx = np.arange(sig.dim)
    gx = 2.0 * wd * vs[:, :, None]
    gx[:, idx, idx] = -2.0 * np.sum(wd * vs[:, None, :], axis=2)
    gv = -2.0 * wd * xs[:, :, None]
    gv[:, idx, idx] = 2.0 * sig.e * vs + 2.0 * np.sum(wd * xs[:, None, :], axis=2)
    return gx, gv


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


#: The five signatures, and a negative definite one: only there can every
#: pair term of a row be -0.0 together with e_k v_k^2.
ORACLE_AXES = {**SIGNATURE_AXES, (0, 2): (2.0, 1.0)}

#: Coordinates of the oracle property: signed zeros, and magnitudes whose
#: squares and products stay finite in double precision.
PHASE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e60, max_value=1e60, allow_subnormal=False),
)

#: Coordinates of one binade, +-[1, 2) with random significands: a row's pair
#: terms then have comparable magnitudes, so the order of their sum shows in
#: its rounding.
NARROW_ENTRIES = st.builds(
    lambda m, sign: sign * m / 2.0**52, st.integers(2**52, 2**53 - 1), st.sampled_from([1.0, -1.0])
)


@given(
    st.sampled_from(list(ORACLE_AXES)),
    st.sampled_from([np.float64, np.longdouble]),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_integrals_batch_equals_the_wedge_sum(pq, dtype, rows, data):
    # Each pair term is formed once and the rows add them in the wedge sum's
    # order, so values and the signs of zeros are the same bit for bit.  Half
    # the batches draw from one binade, where another order of three or more
    # terms (d >= 4) rounds differently.
    sig, ell = Signature(*pq), Ellipsoid(ORACLE_AXES[pq])
    entries = data.draw(st.sampled_from([PHASE_ENTRIES, NARROW_ENTRIES]))
    phase = st.lists(entries, min_size=rows * sig.dim, max_size=rows * sig.dim)
    xs = np.array(data.draw(phase), dtype=dtype).reshape(rows, sig.dim)
    vs = np.array(data.draw(phase), dtype=dtype).reshape(rows, sig.dim)
    _assert_same_bits(integrals_batch(xs, vs, ell, sig), _wedge_integrals(xs, vs, ell, sig))


@pytest.mark.parametrize("p,q", list(SIGNATURE_AXES))
def test_integrals_of_a_recorded_orbit_equal_the_wedge_sum(p, q):
    sig, ell = Signature(p, q), Ellipsoid(SIGNATURE_AXES[(p, q)])
    if q:
        start = sample_null_ray(ell, sig, 11)
    else:
        x = np.array(ell.a) / np.sqrt(sig.dim)
        start = RayState(x, -x + 0.1 * np.arange(sig.dim))
    rec = run_orbit(start, 1000, ell, sig)
    assert rec.abort_reason is None and len(rec.xs) == 1001
    for xs, vs in ((rec.xs, rec.vs), (rec.xs.astype(np.longdouble), rec.vs.astype(np.longdouble))):
        _assert_same_bits(integrals_batch(xs, vs, ell, sig), _wedge_integrals(xs, vs, ell, sig))


@given(st.sampled_from(list(SIGNATURE_AXES)), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrals_batch_overflows_only_where_the_wedge_sum_does(pq, rows, data):
    # Past double range the pair form need not repeat the wedge sum's nan or
    # inf.  Every finite value of the wedge sum is kept bit for bit, and the
    # pair form is finite where the wedge sum is not only where the wedge's
    # own diagonal term x_k v_k - x_k v_k is inf - inf (the pair form has no
    # diagonal).
    sig, ell = Signature(*pq), Ellipsoid(SIGNATURE_AXES[pq])
    phase = st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=rows * sig.dim, max_size=rows * sig.dim)
    xs = np.array(data.draw(phase)).reshape(rows, sig.dim)
    vs = np.array(data.draw(phase)).reshape(rows, sig.dim)
    got, want = integrals_batch(xs, vs, ell, sig), _wedge_integrals(xs, vs, ell, sig)
    finite = np.isfinite(want)
    _assert_same_bits(got[finite], want[finite])
    assert np.all(np.isinf(xs * vs)[np.isfinite(got) & ~finite])


#: The five signatures and two more, for every dimension up to verify.MAX_SWEEP_DIM.
GRADIENT_AXES = {**SIGNATURE_AXES, (3, 2): (5.0, 4.0, 3.0, 2.0, 1.0), (4, 2): (6.0, 5.0, 4.0, 3.0, 2.0, 1.0)}


@given(st.sampled_from(list(GRADIENT_AXES)), st.integers(1, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_moser_gradients_equal_the_wedge_form(pq, rows, data):
    # The pair quotients R_ki equal the wedge's w[k, i] / d[k, i] in value,
    # and each row sum adds the same terms in the same order.  Only the sign
    # of an exact zero may differ: w[i, k] = x_k v_i - x_i v_k is +0, not -0,
    # where the two products are equal, so R_ki and the wedge's quotient can
    # be zeros of opposite sign.  np.array_equal compares values, in which
    # -0.0 == 0.0; brackets.json keeps |{F_j, F_k}| and its argmax only.
    sig, ell = Signature(*pq), Ellipsoid(GRADIENT_AXES[pq])
    phase = st.lists(PHASE_ENTRIES, min_size=rows * sig.dim, max_size=rows * sig.dim)
    xs = np.array(data.draw(phase)).reshape(rows, sig.dim)
    vs = np.array(data.draw(phase)).reshape(rows, sig.dim)
    got, want = verify.moser_gradients_batch(xs, vs, ell, sig), _wedge_gradients(xs, vs, ell, sig)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (rows, sig.dim, sig.dim)
        assert np.array_equal(g, w)


#: Semi-axes of the null-orbit conservation survey, per signature (p, q).
NULL_AXES = {(2, 1): (3.0, 2.0, 1.0), (2, 2): (4.0, 3.0, 2.0, 1.0), (3, 1): (4.0, 3.0, 2.0, 1.0), (1, 1): (2.0, 1.0)}


#: The survey orbits, by signature and seed, whose H or F_k drift above 1e-9
#: in 1000 bounces: the long-double record loses digits to cancellation once
#: |v| reaches 1e5-1e6.
KNOWN_DRIFT = {(2, 1): {90, 118}, (2, 2): {48, 56, 65, 74}, (3, 1): {69, 106}, (1, 1): set()}


@pytest.mark.parametrize("p, q", NULL_AXES)
def test_null_orbits_conserve_every_integral(p, q):
    # The conservation survey: 150 sampled light-like orbits of 1000 bounces
    # per signature keep H and every F_k within 1e-9, except the orbits of
    # KNOWN_DRIFT, each of which must still drift above it.
    sig, ell = Signature(p, q), Ellipsoid(NULL_AXES[p, q])
    drifts = {}
    for seed in range(150):
        report = drift_report(run_orbit(sample_null_ray(ell, sig, seed), 1000, ell, sig))
        assert report.aborted is None
        drifts[seed] = max(report.h_drift, *report.f_drift)
    above = {seed: d for seed, d in drifts.items() if d > 1e-9}
    assert set(above) == KNOWN_DRIFT[p, q], above


def _stepwise_record(r: RayState, n_bounces: int, ell: Ellipsoid, sig: Signature):
    """The recorder with its abort tests inside the loop, a test oracle.

    It steps (u, w) = (x / a, v / a) on the unit sphere with the recorder's
    arithmetic, written out.  Every bounce tests its chord before stepping
    and its normal before reflecting, both on x = a u and v = a w, and stops
    at the first failure; H, F_k and the finiteness check then run over the
    completed rows.  Returns (xs, vs, h, f, reason, bounce), or raises what
    run_orbit raises before the first bounce.
    """
    billiard._integral_denominators(ell, sig)
    billiard._require_on_boundary(r.x, ell)
    ax_v = billiard._dot(ell.conormal(r.x), r.v)
    if not -np.inf < ax_v < 0.0:
        raise NotInward(f"initial Ax.v = {ax_v:.3e} is not inward")
    ld = np.longdouble
    a2 = ell.a2.astype(ld)
    a, E, A, e = np.sqrt(a2), sig.e / a2, 1.0 / a2, sig.e.astype(ld)
    u, w = r.x / a, r.v / a
    us, ws = [u], [w]
    uw = u.dot(w)
    failure = None
    with np.errstate(all="ignore"):
        for _ in range(n_bounces):
            x, v = a * u, a * w
            axv = (A * x).dot(v)
            scale = np.sqrt(x.dot(x) * v.dot(v))
            if not -np.inf < axv < 0.0 or abs(axv) < billiard.GRAZING_TOL * scale:
                failure = NotInward(f"Ax.v = {float(axv):.3e} is not inward-transversal")
                break
            y = u - (2.0 * uw / w.dot(w)) * w
            u = y + ((y.dot(y) - 1.0) / (2.0 * uw)) * w
            Ax = A * (a * u)
            n = e * Ax
            if abs(Ax.dot(n)) <= billiard.NULL_NORMAL_TOL * n.dot(n):
                Ax = ell.conormal(a * u)
                failure = NullNormal(f"<n,n> = {billiard._dot(Ax, sig.e * Ax):.3e} is null within tolerance")
                break
            m = E * u
            wu = w.dot(u)
            w = w - (2.0 * wu / u.dot(m)) * m
            uw = -wu
            us.append(u)
            ws.append(w)
        xs, vs = a * np.array(us), a * np.array(ws)
        h = np.sum(A * xs * vs, axis=1).astype(float)
        f = integrals_batch(xs, vs, ell, sig).astype(float)
        xs, vs = xs.astype(float), vs.astype(float)
    rows = len(xs)
    finite = np.isfinite(np.column_stack([xs, vs, h, f])).all(axis=1)
    if not finite.all():
        rows = int(np.argmin(finite))
        failure = NonFinite(f"not finite at bounce {rows}: H = {h[rows]}, F = {f[rows].tolist()}")
    if failure is not None and rows == 0:
        raise failure
    reason = None if failure is None else f"{type(failure).__name__}: {failure}"
    bounce = None if failure is None else rows
    return xs[:rows], vs[:rows], h[:rows], f[:rows], reason, bounce


def _outcome(run, *args):
    """A run's result, or the type and message of what it raised."""
    try:
        return run(*args)
    except PEBilliardsError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(start: RayState, n_bounces: int, ell: Ellipsoid, sig: Signature):
    want = _outcome(_stepwise_record, start, n_bounces, ell, sig)
    got = _outcome(run_orbit, start, n_bounces, ell, sig)
    if isinstance(want[0], type):
        assert got == want
        return
    xs, vs, h, f, reason, bounce = want
    assert isinstance(got, billiard.OrbitRecord)
    for mine, theirs in ((got.xs, xs), (got.vs, vs), (got.h, h), (got.f, f)):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    assert (got.abort_reason, got.abort_bounce) == (reason, bounce)


def _backwards(x_end, w, ell: Ellipsoid, sig: Signature, bounces: int) -> RayState:
    """A start whose orbit reaches the boundary point x_end at bounce `bounces`.

    w is the velocity arriving at x_end.  The map is run backwards in double
    precision: the chord back along -w gives the previous bounce point, and
    reflection there (an involution) the velocity that arrived at it.
    """
    x, w = np.asarray(x_end, dtype=float), np.asarray(w, dtype=float)
    for k in range(bounces):
        x = _chord(RayState(x, -w), ell).x
        if k < bounces - 1:
            w = _reflect(RayState(x, w), ell, sig).v
    return RayState(x, w)


def _null_normal_point(ell: Ellipsoid, sig: Signature, c: np.ndarray, nudge: float) -> np.ndarray:
    """A boundary point whose normal is light-like, or nearly so with `nudge` != 0.

    x_i = lam a_i^2 c_i with the space-like and time-like blocks of c of equal
    Euclidean norm gives sum e_i x_i^2 / a_i^4 = 0; lam puts x on the boundary.
    """
    c = np.array(c, dtype=float)
    c[: sig.p] *= (1.0 + nudge) / np.linalg.norm(c[: sig.p])
    c[sig.p :] /= np.linalg.norm(c[sig.p :])
    x = ell.a2 * c
    return x / np.sqrt(ell.shape_diag @ (x * x))


def _circle_grazing_start() -> tuple[Ellipsoid, RayState]:
    """Lorentz circle of radius 20 and a start whose second chord grazes.

    The first chord lands where <n,n> = 2e-10 |n|^2, just above the null-normal
    cutoff, so reflection multiplies |v| by about 1e10 while |Ax.v| stays
    fixed: the second chord has |Ax.v| ~ 2.5e-13 |x||v|, below GRAZING_TOL.
    """
    radius, theta = 20.0, np.pi / 4 - 1e-10
    start = RayState((-radius * np.cos(theta), radius * np.sin(theta)), (1.0, 0.0))
    return Ellipsoid((radius, radius)), start


SQRT2_CIRCLE = Ellipsoid((np.sqrt(2.0), np.sqrt(2.0)))

#: Starts whose orbits fail after one or more clean bounces, one row per reason.
LATE_ABORT_STARTS = [
    (SQRT2_CIRCLE, _backwards((1.0, 1.0), (1.0, 0.3), SQRT2_CIRCLE, LORENTZ, 2), "NullNormal", 2),
    (SQRT2_CIRCLE, _backwards((1.0, 1.0), (1.0, 0.3), SQRT2_CIRCLE, LORENTZ, 5), "NullNormal", 5),
    (*_circle_grazing_start(), "NotInward", 2),
]


@pytest.mark.parametrize("ell, start, reason, bounce", LATE_ABORT_STARTS)
def test_run_orbit_aborts_after_clean_bounces(ell, start, reason, bounce):
    # The verdict after the loop names the first failing bounce, not the
    # bounce where the loop stopped stepping, and agrees with the oracle.
    rec = run_orbit(start, 50, ell, LORENTZ)
    assert rec.abort_reason.startswith(f"{reason}: ")
    assert rec.abort_bounce == bounce and len(rec.xs) == bounce
    _assert_same_outcome(start, 50, ell, LORENTZ)


#: A light-like conormal in 16 dimensions, signature (8, 8): summed left to
#: right, its <n,n> is exactly 0; OpenBLAS's ddot, which sums 16 entries in
#: several accumulators, gives 3.886e-16.
NULL_ROW_16 = np.array(
    [0.22, 0.75, 0.57, 0.38, 0.54, 0.9, 0.94, 0.42, 0.61, 0.39, 0.63, 0.4, 0.45, 0.9, 0.3, 1.0286884854026508]
)


def test_the_null_normal_test_sums_left_to_right(monkeypatch):
    # With a zero tolerance only an exactly cancelling <n,n> is null, so the
    # verdict shows the order of the sum, which is the same on every CPU.
    monkeypatch.setattr(billiard, "NULL_NORMAL_TOL", 0.0)
    assert pecore._dot(NULL_ROW_16 * NULL_ROW_16, Signature(8, 8).e) == 0.0
    assert billiard._null_normals(NULL_ROW_16, Signature(8, 8).e)


def test_a_bounce_failing_both_tests_fails_on_its_chord(monkeypatch, no_compiler):
    # The grazing start's first chord is refused; make every normal null as
    # well.  The chord is tested first, as when stepping.  The stub reaches
    # the numpy pass only, the one taken without a compiler.
    landed = _step(RayState((0.0, 1.0), (1.0, -1.0)), ELLIPSE, LORENTZ)
    monkeypatch.setattr(billiard, "_null_normals", lambda Axs, e: np.ones(len(Axs), dtype=bool))
    rec = run_orbit(ABORT_STARTS[0][1], 5, ELLIPSE, LORENTZ)
    assert rec.abort_reason.startswith("NotInward: ") and rec.abort_bounce == 1
    # From a start with a transversal chord only the normal test fails.
    rec = run_orbit(landed, 5, ELLIPSE, LORENTZ)
    assert rec.abort_reason.startswith("NullNormal: ") and rec.abort_bounce == 1


@pytest.mark.parametrize("name", PASSES)
def test_a_bounce_failing_both_tests_fails_on_its_chord_in_either_pass(name, monkeypatch, request):
    # With NULL_NORMAL_TOL = 1 every normal is null, as |<n,n>| <= |n|^2;
    # the grazing start's first bounce then fails both tests, and fails on
    # its chord.  Both passes read the tolerances when called.
    _take_pass(name, request)
    monkeypatch.setattr(billiard, "NULL_NORMAL_TOL", 1.0)
    rec = run_orbit(ABORT_STARTS[0][1], 5, ELLIPSE, LORENTZ)
    assert rec.abort_reason == ABORT_TEXTS["NotInward"] and rec.abort_bounce == 1
    rec = run_orbit(_step(RayState((0.0, 1.0), (1.0, -1.0)), ELLIPSE, LORENTZ), 5, ELLIPSE, LORENTZ)
    assert rec.abort_reason.startswith("NullNormal: ") and rec.abort_bounce == 1


@pytest.mark.parametrize("name", PASSES)
def test_h_is_summed_left_to_right_in_dimension_8(name, request):
    # From 8 terms on, numpy's sum adds a row in pairs; on row 0 of this
    # orbit its H rounds to a double 2 ulps away from the left-to-right sum,
    # which both passes record.
    _take_pass(name, request)
    sig, ell = Signature(4, 4), Ellipsoid(tuple(float(k) for k in range(8, 0, -1)))
    start = sample_null_ray(ell, sig, 1791)
    a2 = ell.a2.astype(np.longdouble)
    a = np.sqrt(a2)
    terms = 1.0 / a2 * (a * (start.x / a)) * (a * (start.v / a))
    assert float(terms.sum()) == float.fromhex("-0x1.329c6d8c57c70p-15")
    assert run_orbit(start, 1, ell, sig).h[0] == float.fromhex("-0x1.329c6d8c57c72p-15")


#: Signatures of the equivalence property, with and without null directions,
#: in every dimension from 2 to 6.
ORBIT_SIGNATURES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 0), (3, 2), (4, 2)]


@st.composite
def orbit_starts(draw, signatures=ORBIT_SIGNATURES):
    """A geometry, a start and a bounce count, some aimed at the null-normal set."""
    p, q = draw(st.sampled_from(signatures))
    sig, d = Signature(p, q), p + q
    size = draw(st.sampled_from([1.0, 30.0]))
    ell = Ellipsoid(tuple(size * a for a in draw(st.lists(st.floats(0.5, 4.0), min_size=d, max_size=d, unique=True))))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(np.array)
    s, w = draw(unit), draw(unit)
    blocks = [s[:p], w[:p]] + ([s[p:], w[p:]] if q else [])
    assume(min(np.linalg.norm(block) for block in blocks) > 1e-3)
    kind = draw(st.sampled_from(["random", "null", "aimed"] if q else ["random"]))
    if kind == "null":
        w = np.concatenate([w[:p] / np.linalg.norm(w[:p]), w[p:] / np.linalg.norm(w[p:])])
    if kind == "aimed":
        nudge = draw(st.sampled_from([0.0, 0.0, 1e-10, 1e-9, 3e-9]))
        x_end = _null_normal_point(ell, sig, s, nudge)
        if ell.conormal(x_end) @ w < 0.0:
            w = -w
        try:
            start = _backwards(x_end, w, ell, sig, draw(st.integers(1, 4)))
        except (PEBilliardsError, ZeroDivisionError):  # a zero direction, u.w or <n,n> on the way back
            assume(False)
    else:
        x = np.array(ell.a) * s / np.linalg.norm(s)
        start = RayState(x, w if ell.conormal(x) @ w < 0.0 else -w)
    return ell, sig, start, draw(st.integers(1, 40))


@given(orbit_starts())
@settings(max_examples=300, deadline=None)
def test_run_orbit_equals_the_stepwise_oracle(case):
    # Deciding grazing chords and null normals after the loop records the
    # same rows, bit for bit, and the same abort reason and bounce as
    # deciding them at every bounce.
    ell, sig, start, n_bounces = case
    _assert_same_outcome(start, n_bounces, ell, sig)


@st.composite
def tangency_starts(draw, p, q):
    """An orbit_starts case of signature (p, q), or a sample_null_ray start on its SIGNATURE_AXES."""
    if q == 0 or draw(st.booleans()):
        return draw(orbit_starts([(p, q)]))
    sig, ell = Signature(p, q), Ellipsoid(SIGNATURE_AXES[p, q])
    return ell, sig, sample_null_ray(ell, sig, draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 40))


def _padded(values: tuple, width: int) -> bytes:
    """The bytes of a row of `width` floats: `values`, then NaN."""
    return np.array(values + (np.nan,) * (width - len(values))).tobytes()


@pytest.mark.parametrize("p,q", list(SIGNATURE_AXES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_recorded_tangency_equals_single_state_solve(p, q, data):
    # The recorder solves all rows of an orbit in one array pass; each row's
    # parameters and the roots it set aside are, bit for bit, what the solver
    # gives on that row alone, and so what the single-state API gives on
    # every row classified as the start is (a row whose <v,v> / |v|^2 has
    # drifted past LIGHTLIKE_TOL is still solved as the line it is).  A
    # start whose own row cannot be solved fails there with the same message;
    # a start refused for another reason has no rows.
    ell, sig, start, n_bounces = data.draw(tangency_starts(p, q))
    fam = ConfocalFamily(ell, sig)
    try:
        rec = run_orbit(start, n_bounces, ell, sig, fam=fam)
    except RootIsolationFailure as exc:
        with pytest.raises(RootIsolationFailure) as single:
            confocal.tangency_parameters(fam, start)
        assert str(single.value) == str(exc)
        return
    except PEBilliardsError:
        return
    lightlike = classify_vector(start.v, sig) is VectorType.LIGHTLIKE
    width = rec.lambdas.shape[1]
    assert rec.lambdas.shape == rec.near_pole.shape == (len(rec.xs), width)
    for k, state in enumerate(rec.states):
        lambdas, near_pole, error = confocal._solve(fam, confocal.tangency_polynomial(fam, state.x, state.v)[None], lightlike)
        assert error is None and len(lambdas) == 1
        assert rec.lambdas[k].tobytes() == lambdas[0].tobytes() and rec.near_pole[k].tobytes() == near_pole[0].tobytes()
        if (classify_vector(state.v, sig) is VectorType.LIGHTLIKE) == lightlike:
            alone = confocal.tangency_parameters(fam, state)
            assert rec.lambdas[k].tobytes() == _padded(alone.lambdas, width)
            assert rec.near_pole[k].tobytes() == _padded(alone.near_pole, width)


@st.composite
def boundary_states(draw):
    """A geometry of dimension 2 to 6 and a boundary point with an inward direction."""
    p, q = draw(st.sampled_from(ORBIT_SIGNATURES))
    sig, d = Signature(p, q), p + q
    ell = Ellipsoid(tuple(draw(st.lists(st.floats(0.5, 40.0), min_size=d, max_size=d, unique=True))))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(np.array)
    s, v = draw(unit), draw(unit) * draw(st.sampled_from([1.0, 1e-3, 1e4]))
    assume(np.linalg.norm(s) > 1e-3 and np.linalg.norm(v) > 1e-6)
    x = np.array(ell.a) * s / np.linalg.norm(s)
    return ell, sig, RayState(x, v if ell.conormal(x) @ v < 0.0 else -v)


def _same_values(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether two long-double arrays hold the same values and sign bits, NaNs at the same places."""
    numbers = ~np.isnan(want)
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


@given(boundary_states())
@settings(max_examples=300, deadline=None)
def test_one_walk_bounce_equals_the_array_oracle(case):
    # One bounce of the walk on long double computes, bit for bit, the array
    # oracle's chord and then its reflection at the chord's exit point, with
    # every dot product summed left to right, wherever the recorder would
    # take that chord and reflect there.
    ell, sig, r = case
    a2 = ell.a2.astype(np.longdouble)
    a = np.sqrt(a2)
    u, w, E = r.x / a, r.v / a, sig.e / a2
    uw2 = 2.0 * _dot_left_to_right(u, w)
    assume(not billiard._refused_chords(r.x, r.v, float(uw2) / 2.0))
    y = _array_chord(u, w, uw2)
    assume(not billiard._null_normals((y / a).astype(float), sig.e))
    want = np.concatenate((y, _array_reflect(y, w, E, 2.0 * _dot_left_to_right(w, y))))
    got = billiard._walk(np.concatenate((u, w)), uw2, E, 1)
    assert got.dtype == np.longdouble and got.shape == (2, 2 * ell.dim)
    assert _same_values(got[1], want)


def test_one_library_serves_every_dimension(tmp_path, monkeypatch):
    # From a cold cache, orbits of dimension 2 to 6 and a 1000-bounce
    # orbit.csv take their record pass and their formatter from one library, which
    # one compiler start builds.
    from pebilliards.cli import main

    if shutil.which(native._CC[0]) is None:
        pytest.skip("no C compiler on PATH")
    run, started = subprocess.run, []

    def counted(args, **kwargs):
        started.append(args[0])
        return run(args, **kwargs)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(subprocess, "run", counted)
    native.library.cache_clear()
    try:
        for p, q in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
            sig, ell = Signature(p, q), Ellipsoid(tuple(float(k) for k in range(p + q, 0, -1)))
            assert run_orbit(sample_null_ray(ell, sig, 1), 20, ell, sig).bounce_count == 20
        doc = {"signature": [2, 1], "axes": [3.0, 2.0, 1.0], "initial": {"sample_null": True}, "bounces": 1000, "seed": 7}
        (tmp_path / "sim.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "out")]) == 0
        assert native.library() is not None
    finally:
        native.library.cache_clear()
    assert started == [native._CC[0]]
    assert len(list((tmp_path / "cache" / "pebilliards").glob("*.so"))) == 1
    assert len((tmp_path / "out" / "orbit.csv").read_bytes().splitlines()) == 1002  # the header and 1001 rows


def test_run_orbit_without_a_compiler_records_the_same_rows(request):
    # The numpy pass, the only one where no library can be built, records
    # the C pass's rows and aborts, bit for bit.
    cases = [(start, 50, ell, LORENTZ) for ell, start, _, _ in LATE_ABORT_STARTS]
    for (p, q), axes in NULL_AXES.items():
        sig, ell = Signature(p, q), Ellipsoid(axes)
        cases.append((sample_null_ray(ell, sig, 5), 1000, ell, sig))
    built = [run_orbit(*case) for case in cases]
    request.getfixturevalue("no_compiler")
    assert native.library() is None
    for case, want in zip(cases, built):
        got = run_orbit(*case)
        for mine, theirs in ((got.xs, want.xs), (got.vs, want.vs), (got.h, want.h), (got.f, want.f)):
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        assert (got.abort_reason, got.abort_bounce) == (want.abort_reason, want.abort_bounce)


def test_the_native_walk_is_built_once_and_then_loaded_from_the_cache(tmp_path, monkeypatch):
    if shutil.which(native._CC[0]) is None:
        pytest.skip("no C compiler on PATH")

    def refuse(*args, **kwargs):
        raise AssertionError("a compiler was started")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native.library.cache_clear()
    try:
        assert native.library() is not None
        cache = tmp_path / "pebilliards"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        (source,) = cache.glob("native-*.c")
        assert sorted(p.name for p in cache.iterdir()) == [source.name, source.with_suffix(".so").name]
        # A warm cache loads the library and starts no compiler ...
        monkeypatch.setattr(subprocess, "run", refuse)
        native.library.cache_clear()
        assert native.library() is not None
        # ... unless its stored source differs, as under a collision of the key.
        source.write_text(source.read_text() + "\n", encoding="utf-8")
        native.library.cache_clear()
        with pytest.raises(AssertionError, match="a compiler was started"):
            native.library()
    finally:
        native.library.cache_clear()


#: Whether the native record is built here: a C compiler on PATH and a writable cache.
NATIVE = native.library() is not None


#: The signatures of orbit_starts and three more, in every dimension from 2 to 9.
RECORD_SIGNATURES = [*ORBIT_SIGNATURES, (4, 3), (4, 4), (5, 4)]


@st.composite
def record_starts(draw):
    """Arguments of the record passes: a start (u, w) on the unit sphere, 2 u.w, a geometry and a bounce count.

    From orbit_starts, so some orbits reach a normal that is null or nearly
    so.  Some starts point outward instead, where the walk stops at once, or
    hold a NaN: in one entry of u or w, which makes row 0 not finite, or in
    2 u.w, where the walk stops at once.
    """
    ell, sig, r, n = draw(orbit_starts(RECORD_SIGNATURES))
    a2 = ell.a2.astype(np.longdouble)
    a = np.sqrt(a2)
    u, w = r.x / a, r.v / a
    change = draw(st.sampled_from([None, None, "outward", "nan"]))
    if change == "outward":
        w = -w
    start, uw2 = np.concatenate((u, w)), 2.0 * u.dot(w)
    if change == "nan":
        where = draw(st.integers(0, 2 * ell.dim))
        if where == 2 * ell.dim:
            uw2 = np.longdouble("nan")
        else:
            start[where] = np.nan
    return start, uw2, ell, sig, n


@pytest.mark.skipif(not NATIVE, reason="no native record: no C compiler on PATH or no writable cache")
@given(record_starts())
@settings(max_examples=300, deadline=None)
def test_the_native_record_equals_the_python_record(case):
    # The C record returns the numpy pass's rows: the same bytes of every
    # recorded xs, vs, h and f row, the same failure and bounce, and the
    # same long-double rows (u, w) through the failing row, in value and
    # sign bit.  NaN entries compare by position: which of two NaN operands
    # an x87 operation returns depends on the order of the operands, which
    # the compiler may swap.
    start, uw2, ell, sig, n = case
    a2 = ell.a2.astype(np.longdouble)
    args = (start, uw2, np.sqrt(a2), 1.0 / a2, sig.e / a2, sig.e, billiard._integral_denominators(ell, sig), n)
    want, got = billiard._record(*args), billiard._native_record(*args)
    assert (got.kept, got.failure) == (want.kept, want.failure)
    assert str(billiard._failure(got, *args[2:4], ell, sig)) == str(billiard._failure(want, *args[2:4], ell, sig))
    kept = want.kept
    for mine, theirs in zip(got[1:5], want[1:5]):
        assert mine.shape == theirs.shape and mine[:kept].tobytes() == theirs[:kept].tobytes()
        assert _same_values(mine, theirs)
    assert got.steps.dtype == want.steps.dtype == np.longdouble and got.steps.shape == want.steps.shape
    assert _same_values(got.steps, want.steps)

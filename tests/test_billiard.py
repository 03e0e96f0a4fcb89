import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebilliards.billiard import (
    advance_to_boundary,
    billiard_map,
    integrals,
    integrals_batch,
    pseudo_norm_defect,
    reflect,
    run_orbit,
    sample_null_ray,
)
from pebilliards import billiard, confocal, pecore
from pebilliards.confocal import ConfocalFamily
from pebilliards.errors import (
    NotInward,
    NullNormal,
    OffBoundary,
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
    out = advance_to_boundary(RayState((0, 1), (0, -1)), Ellipsoid((1.0, 1.0)))
    assert np.allclose(out.x, [0, -1], atol=1e-15)


def test_advance_worked_chord():
    out = advance_to_boundary(RayState((0, 1), (1, -1)), ELLIPSE)
    assert np.allclose(out.x, [1.6, -0.6], atol=1e-15)
    assert ELLIPSE.boundary_defect(out.x) == pytest.approx(0.0, abs=1e-15)


def test_advance_grazing_is_refused():
    with pytest.raises(NotInward):
        advance_to_boundary(RayState((0, 1), (1, 0)), ELLIPSE)
    with pytest.raises(NotInward):
        advance_to_boundary(RayState((0, 1), (1, 1)), ELLIPSE)  # outward


def test_advance_off_boundary():
    with pytest.raises(OffBoundary):
        advance_to_boundary(RayState((0, 0.5), (1, -1)), ELLIPSE)


def test_reflect_worked_example():
    out = reflect(RayState((1.6, -0.6), (1, -1)), ELLIPSE, LORENTZ)
    assert np.allclose(out.v, [5.0, 5.0], atol=1e-12)
    assert inner(out.v, out.v, LORENTZ) == pytest.approx(0.0, abs=1e-12)
    nu = ELLIPSE.conormal(out.x)
    assert float(nu @ out.v) == pytest.approx(-1.0, abs=1e-12)
    assert float(nu @ np.array([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)


def test_reflect_normal_incidence_circle():
    out = reflect(RayState((0, -1), (0, -1)), Ellipsoid((1.0, 1.0)), Signature(2, 0))
    assert np.allclose(out.v, [0, 1], atol=1e-15)


def test_reflect_null_normal():
    ell = Ellipsoid((np.sqrt(2.0), np.sqrt(2.0)))
    with pytest.raises(NullNormal):
        reflect(RayState((1.0, 1.0), (1.0, 0.0)), ell, LORENTZ)


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
        try:
            out = reflect(RayState(x, v), ell, sig)
        except NullNormal:
            continue
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
    out = billiard_map(RayState((0, 1), (1, -1)), ELLIPSE, LORENTZ)
    assert np.allclose(out.x, [1.6, -0.6], atol=1e-14)
    assert np.allclose(out.v, [5.0, 5.0], atol=1e-12)


def test_reflect_is_an_involution():
    rng = np.random.default_rng(14)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    for seed in range(10):
        state = sample_null_ray(ell, sig, seed)
        twice = reflect(reflect(state, ell, sig), ell, sig)
        assert np.allclose(twice.v, state.v, rtol=1e-12, atol=1e-12)


def test_billiard_map_descends_to_lines():
    # Sliding the base point along the ray and rescaling the direction must
    # give the same oriented outgoing line.
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    state = sample_null_ray(ell, sig, 21)
    out = billiard_map(state, ell, sig)
    scaled = billiard_map(RayState(state.x, 3.7 * state.v), ell, sig)
    a = line_canonicalize(out)
    b = line_canonicalize(scaled)
    assert np.allclose(a.x, b.x, atol=1e-12)
    assert np.allclose(a.v, b.v, atol=1e-12)
    # same bounce point, direction scaled by the same factor
    assert np.allclose(scaled.x, out.x, atol=1e-12)
    assert np.allclose(scaled.v, 3.7 * out.v, rtol=1e-12)


def test_billiard_map_circle_rotation_invariance():
    # Chord length (inscribed angle) is preserved on the Euclidean circle.
    circle = Ellipsoid((1.0, 1.0))
    sig = Signature(2, 0)
    state = RayState((1.0, 0.0), (-0.8, 0.6))
    lengths = []
    for _ in range(10):
        nxt = billiard_map(state, circle, sig)
        lengths.append(float(np.linalg.norm(nxt.x - state.x)))
        state = nxt
    assert np.ptp(lengths) <= 1e-12


def test_minor_axis_period_two():
    sig = Signature(2, 0)
    state = RayState((0.0, 1.0), (0.0, -1.0))
    out = billiard_map(state, ELLIPSE, sig)
    assert np.allclose(out.x, [0, -1], atol=1e-14)
    assert np.allclose(out.v, [0, 1], atol=1e-14)
    back = billiard_map(out, ELLIPSE, sig)
    assert np.allclose(back.x, state.x, atol=1e-14)
    assert np.allclose(back.v, state.v, atol=1e-14)


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
    f1, f2 = integrals((0, 1), (1, -1), ELLIPSE, LORENTZ)
    assert f1 == pytest.approx(0.8)
    assert f2 == pytest.approx(-0.8)
    assert f1 + f2 == pytest.approx(inner((1, -1), (1, -1), LORENTZ), abs=1e-15)


def test_integral_values_euclid():
    sig = Signature(2, 0)
    fs = integrals((0, 1), (1, -1), ELLIPSE, sig)
    assert float(np.sum(fs)) == pytest.approx(2.0, abs=1e-14)


def test_resonant_axes():
    with pytest.raises(ResonantAxes):
        integrals((0, 1), (1, 0), Ellipsoid((1.0, 1.0)), Signature(2, 0))
    # Equal axes across metric blocks are fine: denominators are sums there.
    fs = integrals((0, 1), (1, -1), Ellipsoid((1.0, 1.0)), LORENTZ)
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
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        t = rng.uniform(-5, 5)
        f0 = integrals(x, v, ell, sig)
        f1 = integrals(x + t * v, v, ell, sig)
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
        out = reflect(state, ell, sig)
        f_in = integrals(state.x, state.v, ell, sig)
        f_out = integrals(out.x, out.v, ell, sig)
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
    assert rec.tangency is not None and len(rec.tangency) == 21
    counts = {ts.count for ts in rec.tangency}
    assert counts == {1}


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


def test_extended_recorder_matches_double_map():
    # One recorded bounce agrees with the public double-precision map.
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    r = sample_null_ray(ell, sig, 5)
    rec = run_orbit(r, 1, ell, sig)
    direct = billiard_map(r, ell, sig)
    assert np.allclose(rec.states[1].x, direct.x, rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.states[1].v, direct.v, rtol=1e-12, atol=1e-12)


ABORT_STARTS = [
    (ELLIPSE, RayState((0.0, 1.0), (1.0, -1e-15)), "NotInward"),
    (Ellipsoid((np.sqrt(2.0), np.sqrt(2.0))), RayState((1.0, 1.0), (-1.0, 0.0)), "NullNormal"),
]


@pytest.mark.parametrize("ell, start, reason", ABORT_STARTS)
def test_run_orbit_partial_record_rows(ell, start, reason):
    # An aborted record keeps one row per completed state in every array,
    # and its states are those rows.
    rec = run_orbit(start, 10, ell, LORENTZ)
    assert rec.abort_reason.startswith(f"{reason}: ")
    rows = rec.abort_bounce
    assert rows == 1 and rec.bounce_count == rows - 1
    assert rec.xs.shape == rec.vs.shape == rec.f.shape == (rows, 2)
    assert rec.h.shape == (rows,)
    states = rec.states
    assert len(states) == rows
    for state, x, v in zip(states, rec.xs, rec.vs):
        assert np.array_equal(state.x, x) and np.array_equal(state.v, v)
    assert np.array_equal(rec.xs[0], start.x) and np.array_equal(rec.vs[0], start.v)


@pytest.mark.parametrize("ell, start, reason", ABORT_STARTS)
def test_billiard_map_and_run_orbit_fail_alike(ell, start, reason):
    # The single-step map and the recorder share one chord and reflection
    # kernel, so a grazing chord or a null normal fails both the same way.
    with pytest.raises((NotInward, NullNormal)) as exc:
        billiard_map(start, ell, LORENTZ)
    rec = run_orbit(start, 10, ell, LORENTZ)
    assert f"{type(exc.value).__name__}: {exc.value}" == rec.abort_reason
    assert rec.abort_reason.startswith(f"{reason}: ")


@pytest.mark.parametrize(
    "start, error",
    [
        (RayState((np.nan, 1.0), (1.0, -1.0)), OffBoundary),
        (RayState((0.0, 1.0), (np.inf, -1.0)), NotInward),
        (RayState((1.6, -0.6), (-np.inf, -1.0)), NotInward),
        (RayState((0.0, 1.0), (np.nan, -1.0)), NotInward),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_states_are_refused(start, error):
    # NaN and inf compare False with every bound, so each guard is written
    # to fail on them rather than let a NaN state through.
    with pytest.raises(error):
        advance_to_boundary(start, ELLIPSE)
    with pytest.raises(error):
        reflect(start, ELLIPSE, LORENTZ)
    with pytest.raises(error):
        billiard_map(start, ELLIPSE, LORENTZ)
    with pytest.raises(error):
        run_orbit(start, 3, ELLIPSE, LORENTZ)


def test_run_orbit_rows_match_double_map():
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    r = sample_null_ray(ell, sig, 5)
    rec = run_orbit(r, 3, ell, sig)
    direct = billiard_map(r, ell, sig)
    assert rec.xs.dtype == rec.vs.dtype == rec.h.dtype == rec.f.dtype == np.float64
    assert np.allclose(rec.xs[1], direct.x, rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.vs[1], direct.v, rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.f, integrals_batch(rec.xs, rec.vs, ell, sig), rtol=1e-12, atol=1e-12)
    assert np.allclose(rec.h, np.sum(ell.shape_diag * rec.xs * rec.vs, axis=1), rtol=1e-12, atol=1e-12)


def test_run_orbit_tangency_failure_at_bounce_zero(monkeypatch):
    # A start whose own row cannot be recorded is refused like any other bad start.
    def fail(fam, q, x, v):
        raise RootIsolationFailure("no roots here")

    monkeypatch.setattr(confocal, "_tangency_set", fail)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    with pytest.raises(RootIsolationFailure, match="no roots here"):
        run_orbit(sample_null_ray(ell, sig, 8), 5, ell, sig, fam=ConfocalFamily(ell, sig))


def test_run_orbit_non_finite_row_ends_the_record(monkeypatch):
    # One abort rule for every reason: a row k >= 1 whose integrals are not
    # finite ends the record before row k, as a failed step does.
    batch = billiard.integrals_batch

    def overflow_row_2(xs, vs, ell, sig):
        f = batch(xs, vs, ell, sig)
        f[2:, 0] = np.inf
        return f

    monkeypatch.setattr(billiard, "integrals_batch", overflow_row_2)
    sig = Signature(2, 1)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    rec = run_orbit(sample_null_ray(ell, sig, 8), 5, ell, sig, fam=ConfocalFamily(ell, sig))
    assert rec.abort_reason.startswith("NonFinite: not finite at bounce 2: ")
    assert rec.abort_bounce == 2 and rec.bounce_count == 1
    assert len(rec.tangency) == 2 and np.all(np.isfinite(rec.f))


def test_run_orbit_refuses_resonant_axes():
    # The Euclidean circle has no quadratic integrals F_k; the start is refused.
    with pytest.raises(ResonantAxes):
        run_orbit(RayState((1.0, 0.0), (-0.8, 0.6)), 10, Ellipsoid((1.0, 1.0)), Signature(2, 0))


#: Semi-axes for each of the five signatures the suite covers.
SIGNATURE_AXES = {
    (1, 1): (2.0, 1.0),
    (2, 1): (3.0, 2.0, 1.0),
    (3, 1): (4.0, 3.0, 2.0, 1.0),
    (2, 2): (4.0, 3.0, 2.0, 1.0),
    (3, 0): (3.0, 2.0, 1.0),
}


@pytest.mark.parametrize("p,q", list(SIGNATURE_AXES))
def test_recorded_tangency_equals_single_state_solve(p, q):
    # The recorder solves all rows after the loop; each row's TangencySet is
    # exactly what the single-state API gives on that row.
    sig = Signature(p, q)
    ell = Ellipsoid(SIGNATURE_AXES[(p, q)])
    fam = ConfocalFamily(ell, sig)
    rng = np.random.default_rng(10 * p + q)
    s = rng.standard_normal(sig.dim)
    x = np.array(ell.a) * s / np.linalg.norm(s)
    v = rng.standard_normal(sig.dim)
    starts = [RayState(x, v if ell.conormal(x) @ v < 0.0 else -v)]
    if q >= 1:
        starts.append(sample_null_ray(ell, sig, p + q))
    for start in starts:
        rec = run_orbit(start, 30, ell, sig, fam=fam)
        assert len(rec.tangency) == len(rec.xs) > 1
        for ts, state in zip(rec.tangency, rec.states):
            assert ts == confocal.tangency_parameters(fam, state)


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
    assert rec.abort_reason is None and len(rec.tangency) == 1001
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

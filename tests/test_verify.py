import numpy as np
import pytest

from pebilliards.billiard import OrbitRecord, run_orbit, sample_null_ray
from pebilliards.confocal import ConfocalFamily, TangencySet
from pebilliards.errors import TangencyCountChanged
from pebilliards.pecore import Ellipsoid, RayState, Signature
from pebilliards.verify import (
    FiniteDifferenceObservable,
    MoserIntegral,
    commutation_sweep,
    drift_report,
    free_flight_invariance,
    gradient_check,
    moser_gradients_batch,
    poisson_bracket,
)

SIG = Signature(2, 1)
ELL = Ellipsoid((3.0, 2.0, 1.0))


def test_bracket_antisymmetry_and_canonical_pair():
    f = MoserIntegral(ELL, SIG, 0)
    x = np.array([0.3, -0.8, 1.1])
    v = np.array([0.5, 0.2, -0.9])
    assert poisson_bracket(f, f, x, v, SIG) == pytest.approx(0.0, abs=1e-14)

    # {x1, p1} = 1 with p = Ev, checked through the finite-difference path.
    x1 = FiniteDifferenceObservable(lambda x, v: x[0])
    p1 = FiniteDifferenceObservable(lambda x, v: SIG.e[0] * v[0])
    assert poisson_bracket(x1, p1, x, v, SIG) == pytest.approx(1.0, rel=1e-9)


def test_integrals_commute_at_a_point():
    f1 = MoserIntegral(ELL, SIG, 0)
    f2 = MoserIntegral(ELL, SIG, 1)
    rng = np.random.default_rng(0)
    x, v = rng.standard_normal(3), rng.standard_normal(3)
    br = poisson_bracket(f1, f2, x, v, SIG)
    gx1, gv1 = f1.gradient(x, v)
    gx2, gv2 = f2.gradient(x, v)
    norm = np.linalg.norm(np.r_[gx1, gv1]) * np.linalg.norm(np.r_[gx2, gv2])
    assert abs(br) / norm <= 1e-10


def test_commutation_sweep_across_signatures():
    cases = [
        (Signature(2, 0), (2.0, 1.0)),
        (Signature(1, 1), (2.0, 1.0)),
        (Signature(2, 1), (3.0, 2.0, 1.0)),
        (Signature(1, 2), (3.0, 2.0, 1.0)),
        (Signature(3, 1), (4.0, 3.0, 2.0, 1.0)),
        (Signature(2, 2), (4.0, 3.0, 2.0, 1.0)),
    ]
    for sig, axes in cases:
        reports = commutation_sweep(Ellipsoid(axes), sig, 2000, 1)
        assert all(r.max_normalized <= 1e-10 for r in reports)
        assert all(r.samples == 2000 for r in reports)


def test_commutation_sweep_wrong_metric_negative_control():
    reports = commutation_sweep(ELL, SIG, 500, 2, wrong_metric=True)
    assert max(r.max_normalized for r in reports) > 1e-3


def test_commutation_sweep_validation():
    with pytest.raises(ValueError):
        commutation_sweep(ELL, SIG, 0, 1)
    with pytest.raises(ValueError):
        commutation_sweep(Ellipsoid(tuple(range(2, 10))), Signature(8, 0), 10, 1)


def test_analytic_gradients_match_finite_differences():
    assert gradient_check(ELL, SIG, 300, 11) <= 1e-6


def test_fd_observable_matches_analytic_integral():
    f_an = MoserIntegral(ELL, SIG, 1)
    f_fd = FiniteDifferenceObservable(f_an.value)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        gx_a, gv_a = f_an.gradient(x, v)
        gx_f, gv_f = f_fd.gradient(x, v)
        assert np.allclose(gx_a, gx_f, atol=1e-6, rtol=1e-6)
        assert np.allclose(gv_a, gv_f, atol=1e-6, rtol=1e-6)


def test_gradient_batch_shapes():
    rng = np.random.default_rng(8)
    xs, vs = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    gx, gv = moser_gradients_batch(xs, vs, ELL, SIG)
    assert gx.shape == (7, 3, 3) and gv.shape == (7, 3, 3)


def test_drift_report_circle():
    circle = Ellipsoid((1.0, 1.0))
    rec = run_orbit(RayState((1.0, 0.0), (-0.6, 0.8)), 1000, circle, Signature(2, 0))
    rep = drift_report(rec)
    assert rep.h_drift <= 1e-12
    assert rep.aborted is None


def test_drift_report_long_null_orbit():
    fam = ConfocalFamily(ELL, SIG)
    rec = run_orbit(sample_null_ray(ELL, SIG, 7), 300, ELL, SIG, fam=fam)
    rep = drift_report(rec)
    assert rep.h_drift <= 1e-10
    assert max(rep.f_drift) <= 1e-9
    assert rep.lambda_drift is not None and rep.lambda_drift <= 1e-8
    assert not rep.lambda_mismatch


def test_drift_report_flags_count_change():
    rec = OrbitRecord(
        xs=np.array([[0.0, 1.0], [1.6, -0.6]]),
        vs=np.array([[1.0, -1.0], [5.0, 5.0]]),
        h=np.array([-1.0, -1.0]),
        f=np.array([[0.8, -0.8], [0.8, -0.8]]),
        tangency=[TangencySet(lambdas=(0.5,)), TangencySet(lambdas=(0.5, 2.0))],
    )
    with pytest.raises(TangencyCountChanged):
        drift_report(rec)


def test_drift_report_partial_after_abort():
    rec = run_orbit(RayState((0.0, 1.0), (1.0, -1e-15)), 5, Ellipsoid((2.0, 1.0)), Signature(1, 1))
    assert rec.aborted
    with pytest.raises(ValueError):
        drift_report(rec)  # only one state recorded


def test_free_flight_invariance():
    rep = free_flight_invariance(ELL, SIG, 2000, 5)
    assert rep.f_defect <= 1e-11
    assert rep.h_defect <= 1e-11


def test_free_flight_zero_shift_exact():
    rng = np.random.default_rng(1)
    from pebilliards.billiard import integrals

    x, v = rng.standard_normal(3), rng.standard_normal(3)
    assert np.array_equal(integrals(x, v, ELL, SIG), integrals(x + 0.0 * v, v, ELL, SIG))


def test_quadratic_homogeneity_in_velocity():
    rng = np.random.default_rng(2)
    from pebilliards.billiard import integrals

    x, v = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(integrals(x, 2.0 * v, ELL, SIG), 4.0 * integrals(x, v, ELL, SIG), rtol=1e-13)

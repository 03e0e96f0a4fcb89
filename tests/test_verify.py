import numpy as np
import pytest

from pebilliards.billiard import OrbitRecord, integrals_batch, run_orbit, sample_null_ray
from pebilliards.confocal import ConfocalFamily
from pebilliards.pecore import Ellipsoid, RayState, Signature
from pebilliards.verify import (
    commutation_sweep,
    drift_report,
    moser_gradients_batch,
    poisson_bracket,
)

SIG = Signature(2, 1)
ELL = Ellipsoid((3.0, 2.0, 1.0))
NAN = np.nan


def test_bracket_antisymmetry_and_canonical_pair():
    x = np.array([[0.3, -0.8, 1.1]])
    v = np.array([[0.5, 0.2, -0.9]])
    gx, gv = moser_gradients_batch(x, v, ELL, SIG)
    fx, fv = gx[0, 0], gv[0, 0]
    assert poisson_bracket(fx, fv, fx, fv, SIG) == pytest.approx(0.0, abs=1e-14)

    # {x1, p1} = 1 with p = Ev: grad x1 = (e_1, 0) and grad p1 = (0, e_1 e_1).
    e1, zero = np.eye(3)[0], np.zeros(3)
    assert poisson_bracket(e1, zero, zero, SIG.e[0] * e1, SIG) == 1.0


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


def test_gradient_batch_shapes():
    rng = np.random.default_rng(8)
    xs, vs = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    gx, gv = moser_gradients_batch(xs, vs, ELL, SIG)
    assert gx.shape == (7, 3, 3) and gv.shape == (7, 3, 3)


def test_drift_report_circle():
    # The Lorentz circle: the Euclidean one is resonant, which run_orbit refuses.
    circle = Ellipsoid((1.0, 1.0))
    rec = run_orbit(RayState((1.0, 0.0), (-0.6, 0.8)), 1000, circle, Signature(1, 1))
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
        lambdas=np.array([[0.5, NAN], [0.5, 2.0]]),
        near_pole=np.full((2, 2), NAN),
    )
    rep = drift_report(rec)
    assert rep.lambda_mismatch == (
        "tangency parameter count varies along the orbit: [1, 2]; first at bounce 1, 2 against 1 at bounce 0, "
        "with no root set aside near a pole (a root left or joined the real line)"
    )
    assert rep.lambda_drift is None and rep.to_dict()["lambda_mismatch"] is True


def test_drift_report_names_a_root_set_aside_near_a_pole():
    # The count changes first at bounce 2, whose row set one root aside at a pole.
    lambdas = np.array([[0.5, 2.0], [0.5, 2.0], [0.5, NAN], [NAN, NAN]])
    near_pole = np.array([[NAN, NAN], [NAN, NAN], [-1.0, NAN], [NAN, NAN]])
    rec = OrbitRecord(xs=np.zeros((4, 2)), vs=np.ones((4, 2)), h=np.ones(4), f=np.ones((4, 2)),
                      lambdas=lambdas, near_pole=near_pole)
    assert drift_report(rec).lambda_mismatch == (
        "tangency parameter count varies along the orbit: [0, 1, 2]; first at bounce 2, 1 against 2 at bounce 0, "
        "with 1 root(s) set aside near a pole (a root crossed the pole filter)"
    )


def test_drift_report_matches_lambdas_by_index():
    # Sorted parameters pair up by index; a tie in the worst drift goes to the first bounce.
    lams = np.array([(1.0, 4.0), (1.5, 4.0), (1.0, 4.5), (1.5, 4.0)])
    rec = OrbitRecord(
        xs=np.zeros((4, 2)), vs=np.ones((4, 2)), h=np.ones(4), f=np.ones((4, 2)),
        lambdas=lams, near_pole=np.full((4, 2), NAN),
    )
    rep = drift_report(rec)
    assert rep.lambda_drift == 0.5 and rep.lambda_worst_bounce == 1
    assert rep.lambda_mismatch.startswith("tangency parameters drift 5.000e-01 at bounce 1")


def test_drift_report_partial_after_abort():
    rec = run_orbit(RayState((0.0, 1.0), (1.0, -1e-15)), 5, Ellipsoid((2.0, 1.0)), Signature(1, 1))
    assert rec.aborted
    with pytest.raises(ValueError):
        drift_report(rec)  # only one state recorded


def test_free_flight_zero_shift_exact():
    rng = np.random.default_rng(1)
    x, v = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
    assert np.array_equal(integrals_batch(x, v, ELL, SIG), integrals_batch(x + 0.0 * v, v, ELL, SIG))


def test_quadratic_homogeneity_in_velocity():
    rng = np.random.default_rng(2)
    x, v = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
    assert np.allclose(integrals_batch(x, 2.0 * v, ELL, SIG), 4.0 * integrals_batch(x, v, ELL, SIG), rtol=1e-13)

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pebilliards import confocal
from pebilliards.billiard import run_orbit
from pebilliards.confocal import (
    ConfocalFamily,
    TangencySet,
    member,
    tangency_parameters,
    tangency_polynomial,
)
from pebilliards.errors import PoleParameter, RootIsolationFailure
from pebilliards.pecore import Ellipsoid, RayState, Signature, VectorType, classify_vector

poly = np.polynomial.polynomial


def _poles(fam):
    """The pole parameters lam = -e_i a_i^2 of the family, one per axis."""
    return -fam.sig.e * fam.ellipsoid.a2


def _discriminant(fam, r, lam):
    """G(lam) = (x.Bv)^2 - (v.Bv)(x.Bx - 1), B = diag(1 / c_i(lam)), for the line of r: a test oracle."""
    b = 1.0 / fam.coefficients(lam)
    xbv, vbv, xbx = np.sum(b * r.x * r.v), np.sum(b * r.v * r.v), np.sum(b * r.x * r.x)
    return xbv * xbv - vbv * (xbx - 1.0)


def cleared_polynomial(fam, r):
    """Coefficients (ascending, length 2d) of P(lam) = G(lam) * prod_i c_i(lam)^2, a test oracle.

    P is polynomial of degree <= 2d - 1 in dimension d, and P = Q * prod_i c_i
    for the tangency polynomial Q.  Its top coefficient equals <v,v>, which
    is the degree-drop mechanism for light-like directions.  Expansion uses

        P = S_xv^2 - S_vv * (S_xx - C),

    with C = prod_i c_i,  S_ww = sum_i w_i^2 prod_{j != i} c_j, and
    S_xv = sum_i x_i v_i prod_{j != i} c_j.
    """
    lin = [[a2, e] for a2, e in zip(fam.ellipsoid.a2, fam.sig.e)]

    def product(factors):
        out = np.array([1.0])
        for f in factors:
            out = poly.polymul(out, f)
        return out

    partial = np.array([product(lin[:i] + lin[i + 1 :]) for i in range(len(lin))])
    s_xv, s_vv, s_xx = (w @ partial for w in (r.x * r.v, r.v * r.v, r.x * r.x))
    p = poly.polysub(poly.polymul(s_xv, s_xv), poly.polymul(s_vv, poly.polysub(s_xx, product(lin))))
    out = np.zeros(2 * len(lin))
    out[: p.shape[0]] = p
    return out


#: Semi-axes for each of the five signatures the suite covers.
SIGNATURE_AXES = {
    (1, 1): (2.0, 1.0),
    (2, 1): (3.0, 2.0, 1.0),
    (3, 1): (4.0, 3.0, 2.0, 1.0),
    (2, 2): (4.0, 3.0, 2.0, 1.0),
    (3, 0): (3.0, 2.0, 1.0),
}


def _random_states(sig, rng, count=20):
    """Random lines: generic directions, and (for q > 0) exactly and nearly light-like ones."""
    states = []
    for k in range(count):
        x = rng.uniform(-2, 2, sig.dim)
        v = rng.standard_normal(sig.dim)
        if sig.q > 0 and k % 2:
            a, b = v[: sig.p], v[sig.p :]
            v = np.concatenate([a / np.linalg.norm(a), b / np.linalg.norm(b)])
            if k % 4 == 3:
                v = v + 1e-7 * rng.standard_normal(sig.dim)
        states.append(RayState(x, v))
    return states


@pytest.fixture
def plane_lorentz():
    return ConfocalFamily(Ellipsoid((2.0, 1.0)), Signature(1, 1))


@pytest.fixture
def plane_euclid():
    return ConfocalFamily(Ellipsoid((2.0, 1.0)), Signature(2, 0))


def test_member_at_zero_is_the_ellipsoid(plane_lorentz):
    assert np.allclose(member(plane_lorentz, 0.0).c, [4.0, 1.0])


def test_member_sign_convention(plane_lorentz):
    # Negative-metric block carries a^2 - lambda, so lambda = -3 gives (1, 4).
    assert np.allclose(member(plane_lorentz, -3.0).c, [1.0, 4.0])


def test_poles(plane_lorentz, plane_euclid):
    for fam, poles in ((plane_lorentz, (-4.0, 1.0)), (plane_euclid, (-4.0, -1.0))):
        for lam in poles:
            with pytest.raises(PoleParameter):
                member(fam, lam)
        assert np.allclose(sorted(_poles(fam)), poles)


def test_discriminant_vertical_line_tangency(plane_euclid):
    # The vertical line x1 = 1 is tangent to the member with c1 = 1, lambda = -3.
    line = RayState((1.0, 0.0), (0.0, 1.0))
    assert _discriminant(plane_euclid, line, -3.0) == pytest.approx(0.0, abs=1e-14)
    assert _discriminant(plane_euclid, line, 0.0) != pytest.approx(0.0, abs=1e-3)


def test_discriminant_pole_rejected(plane_euclid):
    # A root within the pole tolerance of a pole is set aside.
    assert confocal._near_pole(plane_euclid, -1.0)
    assert not confocal._near_pole(plane_euclid, -3.0)


@pytest.mark.parametrize("p,q,axes", [(2, 0, (2.0, 1.0)), (1, 1, (2.0, 1.0)), (2, 1, (3.0, 2.0, 1.0))])
def test_discriminant_construct_then_check(p, q, axes):
    # Build a line tangent to a chosen member by taking a boundary point of
    # that member and a tangent direction there; G must vanish at the member.
    sig = Signature(p, q)
    fam = ConfocalFamily(Ellipsoid(axes), sig)
    rng = np.random.default_rng(42)
    for _ in range(25):
        lam = rng.uniform(-0.8, 0.8) * min(np.abs(_poles(fam)))
        if np.min(np.abs(_poles(fam) - lam)) < 10 * fam.pole_tolerance:
            continue
        c = fam.coefficients(lam)
        if np.any(c <= 0):
            continue
        t = rng.uniform(0, 2 * np.pi)
        d = sig.dim
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        x = np.sqrt(c) * u  # on the member
        grad = 2.0 * x / c
        # tangent direction: orthogonal (Euclidean) to the member gradient
        v = rng.standard_normal(d)
        v -= (v @ grad) / (grad @ grad) * grad
        if np.linalg.norm(v) < 1e-8:
            continue
        g = _discriminant(fam, RayState(x, v), float(lam))
        b = 1.0 / c
        scale = max(1.0, float((x * v) @ b) ** 2, abs(float((v * v) @ b) * (float((x * x) @ b) - 1)))
        assert abs(g) <= 1e-9 * scale


def _sympy_cleared(axes, signs, xv, vv):
    lam = sympy.Symbol("lam")
    d = len(axes)
    c = [axes[i] ** 2 + signs[i] * lam for i in range(d)]
    b = [1 / ci for ci in c]
    xbv = sum(xv[i] * vv[i] * b[i] for i in range(d))
    vbv = sum(vv[i] ** 2 * b[i] for i in range(d))
    xbx = sum(xv[i] ** 2 * b[i] for i in range(d))
    g = xbv**2 - vbv * (xbx - 1)
    prod = sympy.prod(ci**2 for ci in c)
    poly = sympy.Poly(sympy.cancel(sympy.together(g * prod)), lam)
    coeffs = [float(poly.coeff_monomial(lam**k)) for k in range(2 * d)]
    return np.array(coeffs)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 0)])
def test_cleared_polynomial_against_symbolic_expansion(p, q):
    sig = Signature(p, q)
    ell = Ellipsoid((2.0, 1.0))
    fam = ConfocalFamily(ell, sig)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        v = rng.uniform(-2, 2, 2)
        if np.linalg.norm(v) < 1e-3:
            continue
        got = cleared_polynomial(fam, RayState(x, v))
        want = _sympy_cleared(ell.a, sig.e, [sympy.Float(c) for c in x], [sympy.Float(c) for c in v])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_cleared_polynomial_degree_drop_for_null(plane_lorentz):
    # Null direction kills the top coefficient; the top coefficient equals <v,v>.
    null = cleared_polynomial(plane_lorentz, RayState((0.3, 0.2), (1.0, 1.0)))
    assert abs(null[-1]) <= 1e-12

    fam_euclid = ConfocalFamily(Ellipsoid((2.0, 1.0)), Signature(2, 0))
    coeffs = cleared_polynomial(fam_euclid, RayState((0.3, 0.2), (1.0, 0.0)))
    assert coeffs[-1] == pytest.approx(1.0, rel=1e-12)  # <v,v> for v = (1, 0)


def test_cleared_polynomial_matches_discriminant_pointwise(plane_lorentz):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        v = rng.standard_normal(2)
        r = RayState(x, v)
        coeffs = cleared_polynomial(plane_lorentz, r)
        lam = rng.uniform(-8, 8)
        if np.min(np.abs(_poles(plane_lorentz) - lam)) < 1e-3:
            continue
        g = _discriminant(plane_lorentz, r, lam)
        prod = float(np.prod(plane_lorentz.coefficients(lam)) ** 2)
        val = float(np.polynomial.polynomial.polyval(lam, coeffs))
        assert val == pytest.approx(g * prod, rel=1e-8, abs=1e-8 * max(1.0, abs(g * prod)))


def test_tangency_parameters_examples(plane_euclid, plane_lorentz):
    # Euclidean vertical line: exactly one parameter, lambda = -3.
    ts = tangency_parameters(plane_euclid, RayState((1.0, 0.0), (0.0, 1.0)))
    assert ts.count == 1
    assert ts.lambdas[0] == pytest.approx(-3.0, abs=1e-10)

    # The vertical line through a focus touches the member at the pole -1: set aside.
    ts = tangency_parameters(plane_euclid, RayState((3.0**0.5, 0.0), (0.0, 1.0)))
    assert ts.count == 0 and ts.near_pole == pytest.approx((-1.0,))

    # Planar null chord: no tangency parameters at all.
    ts = tangency_parameters(plane_lorentz, RayState((0.0, 1.0), (1.0, -1.0)))
    assert ts.count == 0

    # Light-like chord of the 3d ellipsoid: exactly one parameter.
    sig = Signature(2, 1)
    fam = ConfocalFamily(Ellipsoid((3.0, 2.0, 1.0)), sig)
    from pebilliards.billiard import sample_null_ray

    ts = tangency_parameters(fam, sample_null_ray(fam.ellipsoid, sig, 1))
    assert ts.count == 1

    # Light-like line whose Q vanishes: after <v,v> every coefficient drops, no parameter.
    fam = ConfocalFamily(Ellipsoid((3.0, 4.0)), Signature(1, 1))
    assert tangency_polynomial(fam, [5.0, 0.0], [1.0, 1.0]).tolist() == [0.0, 0.0]
    assert tangency_parameters(fam, RayState((5.0, 0.0), (1.0, 1.0))).count == 0


def test_tangency_reparameterization_invariance():
    sig = Signature(2, 1)
    fam = ConfocalFamily(Ellipsoid((3.0, 2.0, 1.0)), sig)
    from pebilliards.billiard import sample_null_ray

    rng = np.random.default_rng(9)
    for seed in range(5):
        r = sample_null_ray(fam.ellipsoid, sig, seed)
        base = tangency_parameters(fam, r)
        t = rng.uniform(-2, 2)
        s = rng.uniform(0.1, 10)
        moved = tangency_parameters(fam, RayState(r.x + t * r.v, s * r.v))
        assert base.count == moved.count
        assert np.allclose(base.lambdas, moved.lambdas, atol=1e-9, rtol=1e-9)


def test_lambda_zero_iff_tangent_to_the_ellipsoid():
    sig = Signature(2, 0)
    ell = Ellipsoid((2.0, 1.0))
    fam = ConfocalFamily(ell, sig)
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = rng.uniform(0, 2 * np.pi)
        x = np.array([2.0 * np.cos(t), np.sin(t)])
        v = np.array([-2.0 * np.sin(t), np.cos(t)])  # tangent direction
        ts = tangency_parameters(fam, RayState(x, v))
        assert any(abs(l) < 1e-9 for l in ts.lambdas)
        # a generic chord of the ellipse must not report lambda = 0
        chord = RayState(x, np.array([-x[0], -x[1]]) - 0.3 * v)
        ts2 = tangency_parameters(fam, chord)
        assert all(abs(l) > 1e-6 for l in ts2.lambdas)


@pytest.mark.parametrize("dim", [2, 3])
def test_euclidean_chasles_counts(dim):
    # Classical picture: a generic line is tangent to exactly n = dim - 1
    # confocal quadrics.
    sig = Signature(dim, 0)
    axes = tuple(float(a) for a in range(dim + 1, 1, -1))
    fam = ConfocalFamily(Ellipsoid(axes), sig)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = rng.uniform(-3, 3, dim)
        v = rng.standard_normal(dim)
        ts = tangency_parameters(fam, RayState(x, v))
        assert ts.count == dim - 1


def test_null_chord_count_in_reversed_signature():
    # One fewer parameter than for space/time-like lines, regardless of
    # which block is larger.
    sig = Signature(1, 2)
    ell = Ellipsoid((3.0, 2.0, 1.0))
    fam = ConfocalFamily(ell, sig)
    from pebilliards.billiard import sample_null_ray

    counts = {tangency_parameters(fam, sample_null_ray(ell, sig, s)).count for s in range(20)}
    assert counts == {1}


def test_tangency_set_validation():
    with pytest.raises(ValueError):
        TangencySet(lambdas=(2.0, 1.0))
    ts = TangencySet(lambdas=(1.0, 2.0))
    assert ts.count == 2
    assert ts.near_pole == ()


def test_root_isolation_failure_on_bad_input():
    fam = ConfocalFamily(Ellipsoid((2.0, 1.0)), Signature(1, 1))
    bad = RayState((np.inf, 1.0), (1.0, 0.0))
    with pytest.raises(RootIsolationFailure):
        tangency_parameters(fam, bad)


@pytest.mark.parametrize("p,q", list(SIGNATURE_AXES))
def test_cleared_polynomial_factors_through_q(p, q):
    # P = G prod c^2 and Q = G prod c, so P = Q prod c coefficient by coefficient.
    sig = Signature(p, q)
    fam = ConfocalFamily(Ellipsoid(SIGNATURE_AXES[(p, q)]), sig)
    prod_c = np.array([1.0])
    for a2, e in zip(fam.ellipsoid.a2, sig.e):
        prod_c = poly.polymul(prod_c, [a2, e])
    for r in _random_states(sig, np.random.default_rng(31)):
        q_coeffs = tangency_polynomial(fam, r.x, r.v)
        assert q_coeffs.shape == (sig.dim,)
        assert q_coeffs[-1] == pytest.approx(np.prod(sig.e) * float(sig.e @ (r.v * r.v)), abs=1e-15)
        p_coeffs = cleared_polynomial(fam, r)
        product = np.convolve(q_coeffs, prod_c)
        assert np.max(np.abs(product - p_coeffs)) <= 1e-13 * np.max(np.abs(p_coeffs))


@pytest.mark.parametrize("p,q", list(SIGNATURE_AXES))
def test_q_row_does_not_depend_on_its_batch(p, q):
    # Q is accumulated with elementwise operations in a fixed order, so a
    # row alone and the same row inside a batch of 1000 agree bit for bit.
    sig = Signature(p, q)
    fam = ConfocalFamily(Ellipsoid(SIGNATURE_AXES[(p, q)]), sig)
    xs, vs = np.random.default_rng(17).standard_normal((2, 1000, sig.dim)) * 3.0
    batch = tangency_polynomial(fam, xs, vs)
    assert batch.shape == (1000, sig.dim)
    for k in range(1000):
        assert np.array_equal(tangency_polynomial(fam, xs[k], vs[k]), batch[k])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=7).filter(lambda q: abs(q[-1]) >= 1e-3))
def test_real_roots_equal_polyroots_bit_for_bit(q):
    # Degrees 3 to 6 take the companion matrix's eigenvalues, as polyroots does.
    roots = poly.polyroots(q).tolist()
    want = [z.real for z in roots if confocal._is_real(z.real, z.imag)]
    assert np.array(confocal._real_roots(q)).tobytes() == np.array(want).tobytes()


def _oracle_roots(fam, r):
    """Real roots of P = Q prod c that are not poles (P's top coefficient dropped for null lines)."""
    p_coeffs = cleared_polynomial(fam, r)
    if classify_vector(r.v, fam.sig) is VectorType.LIGHTLIKE:
        p_coeffs = p_coeffs[:-1]
    roots = poly.polyroots(p_coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots.real))]
    off_pole = np.min(np.abs(real[:, None] - _poles(fam)[None, :]), axis=1) > 1e-6
    return np.sort(real[off_pole])


@pytest.mark.parametrize("p,q", list(SIGNATURE_AXES))
def test_tangency_parameters_are_the_roots_of_q(p, q):
    sig = Signature(p, q)
    fam = ConfocalFamily(Ellipsoid(SIGNATURE_AXES[(p, q)]), sig)
    for r in _random_states(sig, np.random.default_rng(37)):
        ts = tangency_parameters(fam, r)
        want = _oracle_roots(fam, r)
        assert ts.count == len(want)
        assert np.allclose(ts.lambdas, want, rtol=1e-8, atol=1e-8)
        assert ts.near_pole == ()


#: Starts that reach the near-null-normal set by their third bounce (speed
#: ~1e4, F_k drift 6e-9 and 3e-8); a scan of G once reported spurious
#: roots clustered at a pole there.
POLE_FAULT_STARTS = [
    (
        (2, 2),
        (3.7981886487781193, 2.907018083036185, 2.027240396324434, 1.036652428465255),
        (2.0935089737248367, -0.5716237372859501, 0.5508520114129984, -0.7920008930439514),
        (-0.8560249513974907, 0.5169345051212229, 0.1972033853309011, 0.9803625986409478),
    ),
    (
        (1, 1),
        (2.042286444944871, 0.9171322321587713),
        (0.8965711546740063, 0.8240298195831287),
        (1.865984443577984, -0.6179552347830143),
    ),
]


@pytest.mark.parametrize("sig,axes,x,v", POLE_FAULT_STARTS, ids=["2-2", "1-1"])
def test_no_spurious_pole_roots_near_null_normals(sig, axes, x, v):
    sig = Signature(*sig)
    ell = Ellipsoid(axes)
    orbit = run_orbit(RayState(x, v), 3, ell, sig, fam=ConfocalFamily(ell, sig))
    assert orbit.abort_reason is None
    assert len({ts.count for ts in orbit.tangency}) == 1
    assert all(ts.near_pole == () for ts in orbit.tangency)

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pebilliards import billiard, cli, confocal, lorentz_oval, pecore, verify
from pebilliards.errors import ZeroDirection
from pebilliards.pecore import (
    Ellipsoid,
    Quadric,
    RayState,
    Signature,
    VectorType,
    classify_vector,
    inner,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
nonzero_scale = st.floats(min_value=1e-6, max_value=1e6).map(lambda s: s)


def test_signature_basics():
    sig = Signature(2, 1)
    assert sig.dim == 3
    assert np.array_equal(sig.e, [1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Signature(1, 0)
    with pytest.raises(ValueError):
        Signature(-1, 3)
    # Euclidean signature is accepted
    assert Signature(2, 0).q == 0


def test_metric_signs_and_squared_axes_are_cached_read_only():
    sig, ell = Signature(2, 1), Ellipsoid((3.0, 2.0, 1.0))
    assert sig.e is sig.e and ell.a2 is ell.a2
    assert np.array_equal(ell.a2, [9.0, 4.0, 1.0])
    for arr in (sig.e, ell.a2):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # The cache is not a field: equality and hashing are unchanged.
    assert sig == Signature(2, 1) and hash(ell) == hash(Ellipsoid((3.0, 2.0, 1.0)))


def test_inner_examples():
    assert inner((1, 1), (1, 1), Signature(1, 1)) == 0.0
    assert inner((1, 0), (0, 1), Signature(1, 1)) == 0.0
    assert inner((1, 0), (0, 1), Signature(2, 0)) == 0.0
    assert inner((3, 4), (3, 4), Signature(2, 0)) == 25.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner((1, 2, 3), (1, 2), Signature(1, 1))


@given(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    finite,
    finite,
)
@settings(max_examples=200, deadline=None)
@example(u=[0.0, 0.0, 0.0], v=[4.5397627119952924e-159, 0.0, 0.0], w=[4.5397627119952924e-159, 0.0, 0.0], a=0.0, b=159.0)
@example(u=[0.0, 2.685577394887027e-163, 0.0], v=[0.0, 0.0, 0.0], w=[0.0, 315.0, 0.0], a=1.7464290157146691e-156, b=0.0)
def test_inner_symmetric_bilinear(u, v, w, a, b):
    sig = Signature(2, 1)
    u, v, w = np.array(u), np.array(v), np.array(w)
    assert inner(u, v, sig) == pytest.approx(inner(v, u, sig), abs=1e-6, rel=1e-12)
    left = inner(a * u + b * v, w, sig)
    right = a * inner(u, w, sig) + b * inner(v, w, sig)
    # Each side rounds at most five times along every term, so they differ by
    # at most ~10 eps times the size of the summed terms (not of the result,
    # which can cancel to nearly zero), plus underflow in subnormal products:
    # a subnormal u*w or v*w on the right rounds by up to eta/2, scaled by |a|
    # or |b|, and a subnormal a*u or b*v on the left, scaled by |w|.
    terms = abs(a) * np.sum(np.abs(u * w)) + abs(b) * np.sum(np.abs(v * w))
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    underflow = 32 * eta * (1 + abs(a) + abs(b) + np.sum(np.abs(w)))
    assert abs(left - right) <= 16 * eps * terms + underflow


def test_euclidean_signature_is_dot_product():
    rng = np.random.default_rng(0)
    sig = Signature(4, 0)
    for _ in range(50):
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        assert inner(u, v, sig) == pytest.approx(float(u @ v), rel=1e-14, abs=1e-14)


def test_classify_examples():
    sig = Signature(1, 1)
    assert classify_vector((1, 0), sig) is VectorType.SPACELIKE
    assert classify_vector((1, 1), sig) is VectorType.LIGHTLIKE
    assert classify_vector((0, 1), sig) is VectorType.TIMELIKE
    with pytest.raises(ZeroDirection):
        classify_vector((0, 0), sig)


@given(
    st.lists(finite, min_size=2, max_size=2).filter(lambda v: any(abs(c) > 1e-3 for c in v)),
    st.one_of(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=-1e-3),
    ),
)
@settings(max_examples=200, deadline=None)
def test_classify_scale_invariant(v, s):
    sig = Signature(1, 1)
    assert classify_vector(np.array(v), sig) is classify_vector(s * np.array(v), sig)


@pytest.mark.parametrize("k", [-600, 600])
def test_classify_vector_where_the_squares_leave_the_float_range(k):
    # |v|^2 of these vectors times 2^k underflows to zero or overflows; the
    # verdict is still the unscaled one.
    sig = Signature(2, 1)
    for v in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 1.0]):
        assert classify_vector(np.ldexp(v, k), sig) is classify_vector(v, sig)


def test_quadric_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        Quadric(np.array([1.0, 0.0]))


def test_ellipsoid_validation_and_geometry():
    ell = Ellipsoid((2.0, 1.0))
    assert ell.boundary_defect(np.array([0.0, 1.0])) == 0.0
    assert np.allclose(ell.conormal(np.array([2.0, 0.0])), [0.5, 0.0])
    with pytest.raises(ValueError):
        Ellipsoid((1.0, -2.0))
    with pytest.raises(ValueError):
        Ellipsoid((1.0,))


def test_raystate_immutability_and_validation():
    r = RayState((0, 1), (1, -1))
    with pytest.raises(ValueError):
        r.x[0] = 5.0
    with pytest.raises(ZeroDirection):
        RayState((0, 1), (0, 0))
    with pytest.raises(ValueError):
        RayState((0, 1, 2), (1, 0))


def _public_functions():
    """(qualified name, function) for every public function and method of the six modules."""
    for mod in (billiard, cli, confocal, lorentz_oval, pecore, verify):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # unwrap class- and staticmethods
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_no_public_function_takes_a_tolerance():
    # Thresholds are module constants; no library function takes one as an argument.
    found = [
        f"{name}({param})"
        for name, fn in _public_functions()
        for param in inspect.signature(fn).parameters
        if param == "tol" or param.endswith("_tol")
    ]
    assert len(dict(_public_functions())) > 50
    assert found == []


ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every `mod.name` and `from ...mod import name` in a file, through import aliases."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    refs, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name.rsplit(".", 1)[-1]
            if isinstance(node, ast.ImportFrom) and node.module:
                refs.update((node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add((modules.get(node.value.id, node.value.id), node.attr))
    return refs


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    # A public function or class whose only callers are its own unit tests
    # leaves the library.  A caller is a bare use in its own module outside
    # its definition, or `mod.name` or `from .mod import name` in another
    # module of the package, in perfbench or in the acceptance gate.
    src = ROOT / "src" / "pebilliards"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    outside = set().union(*map(_references, [*ROOT.glob("perfbench/*.py"), ROOT / "tests" / "test_acceptance.py"]))
    uncalled = []
    for mod, tree in trees.items():
        called = outside.union(*(_references(src / f"{other}.py") for other in trees if other != mod))
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name.startswith("_"):
                continue
            inside = set(map(id, ast.walk(defn)))
            own = (n for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in inside)
            if (mod, defn.name) not in called and all(n.id != defn.name for n in own):
                uncalled.append(f"{mod}.{defn.name}")
    assert uncalled == []


def test_boundary_defect_sums_left_to_right():
    # Summed left to right from +0 on every CPU.  OpenBLAS's ddot, which
    # fuses the multiply-adds, gives 3.888371846727523e-10 at this point.
    ell = Ellipsoid((1.0, 2.0, 3.0))
    x = np.array([-0.47545378, -1.0376812, -2.13136886])
    total = 0.0
    for s, xi in zip(ell.shape_diag.tolist(), x.tolist()):
        total += s * (xi * xi)
    assert ell.boundary_defect(x) == total - 1.0 == 3.888369626281474e-10


def test_classify_vector_sums_left_to_right(monkeypatch):
    # |v|^2 and <v,v> are summed left to right from +0 on every CPU.  Here
    # OpenBLAS's ddot gives |v|^2 = 6.01146246397207, an ulp below the
    # left-to-right sum; with the tolerance between the two ratios the
    # verdict follows the left-to-right sum.
    sig, v = Signature(2, 1), np.array([1.22, 1.2318, 1.73370448])
    nrm2 = 0.0
    for vi in v.tolist():
        nrm2 += vi * vi
    q = 1.22 * 1.22 + 1.2318 * 1.2318 - 1.73370448 * 1.73370448
    tol = 2.6662280179278953e-09
    assert nrm2 == 6.011462463972071 and q == 1.6027929650164197e-08
    assert tol * 6.01146246397207 < q <= tol * nrm2
    monkeypatch.setattr(pecore, "LIGHTLIKE_TOL", tol)
    assert classify_vector(v, sig) is VectorType.LIGHTLIKE
    monkeypatch.setattr(pecore, "LIGHTLIKE_TOL", np.nextafter(tol, 0.0))
    assert classify_vector(v, sig) is VectorType.SPACELIKE

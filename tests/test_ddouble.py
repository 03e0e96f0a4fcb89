import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pebilliards.ddouble import _split, _two_product, _two_sum

#: Doubles whose products and sums neither overflow nor lose bits to underflow.
DOUBLES = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), st.floats(1e-100, 1e100)),
)


def _bits(v: float) -> int:
    """Significant bits of v, from its leading to its last set bit."""
    m = abs(Fraction(v)) / Fraction(2) ** (math.frexp(v)[1] - 53)
    assert m.denominator == 1
    n = int(m)
    return n.bit_length() - (n & -n).bit_length() + 1 if n else 0


@settings(max_examples=300, deadline=None)
@given(DOUBLES)
def test_split_halves_are_exact_and_short(a):
    hi, lo = _split(a)
    assert Fraction(hi) + Fraction(lo) == Fraction(a)
    assert _bits(hi) <= 26 and _bits(lo) <= 26


@settings(max_examples=300, deadline=None)
@given(DOUBLES, DOUBLES)
def test_two_product_is_exact(a, b):
    # hi is the rounded product and hi + lo the exact one, on floats and on
    # numpy arrays alike.
    hi, lo = _two_product(a, b)
    assert hi == a * b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)
    pair = _two_product(np.array([a, b]), np.array([b, a]), _split(np.array([b, a])))
    assert [float(v) for v in np.ravel(pair)] == [hi, hi, lo, lo]


@settings(max_examples=300, deadline=None)
@given(DOUBLES, DOUBLES)
def test_two_sum_is_exact(a, b):
    hi, lo = _two_sum(a, b)
    assert hi == a + b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from pebilliards import floattext, native

#: Whether the C formatter is built here: a C compiler on PATH and a writable cache.
FORMATTER = native.library() is not None
NO_FORMATTER = "no C formatter: no C compiler on PATH or no writable cache"
needs_formatter = pytest.mark.skipif(not FORMATTER, reason=NO_FORMATTER)


@pytest.fixture(params=["native", "repr"])
def formatter(request):
    """csv_rows with the C formatter ("native"), and with no compiler ("repr"), where Python writes every cell."""
    if request.param == "repr":
        request.getfixturevalue("no_compiler")
        assert native.library() is None
    elif not FORMATTER:
        pytest.skip(NO_FORMATTER)
    return request.param


#: The fixture sets the formatter up once for all of a test's examples.
FIXTURE_ONCE = [HealthCheck.function_scoped_fixture]


def csv_rows(cells) -> bytes:
    """floattext.csv_rows's text; with the library it is the C formatter's one buffer, with no cell spliced in."""
    rows = floattext.csv_rows(cells)
    assert isinstance(rows, memoryview) == (native.library() is not None)
    return bytes(rows)


def repr_rows(cells) -> bytes:
    """The reference text: per row its index and the repr of each cell, comma-separated; NaN is empty."""
    texts = [["" if math.isnan(v) else repr(v) for v in row] for row in cells.tolist()]
    return "".join(",".join([str(i), *row]) + "\n" for i, row in enumerate(texts)).encode()


def table(values, columns=7):
    """The values in rows of `columns`, the last row filled up by repeating them."""
    return np.resize(np.array(values, dtype=float), (-(-len(values) // columns), columns))


def _neighbours(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


#: Values at the edges of the formatter's cases: zeros, the extremes of the
#: format, decades and binades with their neighbours, the switches between
#: positional and exponent form, and texts of 1 to 17 digits.
EDGES = sorted(
    {
        s * v
        for s in (1.0, -1.0)
        for v in [
            0.0,
            5e-324,
            sys.float_info.min,
            sys.float_info.max,
            1e-05,
            9.999999999999999e-05,
            0.0001,
            9999999999999998.0,
            1e16,
            1e17,
            *(w for k in range(-24, 24) for w in _neighbours(10.0**k)),
            *(w for k in range(-45, 60) for w in _neighbours(2.0**k)),
            *(float(f"{math.pi:.{n}g}") * 10.0**k for n in range(1, 18) for k in (-12, -5, -1, 0, 3, 15)),
            *(float("0." + "9" * n) for n in range(1, 18)),
        ]
        if math.isfinite(v)
    }
)

BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
ORBIT_SCALE = st.builds(
    lambda sign, m, e: sign * m * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-6, 15)
)
CELLS = st.one_of(BIT_PATTERNS.filter(math.isfinite), ORBIT_SCALE, st.sampled_from([*EDGES, math.nan]))


@settings(max_examples=200, deadline=None, suppress_health_check=FIXTURE_ONCE)
@given(st.lists(CELLS, min_size=1, max_size=400))
def test_csv_rows_equal_repr(formatter, values):
    # The C formatter gives repr's bytes on every finite float64.  A NaN
    # cell is empty, in the rows of either path.
    cells = table(values)
    assert csv_rows(cells) == repr_rows(cells)


#: One of the near-ties of test_cells_within_2_to_the_34_of_a_tie_equal_repr.
TIE = 10.001292713001599

#: Values a column repeats in runs: orbit-scale values and bit patterns,
#: zeros of both signs, NaN, binade edges and a near-tie.
RUN_VALUES = st.one_of(
    ORBIT_SCALE, BIT_PATTERNS.filter(math.isfinite), st.sampled_from([0.0, -0.0, math.nan, 0.5, 1024.0, TIE])
)


@st.composite
def runs_of_repeated_cells(draw):
    """A table of up to 24 rows and 80 columns, each column made of runs of one value."""
    rows, columns = draw(st.integers(1, 24)), draw(st.integers(1, 80))
    runs = st.lists(st.tuples(RUN_VALUES, st.integers(1, 8)), min_size=1, max_size=6)
    cells = np.empty((rows, columns))
    for column in range(columns):
        cells[:, column] = np.resize([value for value, length in draw(runs) for _ in range(length)], rows)
    return cells


@settings(max_examples=100, deadline=None, suppress_health_check=FIXTURE_ONCE)
@given(runs_of_repeated_cells())
@example(np.tile(np.array([[0.0, -0.0] * 3, [1.5, 1.5, math.nan, 1.5, 1.5, 1.5], [1024.0] * 6, [TIE] * 6]).T, 18))
def test_csv_rows_equal_repr_on_runs_of_repeated_cells(formatter, cells):
    # The C formatter copies the text of a cell with the bits of the one above
    # it.  So 0.0 and -0.0 are not copies of each other, a NaN inside a run is
    # empty, and a table has columns beyond any fixed count (72 in the example).
    assert csv_rows(cells) == repr_rows(cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_on_random_tables(seed):
    # Large tables at orbit scale: log-uniform values from 1e-6 to 1e16 of
    # either sign, and arbitrary bit patterns.  They test the C formatter:
    # without a compiler they would compare repr with itself.
    rng = np.random.default_rng(seed)
    scale = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-6, 16, 20_000)
    bits = rng.integers(0, 2**64, 2_000, dtype=np.uint64).view(float)
    for cells in (scale.reshape(-1, 10), bits[np.isfinite(bits)][:1_000].reshape(-1, 10)):
        assert csv_rows(cells) == repr_rows(cells)


def test_csv_rows_equal_repr_on_edge_values(formatter):
    cells = table([*EDGES, math.nan])
    assert csv_rows(cells) == repr_rows(cells)


def _orbit_cells(signature, axes, seed, bounces):
    from pebilliards import billiard
    from pebilliards.pecore import Ellipsoid, Signature

    ell, sig = Ellipsoid(axes), Signature(*signature)
    rec = billiard.run_orbit(billiard.sample_null_ray(ell, sig, seed), bounces, ell, sig)
    return np.column_stack([rec.xs, rec.vs, rec.h, rec.f])


@needs_formatter
@pytest.mark.parametrize(("seed", "bounces"), [(6, 300), (7, 1000)])
def test_array_pass_writes_recorded_orbits_in_one_buffer(seed, bounces):
    # On recorded light-like orbits the C formatter writes every cell itself
    # (csv_rows asserts the one buffer), the conserved H and F_k mostly as
    # copies of the row above.
    cells = _orbit_cells((3, 1), (4.0, 3.0, 2.0, 1.0), seed, bounces)
    assert csv_rows(cells) == repr_rows(cells)


@needs_formatter
def test_cells_within_2_to_the_34_of_a_tie_equal_repr():
    # x = n / 2^49 in [10, 16) with n 5^15 = 2^33 + 1 (mod 2^34), n odd: x 10^15
    # = n 5^15 / 2^34 lies 2^-34 past a half-integer, so the nearer 17-digit
    # text wins by 2^-34.  x = 10.001292713001599 is one of these 196 608
    # cells.  A formatter that decides with rounded doubles cannot tell them
    # from ties.
    step = 2**34
    first = (2**33 + 1) * pow(5**15, -1, step) % step
    start = first + -(-(10 * 2**49 - first) // step) * step
    ties = [n / 2**49 for n in range(start, 2**53, step)]
    assert TIE in ties and len(ties) == 196_608
    cells = table(ties, 10)
    assert csv_rows(cells) == repr_rows(cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_below_1e_6(seed):
    # 1e-11 <= |x| < 1e-6: positional texts below 1e-4 and exponent texts.
    rng = np.random.default_rng(seed)
    cells = (rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-11, -6, 20_000)).reshape(-1, 10)
    assert csv_rows(cells) == repr_rows(cells)


@needs_formatter
@settings(max_examples=3, deadline=None, phases=[Phase.generate])  # a smaller seed is no simpler example
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_on_a_sweep_of_every_exponent(seed):
    # Per example: 400 000 arbitrary bit patterns, 100 000 subnormals, every
    # 2^k and its neighbours for k in [-1074, 1023], and decimals of 1 to 17
    # digits at every decimal exponent from -324 to 308.  A rare case of the
    # digit choice (an end of the rounding interval that is a decimal, a tie,
    # a binade edge) is among them.
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(float)
    subnormals = rng.integers(1, 2**52, 100_000, dtype=np.uint64).view(float)
    edges = [w for k in range(-1074, 1024) for w in _neighbours(math.ldexp(1.0, k))]
    decimals = [float(f"{rng.integers(10 ** (n - 1), 10**n)}e{e - n + 1}") for e in range(-324, 309) for n in range(1, 18)]
    cells = table(np.concatenate([bits[np.isfinite(bits)], subnormals, edges, decimals]), 10)
    got, want = csv_rows(cells).split(b"\n"), repr_rows(cells).split(b"\n")
    assert len(got) == len(want) and [pair for pair in zip(got, want) if pair[0] != pair[1]] == []

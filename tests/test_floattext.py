import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    """floattext.csv_rows's parts, joined."""
    return b"".join(floattext.csv_rows(cells))


def repr_rows(cells) -> bytes:
    """The reference text: per row its index and the repr of each cell, comma-separated; NaN is empty."""
    texts = [["" if math.isnan(v) else repr(v) for v in row] for row in cells.tolist()]
    return "".join(",".join([str(i), *row]) + "\n" for i, row in enumerate(texts)).encode()


def table(values, columns=7):
    """The values in rows of `columns`, the last row filled up by repeating them."""
    return np.resize(np.array(values, dtype=float), (-(-len(values) // columns), columns))


def decided(cells) -> float:
    """The share of the table's cells that the C formatter decides, and does not leave to repr."""
    x = np.ascontiguousarray(cells, dtype=float)
    return 1.0 - len(floattext._decide(x)[1]) / x.size


def _neighbours(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


#: Values where the pass's decisions are closest to their edges: zeros, the
#: extremes of the format, decades and binades with their neighbours, the
#: switches between positional and exponent form, and texts of 1 to 17 digits.
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
    # The C formatter gives repr's bytes on every finite float64: it decides
    # a cell only where that is certain and leaves the rest to repr.  A NaN
    # cell is empty, in the rows of either path.
    cells = table(values)
    assert csv_rows(cells) == repr_rows(cells)


#: The tie of test_cells_within_the_margin_of_a_tie_go_to_repr: S lies 2^-34
#: past a half-integer, so the C formatter leaves it to repr.
TIE = 10.001292713001599

#: Values a column repeats in runs: orbit-scale values and bit patterns,
#: zeros of both signs, NaN, and cells the C formatter leaves to repr (powers
#: of two and a tie).
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
    # empty, a repeated cell that goes to repr is decided again each time,
    # and a table has columns beyond any fixed count (72 in the example).
    assert csv_rows(cells) == repr_rows(cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_on_random_tables(seed):
    # A decision within rounding of its edge is rare (about 1 in 10^4 cells
    # at orbit scale), so these tables are large: log-uniform values from
    # 1e-6 to 1e16 of either sign, and arbitrary bit patterns.  They test the
    # C formatter: without a compiler they would compare repr with itself.
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
def test_array_pass_decides_most_cells_of_an_orbit():
    # repr is the exception: on a recorded light-like orbit the C formatter
    # decides nearly every cell itself, on every platform.
    cells = _orbit_cells((3, 1), (4.0, 3.0, 2.0, 1.0), 6, 300)
    assert decided(cells) > 0.95
    assert csv_rows(cells) == repr_rows(cells)


@needs_formatter
def test_array_pass_decides_all_but_a_thousandth_of_the_3_1_seed_7_orbit():
    # 6.8 % of this orbit's cells went to repr while S was one long-double
    # product, whose rounding every decision had to clear.
    cells = _orbit_cells((3, 1), (4.0, 3.0, 2.0, 1.0), 7, 1000)
    assert decided(cells) >= 0.999
    assert csv_rows(cells) == repr_rows(cells)


@needs_formatter
def test_cells_within_the_margin_of_a_tie_go_to_repr():
    # x = n / 2^49 in [10, 16) with n 5^15 = 2^33 + 1 (mod 2^34), n odd: S = x 10^15
    # = n 5^15 / 2^34 is exact and lies 2^-34 past a half-integer, so the
    # nearer 17-digit text wins by 2^-34, less than MARGIN; with S mod 10^6
    # below 2^19, u keeps that 2^-34.  x = 10.001292713001599 is one.  Every
    # such cell goes to repr, as a decision that close is not certain.
    step = 2**34
    first = (2**33 + 1) * pow(5**15, -1, step) % step
    start = first + -(-(10 * 2**49 - first) // step) * step
    ties = [n / 2**49 for n in range(start, 2**53, step) if n * 5**15 // step % 10**6 < 2**19]
    cells = table([TIE] + ties[::100])
    assert TIE in ties and len(ties) > 100_000
    assert decided(cells) == 0.0
    assert csv_rows(cells) == repr_rows(cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_below_1e_6(seed):
    # 1e-11 <= |x| < 1e-6, where S's pair is within 2^-48 and not exact: the
    # bytes are repr's and the C formatter still decides nearly every cell.
    rng = np.random.default_rng(seed)
    cells = (rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-11, -6, 20_000)).reshape(-1, 10)
    assert csv_rows(cells) == repr_rows(cells)
    assert not FORMATTER or decided(cells) >= 0.99

import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pebilliards import floattext
from pebilliards.floattext import csv_rows

SRC = Path(__file__).resolve().parent.parent / "src"


def repr_rows(cells) -> bytes:
    """The reference text: per row its index and the repr of each cell, comma-separated."""
    return "".join(",".join([str(i), *map(repr, row)]) + "\n" for i, row in enumerate(cells.tolist())).encode()


def array_pass_table(values, columns=7):
    """The values repeated into a table large enough for the array pass."""
    rows = -(-max(len(values), floattext.ARRAY_PASS_CELLS) // columns)
    return np.resize(np.array(values, dtype=float), (rows, columns))


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
CELLS = st.one_of(BIT_PATTERNS.filter(math.isfinite), ORBIT_SCALE, st.sampled_from(EDGES))


@settings(max_examples=200, deadline=None)
@given(st.lists(CELLS, min_size=1, max_size=400))
def test_csv_rows_equal_repr(values):
    # The array pass gives repr's bytes on every finite float64: it decides a
    # cell only where that is certain and leaves the rest to repr.
    cells = array_pass_table(values)
    assert csv_rows(cells) == repr_rows(cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_on_random_tables(seed):
    # A decision within rounding of its edge is rare (about 1 in 10^4 cells
    # at orbit scale), so these tables are large: log-uniform values from
    # 1e-6 to 1e16 of either sign, and arbitrary bit patterns.
    rng = np.random.default_rng(seed)
    scale = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-6, 16, 20_000)
    bits = rng.integers(0, 2**64, 2_000, dtype=np.uint64).view(float)
    for cells in (scale.reshape(-1, 10), bits[np.isfinite(bits)][:1_000].reshape(-1, 10)):
        assert csv_rows(cells) == repr_rows(cells)


def test_csv_rows_equal_repr_on_edge_values():
    cells = array_pass_table(EDGES)
    assert csv_rows(cells) == repr_rows(cells)


def _orbit_cells(signature, axes, seed, bounces):
    from pebilliards import billiard
    from pebilliards.pecore import Ellipsoid, Signature

    ell, sig = Ellipsoid(axes), Signature(*signature)
    rec = billiard.run_orbit(billiard.sample_null_ray(ell, sig, seed), bounces, ell, sig)
    return np.column_stack([rec.xs, rec.vs, rec.h, rec.f])


def test_array_pass_decides_most_cells_of_an_orbit():
    # repr is the exception: on a recorded light-like orbit the pass decides
    # nearly every cell itself, on every platform.
    cells = _orbit_cells((3, 1), (4.0, 3.0, 2.0, 1.0), 6, 300)
    assert floattext._shortest(cells.reshape(-1))[0].mean() > 0.95
    assert csv_rows(cells) == repr_rows(cells)


def test_array_pass_decides_all_but_a_thousandth_of_the_3_1_seed_7_orbit():
    # 6.8 % of this orbit's cells went to repr while S was one long-double
    # product, whose rounding every decision had to clear.
    cells = _orbit_cells((3, 1), (4.0, 3.0, 2.0, 1.0), 7, 1000)
    assert floattext._shortest(cells.reshape(-1))[0].mean() >= 0.999
    assert csv_rows(cells) == repr_rows(cells)


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
    cells = array_pass_table([10.001292713001599] + ties[::100])
    assert 10.001292713001599 in ties and len(ties) > 100_000
    assert not floattext._shortest(cells.reshape(-1))[0].any()
    assert csv_rows(cells) == repr_rows(cells)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 27), st.floats(1e16, 1e17))
def test_scaled_pair_is_exact_to_k_22_and_within_2_to_the_48_above(k, s):
    # S = a 10^k for a with S in [1e16, 1e17], up to the products near 1e17:
    # exact where 10^k is a double, within 2^-48 where |x| < 1e-6 takes it past.
    a = s / 10.0**k
    hi, lo = floattext._scaled(np.array([a]), np.array([k]))
    error = Fraction(float(hi[0])) + Fraction(float(lo[0])) - Fraction(a) * 10**k
    assert error == 0 if k <= 22 else abs(error) <= Fraction(1, 2**48)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_rows_equal_repr_below_1e_6(seed):
    # 1e-11 <= |x| < 1e-6, where S's pair is within 2^-48 and not exact: the
    # bytes are repr's and the pass still decides nearly every cell.
    rng = np.random.default_rng(seed)
    cells = (rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-11, -6, 20_000)).reshape(-1, 10)
    assert csv_rows(cells) == repr_rows(cells)
    assert floattext._shortest(cells.reshape(-1))[0].mean() >= 0.99


def test_import_builds_no_table():
    # The layout tables are built on first use, so importing costs nothing for them.
    code = "import pebilliards.cli, pebilliards.floattext as f; print(f._tables.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"

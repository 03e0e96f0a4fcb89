"""CSV rows of float64 tables, each cell byte for byte the ``repr`` of its float.

``repr`` prints the shortest decimal that reads back as the float and, of
those, the nearest.  `csv_rows` finds those digits for a whole table in one
call of a C function on doubles (`_source`, built on first use and loaded
through `native`).  For a normal float64 x with decimal exponent
E = floor(log10|x|) in [-11, 16] and k = 16 - E:

* ``S = |x| 10^k`` is a pair ``hi + lo`` (Dekker's two-product with the
  tabled split of 10^k rounded, plus |x| times the rest of 10^k), exact for
  k <= 22 and within 2^-48 above.  As S >= 1e16 > 2^53, hi is an integer,
  so ``D = floor(S) = hi + floor(lo)`` and ``r = S - D``.
* The nearest decimal of 17 - j digits is D rounded at digit j: with
  ``t = (D mod 10^j) + r`` it lies ``min(t, 10^j - t)`` from S.  It reads
  back as x when that distance is below the half gap to the neighbouring
  floats, ``H = 2^(e - 54) 10^k`` for |x| = m 2^e, 1/2 < m < 1.
* Reading back is monotone in the digit count: the text has 17 - j digits
  when 17 - j read back and 16 - j do not.

E comes from the binary exponent and one comparison with the double
nearest 10^(E + 1).  It is one too high only at that double itself where it
lies below 10^(E + 1): a one-digit text, which goes to ``repr`` as a cell
with few digits does, and D outside [10^16, 10^17) sends it there as well
(the layout needs 17 digits).  Each decision that picks the text (17 - j
digits read back, 16 - j do not, which neighbour is nearer) must clear
`MARGIN`, or the cell goes to ``repr`` too.  So do zeros, subnormals,
non-finite values, binade edges (where the gaps differ), exponents outside
[-11, 16], cells whose 16 - SHORTER digits read back, and positional texts
with zeros past the last digit.

The text is laid out as ``repr`` does it: positional for -4 <= E < 16,
``d.ddde+XX`` otherwise.  The C function writes every row, its index and
separators into one buffer, leaves out each cell it does not decide and
returns those cells; `csv_rows` fills them with their ``repr``.  Where no
library can be built or loaded, and on tables below `ARRAY_PASS_CELLS`,
every cell is its ``repr``.  All arithmetic is on double and int64, built
without contraction into fused multiply-adds or fast-math (`native._CC`),
so the digits do not depend on the CPU.
"""

from __future__ import annotations

import functools

import numpy as np

from . import native
from .ddouble import _SPLITTER, _split

#: Tables of fewer cells, such as short orbits, are written with ``repr`` and
#: never load the C formatter.  Its first load in a fresh process, after the
#: bounce walk's (median 0.355 ms over 21 processes, warm cache, on a 2-core
#: Xeon), is what ``repr`` saves on 650 cells (0.595 us a cell against the
#: formatter's 0.050 us).  Once loaded it is faster on a table of any size.
ARRAY_PASS_CELLS = 650

#: The most digits dropped from 17 (5 at most: the decisions see S mod 10^6,
#: which places the nearest multiple of 10^(j + 1) only up to j = 5); a cell
#: whose 16 - SHORTER digits read back goes to ``repr``.
SHORTER = 5

#: The room each decision leaves for rounding: S mod 10^6 in double is within
#: 2^-33 (the pair within 2^-48 of S, the sum below 2^20), and H is rounded.
MARGIN = 2.0**-32

#: The most bytes a decided cell and the separator before it take: the sign,
#: then "0.000" and 17 digits, or 17 digits, the point and "e-XX".
_CELL_BYTES = 24

_POW10 = [10.0**k for k in range(28)]  # exact to 10^22


def _doubles(values) -> str:
    return ", ".join(float(v).hex() for v in values)


def _source() -> str:
    """The C formatter, its tables written out as exact hexadecimal doubles."""
    split = _split(np.array(_POW10))
    rest = [10**k - int(p) for k, p in enumerate(_POW10)]  # exact as doubles
    pairs = "".join(f"{i:02d}" for i in range(100))
    return f"""\
#include <stdint.h>
#include <string.h>

#define SHORTER {SHORTER}
#define MARGIN {MARGIN.hex()}

static const double POW10[28] = {{{_doubles(_POW10)}}};
static const double POW10_HI[28] = {{{_doubles(split[0])}}};
static const double POW10_LO[28] = {{{_doubles(split[1])}}};
static const double POW10_REST[28] = {{{_doubles(rest)}}};
static const double DECADE[29] = {{{_doubles(float(f"1e{e}") for e in range(-11, 18))}}};
static const char PAIRS[] = "{pairs}";

static double nearest(double v) /* the nearest integer to 0 <= v < 2^52, ties to even */
{{
    return (v + 0x1p52) - 0x1p52;
}}

static void four(uint32_t v, char *s) /* the 4 digits of v < 10^4 */
{{
    memcpy(s, PAIRS + 2 * (v / 100), 2);
    memcpy(s + 2, PAIRS + 2 * (v % 100), 2);
}}

static double magnitude(double v)
{{
    return v < 0.0 ? -v : v;
}}

/* The text of the non-NaN x as repr writes it, into s: its length, or -1 where repr must decide. */
static int cell(double x, char *s)
{{
    uint64_t bits, power;
    double a, two;
    memcpy(&bits, &x, 8);
    bits &= 0x7fffffffffffffffULL;
    memcpy(&a, &bits, 8);
    if (!(a >= 1e-11 && a < 1e17) || (bits & 0xfffffffffffffULL) == 0)
        return -1; /* a zero, subnormal or infinity, E outside [-11, 16], or a binade edge */
    int exponent = (int)(bits >> 52) - 1022; /* a = m 2^exponent, 1/2 < m < 1 */
    int guess = ((exponent - 1) * 78913) >> 18; /* floor(log10 2^(exponent - 1)) */
    int e = guess + (a >= DECADE[guess + 12]); /* floor(log10 a) but at a DECADE below its power */
    int k = 16 - e;

    double hi = a * POW10[k];
    double c = {_SPLITTER.hex()} * a;
    double ah = c - (c - a), al = a - ah;
    double lo = ((ah * POW10_HI[k] - hi) + ah * POW10_LO[k] + al * POW10_HI[k]) + al * POW10_LO[k];
    lo = lo + a * POW10_REST[k];
    double floor_lo = (double)(int64_t)lo;
    if (floor_lo > lo)
        floor_lo = floor_lo - 1.0;
    int64_t d = (int64_t)hi + (int64_t)floor_lo;
    if (d < 10000000000000000LL || d >= 100000000000000000LL)
        return -1; /* E was off by one: the layout below needs 17 digits */
    int64_t high = d / 1000000;
    double u = (double)(d - high * 1000000) + (lo - floor_lo); /* S mod 10^6, within 2^-33 */
    /* D's 11 digits above 10^6, the first of the 17 digits of the text;
       the bytes past them are copied, unread, by the fixed-size copies below */
    char digits[32] = {{0}};
    uint32_t top = (uint32_t)(high / 100000000), rest = (uint32_t)(high % 100000000);
    digits[0] = (char)('0' + top / 100);
    memcpy(digits + 1, PAIRS + 2 * (top % 100), 2);
    four(rest / 10000, digits + 3);
    four(rest % 10000, digits + 7);
    power = (uint64_t)(exponent - 54 + 1023) << 52;
    memcpy(&two, &power, 8);
    double half = POW10[k] * two;

    /* j, the digits dropped (a guess; the decisions below check it): H < 12,
       so at most one multiple of 100 lies within H of S; where one does j is 2
       plus its trailing zeros, else 1 where a multiple of 10 does. */
    double m = nearest(u / 100);
    int j;
    if (magnitude(u - 100 * m) < half) {{
        int64_t n = (int64_t)m;
        j = 2 + (n % 10 == 0) + (n % 100 == 0) + (n % 1000 == 0) + (n % 10000 == 0);
    }} else
        j = magnitude(u - 10 * nearest(u / 10)) < half;
    if (j > SHORTER)
        return -1;

    /* The decisions that pick the text, each with the margin to spare: the
       nearest multiple of 10^j lies within H of S, and nearer than its other
       neighbour; the nearest multiple of 10^(j+1) does not. */
    double p = POW10[j];
    double near = p * nearest(u / p);
    double gap = magnitude(u - near);
    if (!(gap < half - MARGIN) || !(p / 2 - gap > MARGIN))
        return -1;
    if (!(magnitude(u - 10 * p * nearest(u / (10 * p))) > half + MARGIN))
        return -1;
    if (near >= 1e6)
        return -1; /* a carry into D's digits above 10^6 */
    if (!(e == 16 || e + j < 16))
        return -1; /* positional zeros past the last digit */

    /* The last 6 digits, and the text laid out with copies of fixed size,
       which may write up to 16 bytes past it (the caller leaves that room). */
    uint32_t last = (uint32_t)near;
    memcpy(digits + 11, PAIRS + 2 * (last / 10000), 2);
    four(last % 10000, digits + 13);
    char *t = s;
    int shown = 17 - j;
    if (x < 0)
        *t++ = '-';
    if (e < -4 || e == 16) {{
        t[0] = digits[0];
        t[1] = '.';
        memcpy(t + 2, digits + 1, 16);
        t += shown + 1;
        t[0] = 'e';
        t[1] = e < 0 ? '-' : '+';
        memcpy(t + 2, PAIRS + 2 * (e < 0 ? -e : e), 2);
        t += 4;
    }} else if (e < 0) {{
        memcpy(t, "0.000", 5);
        t += 1 - e;
        memcpy(t, digits, 17);
        t += shown;
    }} else {{
        memcpy(t, digits, 17);
        t[e + 1] = '.';
        memcpy(t + e + 2, digits + e + 1, 16);
        t += shown + 1;
    }}
    return (int)(t - s);
}}

/* Rows "index,cell,...\\n" of the n x c table x into text, a NaN cell empty.
   A cell left to repr is left out: its index and the offset where its text
   goes are stored in todo, in order, then the pair (n c, length of text).
   Returns the number of cells left out. */
int64_t csv_rows(const double *x, int64_t n, int64_t c, char *text, int64_t *todo)
{{
    char *t = text;
    int64_t left = 0;
    for (int64_t row = 0; row < n; row++) {{
        char index[20];
        int width = 0;
        int64_t r = row;
        do
            index[width++] = (char)('0' + r % 10);
        while ((r /= 10) > 0);
        while (width > 0)
            *t++ = index[--width];
        for (int64_t i = row * c; i < (row + 1) * c; i++) {{
            *t++ = ',';
            if (x[i] != x[i])
                continue;
            int length = cell(x[i], t);
            if (length >= 0)
                t += length;
            else {{
                todo[2 * left] = i;
                todo[2 * left + 1] = t - text;
                left++;
            }}
        }}
        *t++ = '\\n';
    }}
    todo[2 * left] = n * c;
    todo[2 * left + 1] = t - text;
    return left;
}}
"""


@functools.cache
def _formatter():
    """The C function csv_rows of `_source`, built on first use; None where no library builds or loads."""
    lib = native.load("csvrows", _source())
    if lib is None:
        return None
    import ctypes

    write = lib.csv_rows
    write.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
    write.restype = ctypes.c_int64
    return write


def _decide(x: np.ndarray) -> tuple[memoryview, list[list[int]]]:
    """(text, todo): the C formatter's rows of the C-contiguous float64 table x, and the cells it left out.

    todo holds [cell, offset] per cell left to ``repr``, in order: the index
    of the cell in x's flat order and where in text its ``repr`` goes.
    """
    n, c = x.shape
    text = np.empty(n * (len(str(n - 1)) + 1) + x.size * _CELL_BYTES + 16, np.uint8)  # 16: see cell()
    todo = np.empty((x.size + 1, 2), np.int64)
    left = _formatter()(x.ctypes.data, n, c, text.ctypes.data, todo.ctypes.data)
    return memoryview(text)[: todo[left, 1]], todo[:left].tolist()


def csv_rows(cells: np.ndarray) -> bytes:
    """Rows ``index,cell,...`` of a float table, LF-terminated; a NaN cell is empty."""
    n, c = cells.shape
    x = np.ascontiguousarray(cells, dtype=float)
    if x.size >= ARRAY_PASS_CELLS and _formatter() is not None:
        text, todo = _decide(x)
        parts, start = [], 0
        for cell, at in todo:
            parts += [text[start:at], repr(float(x.flat[cell])).encode()]
            start = at
        return b"".join([*parts, text[start:]])

    texts = list(map(repr, x.reshape(-1).tolist()))
    for i in np.flatnonzero(np.isnan(x)).tolist():
        texts[i] = ""
    return "".join([f"{row}\n" for row in map(",".join, zip(map(str, range(n)), *[iter(texts)] * c))]).encode()

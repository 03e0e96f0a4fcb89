"""CSV rows of float64 tables, each cell byte for byte the ``repr`` of its float.

``repr`` prints the shortest decimal that reads back as the float and, of
those, the nearest.  `csv_rows` finds those digits for a whole table in one
call of a C function (`_source`, built into the library of `native` on first
use) that decides every finite cell itself, with Schubfach's exact digit
choice (Giulietti 2020, "The Schubfach way to render doubles", which proves
it; the C follows its Java form, ``DoubleToDecimal``).  For |x| = c 2^q:

* k = floor(log10 2^q), or floor(log10 (3/4) 2^q) at a binade edge, where
  the gap below x is half the gap above.  The rounding interval R, the
  reals that read back as x, is then wider than 10^k and narrower than
  10^(k + 1): it holds s 10^k or (s + 1) 10^k, s = floor(|x| / 10^k), and at
  most one multiple of 10^(k + 1).  R is closed where c is even (a tie
  reads back to the even c) and open where c is odd.
* 4 |x| / 10^k and R's ends on that scale come from three products of 4c
  and 4c -+ 2 (4c - 1 at an edge) with g = floor(10^-k / 2^r) + 1, tabled
  per k with 2^125 <= g < 2^126, each rounded to odd.  That rounding keeps
  every comparison below exact.
* The text is the multiple of 10^(k + 1) next to x that lies in R where one
  does; else whichever of s and s + 1 lies in R, or the nearer where both
  do, a tie to the even one.  Trailing zeros are dropped.

Java's rule of at least two digits is left out (``repr(5e-324)`` is
``5e-324``), and with it the rescaling of small subnormals.  The layout is
``repr``'s: positional for -4 <= E < 16 (E the exponent of the first digit),
``d.ddde+XX`` otherwise; zeros and infinities are written as they are.  The
function writes every row, its index and separators into one buffer.  A
cell with the bits of the cell above it gets a copy of that text: an
orbit's H and F_k are conserved, and repeat in most rows.  A NaN cell is
empty.  Where no library can be built or loaded, every cell is its
``repr``.  All arithmetic is on 64-bit integers and their 128-bit products
(``unsigned __int128``, which GCC and Clang have on 64-bit targets), so the
digits do not depend on the CPU.
"""

from __future__ import annotations

import numpy as np

from . import native

#: The most bytes a cell and the separator before it take: the comma, the
#: sign and "2.2250738585072014e-308".
_CELL_BYTES = 25


def _g(k: int) -> int:
    """floor(10^-k / 2^r) + 1, with r such that it lies in [2^125, 2^126)."""
    if k <= 0:
        ten = 10**-k
        shift = ten.bit_length() - 126
        return (ten >> shift if shift >= 0 else ten << -shift) + 1
    ten = 10**k
    return (1 << ten.bit_length() + 125) // ten + 1


def _source() -> str:
    """The C formatter, with the table of g = G[k + 324][0] 2^63 + G[k + 324][1] for k in [-324, 292]."""
    table = ",\n".join(f"{{{g >> 63:#x}, {g & (1 << 63) - 1:#x}}}" for g in map(_g, range(-324, 293)))
    pairs = "".join(f"{i:02d}" for i in range(100))
    return f"""\
#include <stdint.h>
#include <string.h>

#define MASK63 0x7fffffffffffffffULL

static const uint64_t G[617][2] = {{
{table}}};
static const char PAIRS[] = "{pairs}";

/* g's product with cp < 2^63 over 2^127, rounded to odd (Giulietti's rop). */
static uint64_t rop(const uint64_t *g, uint64_t cp)
{{
    unsigned __int128 x = (unsigned __int128)g[1] * cp, y = (unsigned __int128)g[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + (uint64_t)(x >> 64);
    return ((uint64_t)(y >> 64) + (z >> 63)) | (((z & MASK63) + MASK63) >> 63);
}}

static void four(uint32_t v, char *s) /* the 4 digits of v < 10^4 */
{{
    memcpy(s, PAIRS + 2 * (v / 100), 2);
    memcpy(s + 2, PAIRS + 2 * (v % 100), 2);
}}

/* The text of the non-NaN x as repr writes it, into text: its length.  Its
   copies of fixed size may write up to 16 bytes past it (the caller leaves
   that room). */
static int cell(double x, char *text)
{{
    uint64_t bits;
    memcpy(&bits, &x, 8);
    char *t = text;
    if (bits >> 63)
        *t++ = '-';
    int biased = (int)(bits >> 52) & 0x7ff;
    uint64_t c = bits & 0xfffffffffffffULL;
    if (biased == 0x7ff) {{
        memcpy(t, "inf", 3);
        return (int)(t + 3 - text);
    }}
    if (biased == 0 && c == 0) {{
        memcpy(t, "0.0", 3);
        return (int)(t + 3 - text);
    }}
    int q = -1074;
    if (biased > 0) {{
        c |= 1ULL << 52;
        q = biased - 1075;
    }}

    /* 4 |x| / 10^k and the ends of the rounding interval on that scale */
    int out = (int)(c & 1), k;
    uint64_t cb = c << 2, cbr = cb + 2, cbl;
    if (c != 1ULL << 52 || biased == 1) {{
        cbl = cb - 2;
        k = (int)((int64_t)q * 661971961083LL >> 41); /* floor(log10 2^q) */
    }} else {{
        cbl = cb - 1; /* a binade edge: the gap below is half the gap above */
        k = (int)(((int64_t)q * 661971961083LL - 274743187321LL) >> 41); /* floor(log10 (3/4) 2^q) */
    }}
    int h = q + (int)((int64_t)-k * 913124641741LL >> 38) + 2; /* q + floor(log2 10^-k) + 2 */
    const uint64_t *g = G[k + 324];
    uint64_t vb = rop(g, cb << h), vbl = rop(g, cbl << h), vbr = rop(g, cbr << h);

    /* the one multiple of 10^(k+1) in the interval, else s or s + 1 */
    uint64_t s = vb >> 2, u = s / 10 * 10, d;
    int uin = vbl + out <= u << 2, win = ((u + 10) << 2) + out <= vbr;
    if (uin != win)
        d = uin ? u : u + 10;
    else {{
        uin = vbl + out <= s << 2;
        win = ((s + 1) << 2) + out <= vbr;
        if (uin != win)
            d = uin ? s : s + 1;
        else
            d = vb < 4 * s + 2 || (vb == 4 * s + 2 && (s & 1) == 0) ? s : s + 1;
    }}
    while (d % 10 == 0) {{
        d /= 10;
        k++;
    }}

    /* d < 10^17 as 17 digits, its n digits at the end; the bytes past them
       are copied, unread, by the fixed-size copies below */
    char digits[40] = {{0}};
    uint64_t high = d / 100000000;
    uint32_t low = (uint32_t)(d - high * 100000000), middle = (uint32_t)(high % 100000000);
    digits[0] = (char)('0' + high / 100000000);
    four(middle / 10000, digits + 1);
    four(middle % 10000, digits + 5);
    four(low / 10000, digits + 9);
    four(low % 10000, digits + 13);
    int n = 17;
    while (digits[17 - n] == '0')
        n--;
    const char *first = digits + 17 - n;
    int e = k + n - 1;

    if (e < -4 || e >= 16) {{
        *t++ = first[0];
        if (n > 1) {{
            *t++ = '.';
            memcpy(t, first + 1, 16);
            t += n - 1;
        }}
        *t++ = 'e';
        *t++ = e < 0 ? '-' : '+';
        int magnitude = e < 0 ? -e : e;
        if (magnitude >= 100) {{
            *t++ = (char)('0' + magnitude / 100);
            magnitude %= 100;
        }}
        memcpy(t, PAIRS + 2 * magnitude, 2);
        t += 2;
    }} else if (e < 0) {{
        memcpy(t, "0.000", 5);
        t += 1 - e;
        memcpy(t, first, 17);
        t += n;
    }} else if (e < n - 1) {{
        memcpy(t, first, 17);
        t[e + 1] = '.';
        memcpy(t + e + 2, first + e + 1, 16);
        t += n + 1;
    }} else {{
        memcpy(t, first, 16);
        memcpy(t + n, "0000000000000000", 16);
        t += e + 1;
        memcpy(t, ".0", 2);
        t += 2;
    }}
    return (int)(t - text);
}}

/* Rows "index,cell,...\\n" of the n x c table x into text, a NaN cell empty;
   returns the length of the text.  A cell with the bits of the one above it
   gets a copy of that cell's text: above holds, per column, the offset and
   length of the text last written there. */
int64_t csv_rows(const double *x, int64_t n, int64_t c, char *text, int64_t *above)
{{
    char *t = text;
    for (int64_t row = 0; row < n; row++) {{
        char index[20];
        int width = 0;
        int64_t r = row;
        do
            index[width++] = (char)('0' + r % 10);
        while ((r /= 10) > 0);
        while (width > 0)
            *t++ = index[--width];
        for (int64_t column = 0; column < c; column++) {{
            int64_t i = row * c + column, *last = above + 2 * column;
            *t++ = ',';
            if (x[i] != x[i])
                continue;
            if (row > 0 && memcmp(x + i, x + i - c, 8) == 0) {{
                memcpy(t, text + last[0], last[1]);
                t += last[1];
                continue;
            }}
            last[0] = t - text;
            last[1] = cell(x[i], t);
            t += last[1];
        }}
        *t++ = '\\n';
    }}
    return t - text;
}}
"""


def csv_rows(cells: np.ndarray) -> bytes | memoryview:
    """Rows ``index,cell,...`` of a float table, LF-terminated, as one bytes-like object; a NaN cell is empty."""
    n, c = cells.shape
    x = np.ascontiguousarray(cells, dtype=float)
    if native.library() is not None:
        # per column the offset and length of the text above, then the text
        # and the 16 bytes that its last cell's copies may write past it
        start = 16 * c
        buffer = np.empty(start + n * (len(str(n - 1)) + 1) + x.size * _CELL_BYTES + 16, np.uint8)
        address = buffer.ctypes.data
        end = native.library().csv_rows(x.ctypes.data, n, c, address + start, address)
        return memoryview(buffer)[start : start + end]

    texts = list(map(repr, x.reshape(-1).tolist()))
    for i in np.flatnonzero(np.isnan(x)).tolist():
        texts[i] = ""
    return "".join([f"{row}\n" for row in map(",".join, zip(map(str, range(n)), *[iter(texts)] * c))]).encode()

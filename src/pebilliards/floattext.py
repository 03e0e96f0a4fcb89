"""CSV rows of float64 tables, each cell byte for byte the ``repr`` of its float.

``repr`` prints the shortest decimal that reads back as the float and, of
those, the nearest.  `csv_rows` finds those digits for a whole table in one
array pass.  For a normal float64 x with decimal exponent
E = floor(log10|x|) in [-11, 16] and k = 16 - E:

* ``S = |x| 10^k`` is one long-double product (10^k is exact there for
  k <= 27), ``D = trunc(S)`` and ``r = S - D`` exactly.
* The nearest decimal of 17 - j digits is D rounded at digit j: with
  ``t = (D mod 10^j) + r`` it lies ``min(t, 10^j - t)`` from S.  It reads
  back as x when that distance is below the half gap to the neighbouring
  floats, ``H = 2^(e - 54) 10^k`` for |x| = m 2^e, 1/2 < m < 1.
* Reading back is monotone in the digit count, so the text has the digits
  of the last count that reads back, searched from 17 down.

S can be off by half an ulp of long double.  Each decision that picks the
text (the last count reads back, the next does not, which neighbour is
nearer) must clear a margin of twice that, or the cell goes to ``repr``.
So do zeros, subnormals, non-finite values, binade edges (where the gaps
differ), exponents outside [-11, 16], cells that still read back with
17 - SHORTER digits, and positional texts whose integer digits run past the
last significant one.  Where long double is double the margin exceeds
every H, and every cell goes to ``repr``.

The text is laid out as ``repr`` does it: positional for -4 <= E < 16,
``d.ddde+XX`` otherwise.  Each cell is written into a slot of fixed byte
positions: sign, ``0.00`` prefix, 17 pairs of a digit and its point, then
exponent and separator, with NUL where a position holds nothing.  The
table's text is the slots with every NUL deleted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Significand bits of long double: 64 for x86's extended format, 53 where
#: long double is double.
LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant + 1

#: Tables of fewer cells skip the array pass, whose fixed cost is larger
#: than what it saves there, and format every cell with ``repr``.
ARRAY_PASS_CELLS = 320

#: Digits searched below 17 (at most 7: only the last two 4-digit groups
#: are trimmed).  A cell that reads back with 17 - SHORTER digits may have
#: a shorter text and goes to ``repr``.
SHORTER = 5

_SLOT = 48  # sign 0, prefix 1:8, digit pairs 8:42, exponent 42:46, separator 46


@functools.cache
def _tables():
    """The digit pairs of 0..9999, and the slot's constant bytes per decimal exponent.

    Pairs are (digit, NUL), little-endian; entries 10000 + i have the
    trailing zeros of i, and so every digit of 0, as NUL.  Built on first
    use, not at import.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999, most significant first
    ascii4 = digits + np.uint8(ord("0"))
    trimmed = np.where(np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0, 0, ascii4)
    pairs4 = np.zeros((20_000, 8), np.uint8)
    pairs4[:, ::2] = np.concatenate([ascii4, trimmed])
    prefix = np.zeros((28, 8), np.uint8)  # bytes 0:8 of the slot, sign left out
    exponent = np.zeros((28, 4), np.uint8)
    point = np.zeros(28, np.intp)  # slot byte of the decimal point
    for form, e in enumerate(range(-11, 17)):
        if -4 <= e < 0:
            head = b"\0" + b"0" + b"\0" + b"0" * (-e - 1)  # sign, 0, point, zeros
            prefix[form, : len(head)] = list(head)
            point[form] = 2
        elif 0 <= e < 16:
            point[form] = 9 + 2 * e
        else:
            exponent[form] = list(b"e%+03d" % e)
            point[form] = 9
    return pairs4.view("<u8")[:, 0], prefix.view("<u8")[:, 0], exponent, point


_POW10 = np.cumprod([np.longdouble(1)] + [np.longdouble(10)] * 27)  # exact to 10^27
_POW10_FLOAT = _POW10.astype(float)
_POW10_INT = 10 ** np.arange(18)


def _shortest(x: np.ndarray):
    """(sure, G, E, j): G = repr's digits times 10^j (17 digits), E its decimal exponent."""
    a = np.abs(x)
    sure = (a >= 1e-11) & (a < 1e17)  # no zero, subnormal, NaN or infinity
    a = np.where(sure, a, 1.0)
    mantissa, exponent = np.frexp(a)
    sure &= mantissa != 0.5  # a binade edge
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 27)
    s = a.astype(np.longdouble) * np.take(_POW10, k)
    d = s.astype(np.int64)
    r = (s - d).astype(float)
    sure &= (d >= 10**16) & (d < 10**17)  # E was off by one at a decade edge
    half = np.ldexp(np.take(_POW10_FLOAT, k), exponent - 54)

    # j: the digits dropped from 17 while the nearest decimal still reads back.
    j = np.zeros_like(k)
    live = np.flatnonzero(sure)
    for drop in range(1, SHORTER + 1):
        p = 10**drop
        dl = d[live]
        t = (dl - dl // p * p) + r[live]
        live = live[np.minimum(t, p - t) < half[live]]
        j[live] = drop
    sure[live] = False

    # The decisions that pick the text: 17 - j digits read back, 16 - j do
    # not, and which neighbour is nearer; each must clear the margin.
    margin = math.ldexp(1e17, 1 - LONGDOUBLE_BITS) + 2.0**-32  # and room for r, t and H in double
    p = np.take(_POW10_INT, j)
    q = d // p
    t = (d - q * p) + r
    up = t > p / 2
    sure &= (np.abs(t - p / 2) > margin) & (np.minimum(t, p - t) < half - margin)
    g = (q + up) * p
    p *= 10
    t = (d - d // p * p) + r
    sure &= (np.minimum(t, p - t) > half + margin) & (g < 10**17)  # a carry to 10^(17-j): repr
    return sure, g, 16 - k, j


def _pairs(g: np.ndarray, j: np.ndarray, pairs4: np.ndarray) -> np.ndarray:
    """The 17 digit pairs of G; its last j digits, all zero, as NUL pairs."""
    groups = np.empty((len(g), 5), np.intp)  # base 10^4, most significant first
    for i in range(4, 0, -1):
        high = g // 10_000
        groups[:, i] = g - high * 10_000
        g = high
    groups[:, 0] = g
    groups[:, 3] += 10_000 * (j >= 4)
    groups[:, 4] += 10_000
    return np.take(pairs4, groups).view("<u2")[:, 3:]


def csv_rows(cells: np.ndarray, blank: np.ndarray | None = None) -> bytes:
    """Rows ``index,cell,...`` of a float table, LF-terminated; a blank cell is empty."""
    n, c = cells.shape
    x = np.ascontiguousarray(cells, dtype=float).reshape(-1)
    empty = np.flatnonzero(blank) if blank is not None else np.zeros(0, np.intp)
    if x.size < ARRAY_PASS_CELLS:
        texts = list(map(repr, x.tolist()))
        for i in empty.tolist():
            texts[i] = ""
        return "".join([f"{row}\n" for row in map(",".join, zip(map(str, range(n)), *[iter(texts)] * c))]).encode()

    digits = len(str(n - 1))
    width = digits + 1 + (digits + 1) % 2  # index, comma, and a NUL that keeps the pairs aligned
    text = bytearray(n * (width + _SLOT * c))
    buf = np.frombuffer(text, np.uint8).reshape(n, width + _SLOT * c)
    index = np.arange(n)[:, None]
    scale = _POW10_INT[digits - 1 :: -1]
    buf[:, :digits] = np.where((index >= scale) | (scale == 1), index // scale % 10 + ord("0"), 0)
    buf[:, digits] = ord(",")
    slots = buf[:, width:].reshape(n, c, _SLOT)
    slots[:, :, 46] = ord(",")
    slots[:, -1, 46] = ord("\n")

    pairs4, prefix, exponent, point = _tables()
    sure, g, e, j = _shortest(x)
    sure &= (e == 16) | (e + j < 16)  # else positional zeros past the last digit
    form = e + 11
    slots[:, :, 0] = np.signbit(x).reshape(n, c) * ord("-")
    slots[:, :, :8].view("<u8")[..., 0] |= np.take(prefix, form).reshape(n, c)
    slots[:, :, 42:46] = np.take(exponent, form, axis=0).reshape(n, c, 4)
    slots[:, :, 8:42].view("<u2")[...] = _pairs(g, j, pairs4).reshape(n, c, 17)
    start = np.arange(n)[:, None] * buf.shape[1] + width + _SLOT * np.arange(c)
    buf.reshape(-1)[start.reshape(-1) + np.take(point, form)] = ord(".")

    todo = np.flatnonzero(~sure)
    texts = np.array(list(map(repr, x[todo].tolist())), "S46")
    slots[todo // c, todo % c, :46] = texts.view(np.uint8).reshape(-1, 46)
    slots[empty // c, empty % c, :46] = 0
    return bytes(text.translate(None, b"\0"))

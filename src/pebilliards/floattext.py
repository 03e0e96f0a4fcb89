"""CSV rows of float64 tables, each cell byte for byte the ``repr`` of its float.

``repr`` prints the shortest decimal that reads back as the float and, of
those, the nearest.  `csv_rows` finds those digits for a whole table in one
array pass, in float64 and int64 only.  For a normal float64 x with decimal
exponent E = floor(log10|x|) in [-11, 16] and k = 16 - E:

* ``S = |x| 10^k`` is a pair ``hi + lo`` (Dekker's two-product), exact for
  k <= 22 and within 2^-48 above.  As S >= 1e16 > 2^53, hi is an integer,
  so ``D = floor(S) = hi + floor(lo)`` and ``r = S - D``.
* The nearest decimal of 17 - j digits is D rounded at digit j: with
  ``t = (D mod 10^j) + r`` it lies ``min(t, 10^j - t)`` from S.  It reads
  back as x when that distance is below the half gap to the neighbouring
  floats, ``H = 2^(e - 54) 10^k`` for |x| = m 2^e, 1/2 < m < 1.
* Reading back is monotone in the digit count: the text has 17 - j digits
  when 17 - j read back and 16 - j do not.

Each decision that picks the text (17 - j digits read back, 16 - j do not,
which neighbour is nearer) must clear `MARGIN`, or the cell goes to
``repr``.  So do zeros, subnormals, non-finite values, binade edges (where
the gaps differ), exponents outside [-11, 16], cells whose 16 - SHORTER
digits read back, and positional texts with zeros past the last digit.

The text is laid out as ``repr`` does it: positional for -4 <= E < 16,
``d.ddde+XX`` otherwise.  Each cell fills four 8-byte words: sign and
``0.00`` prefix, then 18 digits, exponent and separator.  The digits are
G with a zero inserted where the point goes (10 G where the prefix holds
the point), and that zero's byte is then made the point.  NUL fills what
a position does not hold; the text is the words with every NUL deleted.
"""

from __future__ import annotations

import functools

import numpy as np

from .ddouble import _split, _two_product

#: Tables of fewer cells skip the array pass, whose fixed cost is larger
#: than what it saves there, and format every cell with ``repr``.
ARRAY_PASS_CELLS = 320

#: The most digits dropped from 17 (5 at most: six digit bytes can be
#: trimmed); a cell whose 16 - SHORTER digits read back goes to ``repr``.
SHORTER = 5

#: The room each decision leaves for rounding: S mod 10^6 in double is within
#: 2^-33 (the pair within 2^-48 of S, the sum below 2^20), and H is rounded.
MARGIN = 2.0**-32

_WORDS = 4  # per slot: sign and prefix; digits 0:8; digits 8:16; digits 16:18, exponent, separator

_POW10 = np.array([10.0**k for k in range(28)])  # exact to 10^22
_POW10_SPLIT = _split(_POW10)
_POW10_REST = np.array([10**k - int(p) for k, p in enumerate(_POW10.tolist())], float)  # exact
_POW10_INT = 10 ** np.arange(18)
_DROPPED = 2 + np.bincount(np.concatenate([np.arange(0, 10_001, 10**i) for i in range(1, 5)]))  # 2 + zeros of 0..10^4


@functools.cache
def _tables():
    """Words of the ASCII digits of 0..9999, and per E (from -11) its cut, prefix and marks.

    Entries 10000 + i have the trailing zeros of i, and so every digit of 0,
    as NUL.  Built on first use, not at import.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999, most significant first
    ascii4 = digits + np.uint8(ord("0"))
    trimmed = np.where(np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0, 0, ascii4)
    words4 = np.zeros((20_000, 8), np.uint8)
    words4[:, :4] = np.concatenate([ascii4, trimmed])
    cut = np.ones(28, np.int64)  # G' = G + 9 cut (G // cut)
    prefix = np.zeros((28, 8), np.uint8)  # word 0, sign left out
    marks = np.zeros((28, 24), np.uint8)  # xor'd into words 1:4: the point, the exponent
    for form, e in enumerate(range(-11, 17)):
        if -4 <= e < 0:
            prefix[form, 1 : 2 - e] = list(b"0." + b"0" * (-e - 1))
            continue
        positional = 0 <= e < 16
        point = e + 1 if positional else 1  # digits before the point
        cut[form] = 10 ** (17 - point)
        marks[form, point] = ord("0") ^ ord(".")
        if not positional:
            marks[form, 18:22] = list(b"e%+03d" % e)
    return words4.view("<u8")[:, 0], cut, prefix.view("<u8")[:, 0], np.ascontiguousarray(marks.view("<u8").T)


def _scaled(a: np.ndarray, k: np.ndarray):
    """(hi, lo) = a 10^k: exact for k <= 22; above, within 2^-48 while a 10^k < 1e17."""
    hi, lo = _two_product(a, np.take(_POW10, k), [np.take(part, k) for part in _POW10_SPLIT])
    return hi, lo + a * np.take(_POW10_REST, k)


def _shortest(x: np.ndarray):
    """(sure, G, E, j): G = repr's digits times 10^j (17 digits), E its decimal exponent."""
    a = np.abs(x)
    sure = (a >= 1e-11) & (a < 1e17)  # no zero, subnormal, NaN or infinity
    a = np.where(sure, a, 1.0)
    mantissa, exponent = np.frexp(a)
    sure &= mantissa != 0.5  # a binade edge
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 27)
    hi, lo = _scaled(a, k)
    floor = np.floor(lo)
    d = hi.astype(np.int64) + floor.astype(np.int64)
    sure &= (d >= 10**16) & (d < 10**17)  # E was off by one at a decade edge
    high = d // 10**6
    u = (d - high * 10**6) + (lo - floor)  # S mod 10^6, within 2^-33
    half = np.ldexp(np.take(_POW10, k), exponent - 54)

    # j, the digits dropped (a guess; the decisions below check it): H < 12,
    # so at most one multiple of 100 lies within H of S; where one does j is 2
    # plus its trailing zeros, else 1 where a multiple of 10 does.
    m = np.rint(u / 100)
    tens = np.abs(u - 10 * np.rint(u / 10)) < half
    j = np.where(np.abs(u - 100 * m) < half, np.take(_DROPPED, m.astype(np.intp)), tens)

    # The decisions that pick the text, each with the margin to spare: the
    # nearest multiple of 10^j lies within H of S, and nearer than its other
    # neighbour; the nearest multiple of 10^(j+1) does not.
    p = np.take(_POW10, j)
    near = p * np.rint(u / p)
    gap = np.abs(u - near)
    sure &= (j <= SHORTER) & (gap < half - MARGIN) & (p / 2 - gap > MARGIN)
    sure &= np.abs(u - 10 * p * np.rint(u / (10 * p))) > half + MARGIN
    g = high * 10**6 + near.astype(np.int64)
    sure &= g < 10**17  # a carry to 10^(17-j): repr
    return sure, g, 16 - k, j


def _digit_words(g: np.ndarray, words4: np.ndarray) -> list[np.ndarray]:
    """The 18 digits of G' in three words, most significant first; trailing zeros as NUL."""
    high = g // 100
    last = (g - high * 100) * 100 + 10_000  # digits 16:18 as four, trimmed
    quads = []  # digits 12:16, 8:12, 4:8
    for _ in range(3):
        g, high = high, high // 10_000
        quads.append(g - high * 10_000)
    quads[0] += 10_000 * (last == 10_000)  # trimmed too when 16:18 are zeros
    return [words4[high] | words4[quads[2]] << 32, words4[quads[1]] | words4[quads[0]] << 32, words4[last]]


def csv_rows(cells: np.ndarray) -> bytes:
    """Rows ``index,cell,...`` of a float table, LF-terminated; a NaN cell is empty."""
    n, c = cells.shape
    x = np.ascontiguousarray(cells, dtype=float).reshape(-1)
    empty = np.flatnonzero(np.isnan(x))
    if x.size < ARRAY_PASS_CELLS:
        texts = list(map(repr, x.tolist()))
        for i in empty.tolist():
            texts[i] = ""
        return "".join([f"{row}\n" for row in map(",".join, zip(map(str, range(n)), *[iter(texts)] * c))]).encode()

    digits = len(str(n - 1))
    width = digits // 8 + 1  # words of the index and its comma
    text = bytearray(8 * n * (width + _WORDS * c))
    buf = np.frombuffer(text, np.uint64).reshape(n, -1)
    head = buf[:, :width].view(np.uint8)
    index = np.arange(n)[:, None]
    scale = _POW10_INT[digits - 1 :: -1]
    head[:, :digits] = np.where((index >= scale) | (scale == 1), index // scale % 10 + ord("0"), 0)
    head[:, digits] = ord(",")
    slots = buf[:, width:].reshape(n, c, _WORDS)

    words4, cut, prefix, marks = _tables()
    sure, g, e, j = _shortest(x)
    sure &= (e == 16) | (e + j < 16)  # else positional zeros past the last digit
    form = e + 11
    p = np.take(cut, form)
    g += 9 * p * (g // p)  # G': a zero digit where the point goes
    slots[:, :, 0] = (np.take(prefix, form) | np.signbit(x) * np.uint64(ord("-"))).reshape(n, c)
    for i, word in enumerate(_digit_words(g, words4)):
        slots[:, :, i + 1] = (word ^ np.take(marks[i], form)).reshape(n, c)

    todo = np.flatnonzero(~sure)
    texts = np.array(list(map(repr, x[todo].tolist())), "S31")
    chars = slots.view(np.uint8)
    chars[:, :, 31] = [ord(",")] * (c - 1) + [ord("\n")]
    chars[todo // c, todo % c, :31] = texts.view(np.uint8).reshape(-1, 31)
    chars[empty // c, empty % c, :31] = 0
    return bytes(text).translate(None, b"\0")

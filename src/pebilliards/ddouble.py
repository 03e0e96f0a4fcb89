"""Error-free transformations of float64, the steps of double-double arithmetic.

Each returns a pair ``(hi, lo)`` of doubles whose sum is the exact result:
``hi`` is the result rounded to double and ``lo`` the rounding error.  They
take Python floats or numpy arrays alike, and hold for round-to-nearest
double arithmetic without fused multiply-add (Python 3.11 has no
``math.fma``), barring overflow and underflow.

* `_split` (Veltkamp): a = hi + lo, each half of at most 26 significant bits.
* `_two_product` (Dekker 1971): a b = hi + lo.
* `_two_sum` (Knuth): a + b = hi + lo.
"""

from __future__ import annotations

_SPLITTER = 2.0**27 + 1


def _split(a):
    """(hi, lo) with a = hi + lo exactly, so that products of halves are exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, b_split=None):
    """(a b rounded, its error); pass ``b_split = _split(b)`` where b's split is tabled."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b) if b_split is None else b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """(a + b rounded, its error), for a and b of any magnitudes."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)

"""Diagonal pseudo-Euclidean linear algebra.

Signatures, indefinite inner products, causal classification of directions,
ellipsoids, ray states and diagonal quadrics.  All values are immutable
after construction and all functions are pure.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDirection

#: Relative tolerance deciding when a squared pseudo-norm counts as zero.
LIGHTLIKE_TOL = 1e-10

#: Tolerance on |Ax.x - 1| for a point to count as lying on an ellipsoid.
BOUNDARY_TOL = 1e-10


class VectorType(enum.Enum):
    """Causal type of a direction: sign of its squared pseudo-norm."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _dot(a: np.ndarray, b: np.ndarray):
    """a.b over the last axis, summed left to right from +0.

    numpy's float64 @ and norm call BLAS, whose kernel (and rounding) is
    chosen per CPU; this sum rounds alike everywhere.  A vector `a` is summed
    on Python floats, into a float; a stack of rows column by column, into
    each row's sum in the rows' precision (long double in the recorder).
    """
    columns = zip(a.tolist(), b.tolist()) if a.ndim == 1 else zip(a.T, b.T)
    total = 0.0
    for p, q in columns:
        total = total + p * q
    return total


@dataclass(frozen=True)
class Signature:
    """Metric split (p, q): p diagonal entries +1 followed by q entries -1.

    q = 0 (purely Euclidean) is accepted; there are then no non-zero
    light-like vectors.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be non-negative, got ({self.p}, {self.q})")
        if self.p + self.q < 2:
            raise ValueError(f"need p + q >= 2, got ({self.p}, {self.q})")

    @property
    def dim(self) -> int:
        return self.p + self.q

    @functools.cached_property
    def e(self) -> np.ndarray:
        """Diagonal sign vector of the metric (read-only)."""
        return _readonly([1.0] * self.p + [-1.0] * self.q)


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid sum_i x_i^2 / a_i^2 = 1 with semi-axes a_i > 0.

    Every a_i^2 and 1 / a_i^2 must be finite and non-zero, so a_i lies
    between about 1e-154 and 1e154.
    """

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        axes = tuple(float(ai) for ai in self.a)
        if len(axes) < 2:
            raise ValueError("an ellipsoid needs at least two semi-axes")
        if any(ai <= 0.0 or not np.isfinite(ai) for ai in axes):
            raise ValueError(f"semi-axes must be positive and finite, got {axes}")
        # Python floats: a square past the float range is inf or 0.0, with no numpy warning.
        if not all(0.0 < ai * ai < math.inf and 1.0 / (ai * ai) < math.inf for ai in axes):
            raise ValueError(f"semi-axes must have finite non-zero squares and reciprocal squares, got {axes}")
        object.__setattr__(self, "a", axes)

    @property
    def dim(self) -> int:
        return len(self.a)

    @functools.cached_property
    def a2(self) -> np.ndarray:
        """Squared semi-axes (read-only)."""
        return _readonly(np.array(self.a) ** 2)

    @property
    def shape_diag(self) -> np.ndarray:
        """Diagonal of the shape operator, entries 1 / a_i^2 (positive definite)."""
        return 1.0 / self.a2

    def conormal(self, x: np.ndarray) -> np.ndarray:
        """Outward conormal covector at x, componentwise x_i / a_i^2."""
        return self.shape_diag * np.asarray(x, dtype=float)

    def boundary_defect(self, x: np.ndarray) -> float:
        """Value of sum x_i^2 / a_i^2 - 1, summed left to right (_dot); zero exactly on the boundary."""
        x = np.asarray(x, dtype=float)
        return float(_dot(self.shape_diag, x * x) - 1.0)


@dataclass(frozen=True)
class RayState:
    """Position-direction pair (x, v); a based representative of an oriented line."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        x = _readonly(self.x)
        v = _readonly(self.v)
        if x.ndim != 1 or x.shape != v.shape:
            raise ValueError(f"x and v must be 1-D of equal length, got {x.shape} and {v.shape}")
        # No norm: its squares overflow past ~1e154.  A NaN v is left to the billiard guards.
        if not np.any(v):
            raise ZeroDirection("direction vector has zero Euclidean norm")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class Quadric:
    """Diagonal quadric sum_i x_i^2 / c_i = 1 with non-zero coefficients c_i.

    Coefficient signs are unrestricted; confocal-family members change
    signature as the parameter sweeps between poles.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        c = _readonly(self.c)
        if c.ndim != 1 or c.shape[0] < 2:
            raise ValueError("coefficients must be a 1-D vector of length >= 2")
        if np.any(c == 0.0) or not np.all(np.isfinite(c)):
            raise ValueError(f"coefficients must be non-zero and finite, got {c}")
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.shape[0]


def _check_dim(u: np.ndarray, n: int, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {u.shape}")
    return u


def inner(u, v, sig: Signature) -> float:
    """Indefinite inner product sum_i e_i u_i v_i for the given signature, summed left to right (_dot)."""
    u = _check_dim(u, sig.dim, "u")
    v = _check_dim(v, sig.dim, "v")
    return _dot(sig.e * u, v)


def classify_vector(v, sig: Signature) -> VectorType:
    """Classify a non-zero direction as spacelike, timelike, or lightlike.

    Lightlike means |<v,v>| <= LIGHTLIKE_TOL * |v|^2 in the auxiliary
    Euclidean norm, so the decision is scale-invariant.  Both sums are taken
    of v scaled by the power of two that brings max |v_i| into [0.5, 1),
    which is exact, so the verdict is the same at every scale and neither
    sum overflows or underflows to zero.  They run left to right (_dot), so
    the verdict does not depend on the CPU's BLAS.
    """
    v = _check_dim(v, sig.dim, "v")
    v = np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1])
    nrm2 = _dot(v, v)
    if nrm2 == 0.0:
        raise ZeroDirection("cannot classify the zero vector")
    q = inner(v, v, sig)
    if abs(q) <= LIGHTLIKE_TOL * nrm2:
        return VectorType.LIGHTLIKE
    return VectorType.SPACELIKE if q > 0.0 else VectorType.TIMELIKE


"""Exact max-plus (tropical) scalar and matrix arithmetic.

The semiring is (R ∪ {-inf}, max, +): addition ``oplus`` is max with
neutral element EPS = -inf, multiplication ``otimes`` is ordinary + with
neutral element E = 0.0.  IEEE-754 doubles represent the carrier exactly
for integer-valued inputs, and -inf obeys the null/absorption laws
natively, so no sentinel branching is needed for max.  The product still
short-circuits EPS operands so no float-addition pathology can produce
NaN.

Matrices are immutable dense wrappers over float64 arrays.  All
operations are pure and shape-checked; there is no implicit
broadcasting.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

EPS: float = float("-inf")
E: float = 0.0


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NotInvertibleError(ValueError):
    """Matrix has no max-plus multiplicative inverse."""


def oplus(x: float, y: float) -> float:
    """Semiring addition: max(x, y)."""
    return x if x >= y else y


def otimes(x: float, y: float) -> float:
    """Semiring multiplication: x + y, with EPS absorbing."""
    if x == EPS or y == EPS:
        return EPS
    return x + y


def inverse(x: float) -> float:
    """Multiplicative inverse -x of a finite scalar."""
    if x == EPS:
        raise NotInvertibleError("eps has no multiplicative inverse")
    return -x


def _as_clean_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"matrix entries must be 2-dimensional, got ndim={arr.ndim}")
    if np.isnan(arr).any() or np.isposinf(arr).any():
        raise ValueError("matrix entries must lie in R union {-inf}")
    arr.setflags(write=False)
    return arr


class MaxPlusMatrix:
    """Dense rectangular matrix over the max-plus semiring.

    Immutable after construction.  ``A + B`` is entrywise oplus,
    ``A @ B`` the max-plus product (also accepts a 1-D numpy vector on
    the right and returns a 1-D vector).
    Equality is exact on values; eps compares equal to eps.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        self._a = _as_clean_array(entries)

    # -- constructors -------------------------------------------------

    @classmethod
    def null(cls, rows: int, cols: int | None = None) -> "MaxPlusMatrix":
        """All-eps matrix (the additive zero, written script-E)."""
        if cols is None:
            cols = rows
        return cls(np.full((rows, cols), EPS))

    @classmethod
    def identity(cls, n: int) -> "MaxPlusMatrix":
        """e on the diagonal, eps elsewhere."""
        a = np.full((n, n), EPS)
        np.fill_diagonal(a, E)
        return cls(a)

    @classmethod
    def diag(cls, values: Iterable[float]) -> "MaxPlusMatrix":
        v = np.asarray(list(values), dtype=np.float64)
        n = v.size
        a = np.full((n, n), EPS)
        a[np.arange(n), np.arange(n)] = v
        return cls(a)

    # -- shape and access ---------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __getitem__(self, idx):
        return self._a[idx]

    def readonly(self) -> np.ndarray:
        """The underlying read-only array (no copy)."""
        return self._a

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot add shapes {self.shape} and {other.shape}")
        return MaxPlusMatrix(np.maximum(self._a, other._a))

    def __matmul__(
        self, other: Union["MaxPlusMatrix", np.ndarray]
    ) -> Union["MaxPlusMatrix", np.ndarray]:
        if isinstance(other, MaxPlusMatrix):
            if self.cols != other.rows:
                raise ShapeError(
                    f"cannot multiply shapes {self.shape} and {other.shape}"
                )
            if self.cols == 0:
                return MaxPlusMatrix.null(self.rows, other.cols)
            prod = self._a[:, :, None] + other._a[None, :, :]
            return MaxPlusMatrix(prod.max(axis=1))
        vec = np.asarray(other, dtype=np.float64)
        if vec.ndim != 1 or vec.size != self.cols:
            raise ShapeError(
                f"cannot apply shape {self.shape} to vector of length {vec.size}"
            )
        if self.cols == 0:
            return np.full(self.rows, EPS)
        return matvec(self._a, vec)

    def scale(self, scalar: float) -> "MaxPlusMatrix":
        """Scalar multiplication: add ``scalar`` to every finite entry."""
        if scalar == EPS:
            return MaxPlusMatrix.null(self.rows, self.cols)
        return MaxPlusMatrix(self._a + scalar)

    def diag_inverse(self) -> "MaxPlusMatrix":
        """Inverse of a diagonal matrix with finite diagonal."""
        if self.rows != self.cols:
            raise ShapeError("diagonal inverse requires a square matrix")
        n = self.rows
        d = np.diagonal(self._a)
        if np.isneginf(d).any():
            raise NotInvertibleError("diagonal entry eps has no inverse")
        off = self._a.copy()
        off[np.arange(n), np.arange(n)] = EPS
        if not np.isneginf(off).all():
            raise NotInvertibleError("matrix is not diagonal")
        return MaxPlusMatrix.diag(-d)

    def is_null(self) -> bool:
        return bool(np.isneginf(self._a).all())

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    __hash__ = None

    def __repr__(self) -> str:
        return f"MaxPlusMatrix({self._a.tolist()!r})"


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-plus matrix-vector product on raw arrays."""
    return (a + v[None, :]).max(axis=1)

"""Implicit linear equations x = A (x) x (+) b for nilpotent A.

A square matrix A is nilpotent when some power A^p is the all-eps
matrix; ``nilpotency_index`` finds the least such p.  The equation then
has the unique solution x = A* (x) b, where A* = E (+) A (+) ... (+)
A^(p-1) is the truncated star sum ``star_truncated(A, p)`` (Lemma 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MaxPlusMatrix, ShapeError


@dataclass(frozen=True)
class NilpotencyCertificate:
    """Outcome of a bounded nilpotency search.

    ``index`` is the least p with A^p all-eps, or None when no such p
    exists up to ``bound``.
    """

    index: int | None
    bound: int

    @property
    def nilpotent(self) -> bool:
        return self.index is not None


def nilpotency_index(A: MaxPlusMatrix, bound: int | None = None) -> NilpotencyCertificate:
    """Search for the least p <= bound with A^p = all-eps.

    Power iteration is deliberate: orders stay small here and it
    mirrors the algebraic definition.  A precedence-graph acyclicity
    check would be the asymptotic improvement if ever needed.
    """
    if A.rows != A.cols:
        raise ShapeError("nilpotency is defined for square matrices only")
    if bound is None:
        bound = A.rows
    if bound < 1:
        raise ValueError("bound must be >= 1")
    power = A
    for p in range(1, bound + 1):
        if power.is_null():
            return NilpotencyCertificate(index=p, bound=bound)
        power = power @ A
    return NilpotencyCertificate(index=None, bound=bound)


def star_truncated(A: MaxPlusMatrix, p: int) -> MaxPlusMatrix:
    """Finite star sum E (+) A (+) ... (+) A^(p-1)."""
    if A.rows != A.cols:
        raise ShapeError("star sum is defined for square matrices only")
    if p < 1:
        raise ValueError("truncation order must be >= 1")
    out = MaxPlusMatrix.identity(A.rows)
    power = MaxPlusMatrix.identity(A.rows)
    for _ in range(p - 1):
        power = power @ A
        out = out + power
    return out

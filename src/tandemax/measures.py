"""Sojourn and waiting times of customers in open tandem systems.

Sojourn times are departure epochs referenced to the arrival-stream
epoch d_1(k); waiting times strip the accumulated service times back
out.  Both admit linear max-plus recursions
s(k) = U_k (x) s(k-1) and w(k) = V_{k,k-1} (x) w(k-1) that this module
builds alongside the direct definitions, so the two routes can be
cross-checked exactly.

For blocking systems the waiting figures include server blocking time
as well; callers should label them accordingly.  They are >= 0 in every
open variant, and ``trajectory_waiting`` checks that within the float
contract.
"""

from __future__ import annotations

import numpy as np

from .core import EPS, MaxPlusMatrix
from .models import ServiceTimes, _check_tau


class ReferenceEpochError(ValueError):
    """d_1(k) is eps, so sojourn times are undefined."""


class MeasureConsistencyError(ValueError):
    """A derived measure violated a structural constraint of the model."""


def sojourn_direct(d_k: np.ndarray) -> np.ndarray:
    """s_i(k) = d_i(k) - d_1(k), along the last axis of one or more d(k)."""
    d = np.asarray(d_k, dtype=np.float64)
    if (d[..., 0] == EPS).any():
        raise ReferenceEpochError("reference epoch d_1(k) is eps")
    return d - d[..., :1]


def sojourn_matrix(t_k: MaxPlusMatrix, tau_1k: float) -> MaxPlusMatrix:
    """U_k = tau_1k^-1 (x) T_k, driving s(k) = U_k (x) s(k-1)."""
    if tau_1k == EPS:
        raise ValueError("interarrival time must be finite")
    return t_k.scale(-tau_1k)


def waiting_scale_matrix(tau_k) -> MaxPlusMatrix:
    """Diagonal matrix of cumulative service prefixes tau_1 (x) ... (x) tau_i."""
    v = _check_tau(tau_k)
    return MaxPlusMatrix.diag(np.cumsum(v))


def waiting_transition(t_k: MaxPlusMatrix, tau_k, tau_prev) -> MaxPlusMatrix:
    """V_{k,k-1} = tau_{1,k-1}^-1 (x) P_k^-1 (x) T_k (x) P_{k-1}."""
    v_k = _check_tau(tau_k)
    v_prev = _check_tau(tau_prev)
    p_k_inv = waiting_scale_matrix(v_k).diag_inverse()
    p_prev = waiting_scale_matrix(v_prev)
    return (p_k_inv @ t_k @ p_prev).scale(-v_prev[0])


def trajectory_sojourn(states: np.ndarray, n: int | None = None) -> np.ndarray:
    """Sojourn vectors of the rows of states after its first: k = 1..K of a
    ``Trajectory``'s table, or a streamed block.  ``n`` is unused."""
    return sojourn_direct(states[1:])


def trajectory_waiting(states: np.ndarray, tau: ServiceTimes | np.ndarray) -> np.ndarray:
    """Waiting vectors for k = 1..K (``_waiting``), tau the run's
    ``ServiceTimes`` or n x K matrix.  As d_i(k) >= d_{i-1}(k) + tau_ik in
    every open variant, a w below -``tau.rounding_gap`` is a bug: it raises."""
    tau = tau if isinstance(tau, ServiceTimes) else ServiceTimes(tau)
    w = _waiting(trajectory_sojourn(states), tau.tau)
    lows = _Records()
    for k0 in range(0, len(w), 256):  # -w in row blocks: no second K x n table
        lows.add(-w[k0:k0 + 256], range(k0 + 1, len(w) + 1))
    _check_lows(lows, tau.rounding_gap(states[1:]))
    return w


def _waiting(w: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The block formula, over the sojourn rows w (``trajectory_sojourn``)
    in place: for those customers and their tau, w_1(k) = 0 and
    w_i(k) = s_i(k) - (tau_2k + ... + tau_ik).  Returns w."""
    # station sums one row at a time, added in cumsum's order; -0.0 + x is x
    run = np.full(tau.shape[1], -0.0)
    for i in range(1, len(tau)):
        run += tau[i]
        w[:, i] -= run
    w[:, 0] = 0.0
    return w


class _Records(list):
    """The records (x, k, i, *cells) of a table x fed in row blocks: each
    cell of x above 0 and above every cell before it, row-major, with the
    cells there of the tables fed alongside.  So the first cell past a
    bound known only at the end is one of them, and the last is the
    row-major first largest; NaN never is."""

    def add(self, x: np.ndarray, ks, *tables: np.ndarray) -> None:
        """Feed the rows x, of customers ks[0], ks[1], ..., and tables of its shape."""
        best = self[-1][0] if self else 0.0  # the records so far rise strictly
        if not x.max() <= best:  # one reduction when no cell is a record
            at = np.flatnonzero(x > best)
            v = x.ravel()[at]
            keep = v > np.concatenate(([best], np.maximum.accumulate(v)[:-1]))
            at, n = at[keep], x.shape[1]
            self += zip(v[keep].tolist(), [ks[r] for r in (at // n).tolist()],
                        (at % n + 1).tolist(), *(t.ravel()[at].tolist() for t in tables))

    def past(self, bound: float) -> tuple | None:
        """The first record above bound, if any."""
        return next((r for r in self if r[0] > bound), None)


def _check_lows(lows: _Records, gap: float) -> None:
    """Raise for the row-major first w below -gap, from the records of -w."""
    low = lows.past(gap)
    if low:
        x, k, i = low
        raise MeasureConsistencyError(f"negative waiting time w_{i}({k}) = {-x}")

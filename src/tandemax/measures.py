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

from .core import EPS, MaxPlusMatrix, rounding_gap
from .models import _check_tau


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


def trajectory_sojourn(states: np.ndarray, n: int) -> np.ndarray:
    """Sojourn vectors for k = 1..K from the raw state rows.

    ``states`` is the (K + 1) x n departure table of a ``Trajectory``:
    d(k) in row k, row 0 the initial state.
    """
    return sojourn_direct(states[1:, :n])


def trajectory_waiting(states: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Waiting vectors for k = 1..K; tau is the n x K service matrix.

    w_1(k) = 0; w_i(k) = s_i(k) - (tau_2k + ... + tau_ik).  Every open
    variant has d_i(k) >= d_{i-1}(k) + tau_ik, since blocking only adds
    time, so an entry below zero by more than the float contract's
    rounding gap (``core.rounding_gap``) signals a model bug and raises.
    """
    n = tau.shape[0]
    w = trajectory_sojourn(states, n)
    w[:, 1:] -= np.cumsum(tau[1:], axis=0).T
    w[:, 0] = 0.0
    bad = np.argwhere(w < -rounding_gap(tau, states[1:, :n]))
    if bad.size:
        k, i = bad[0]
        raise MeasureConsistencyError(f"negative waiting time w_{i + 1}({k + 1}) = {w[k, i]}")
    return w

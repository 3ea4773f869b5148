"""Transition-matrix builders for tandem single-server queueing systems.

Each variant of the tandem system admits a linear state recursion
d(k) = T_k (x) d(k-1) over the max-plus semiring, where d(k) collects
the k-th departure epochs and T_k is built from the service-time vector
tau_k.  Variants:

  closed          customers recirculate, c customers initially per station
  open_infinite   external arrival stream at station 1, infinite buffers
  open_mfg        finite buffers, manufacturing blocking
  open_comm       finite buffers, communication blocking

Finite buffers of capacity b (and closed populations c >= 2) need the
history d(k-2), ..., so their recursions are made first-order by
stacking past state vectors; the transition matrix then acts on an
augmented state of b+1 (resp. c) blocks of n entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import E, EPS, MaxPlusMatrix

VARIANTS = ("closed", "open_infinite", "open_mfg", "open_comm")
_BLOCKING = ("open_mfg", "open_comm")


class ModelConfigError(ValueError):
    """Unsupported or inconsistent model configuration."""


@dataclass(frozen=True)
class TandemSpec:
    """Topology and horizon of a tandem system.

    ``population`` is the per-station initial customer count c (closed
    variant only); ``buffer_capacity`` is the per-station buffer size b
    for stations 2..n (blocking variants only).  Both are uniform
    across stations; the scalar oracle could handle heterogeneous
    values but the matrix derivations assume uniformity, so mixed
    values are rejected here.

    Every run starts from d(0) = e, the all-zero vector: with no input
    term, d(k) = T_k (x) d(k-1) maps an all-eps d(0) to all-eps d(k).
    """

    variant: str
    n: int
    horizon: int
    population: int = 1
    buffer_capacity: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.n < 1:
            raise ModelConfigError("station count n must be >= 1")
        if self.horizon < 1:
            raise ModelConfigError("horizon K must be >= 1")
        if self.variant == "closed":
            if self.population < 1:
                raise ModelConfigError("closed variant needs population c >= 1")
            if self.n < 2:
                raise ModelConfigError("closed variant needs n >= 2")
        else:
            if self.population != 1:
                raise ModelConfigError("population applies to the closed variant only")
        if self.variant in _BLOCKING:
            if self.buffer_capacity < 0:
                raise ModelConfigError("buffer capacity b must be >= 0")
            if self.n < 2:
                raise ModelConfigError("blocking variants need n >= 2")
        elif self.buffer_capacity != 0:
            raise ModelConfigError("buffer_capacity applies to blocking variants only")

    @property
    def arity(self) -> int:
        """Length of the (possibly augmented) state vector."""
        if self.variant == "closed":
            return self.population * self.n
        if self.variant in _BLOCKING:
            return (self.buffer_capacity + 1) * self.n
        return self.n


@dataclass(frozen=True)
class ServiceTimes:
    """Service times tau[i-1, k-1] for station i = 1..n, customer k = 1..K.

    For open variants row 1 holds the interarrival times of the
    external stream.
    """

    tau: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        if tau.ndim != 2:
            raise ModelConfigError("service times must form an n x K matrix")
        if not np.isfinite(tau).all() or (tau < 0).any():
            raise ModelConfigError("service times must be finite and >= 0")
        tau.setflags(write=False)
        object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def horizon(self) -> int:
        return self.tau.shape[1]

    def column(self, k: int) -> np.ndarray:
        """Service vector of customer k (1-based)."""
        return self.tau[:, k - 1]


def _check_tau(tau_k) -> np.ndarray:
    v = np.asarray(tau_k, dtype=np.float64)
    if v.ndim != 1:
        raise ModelConfigError("service vector must be 1-dimensional")
    if not np.isfinite(v).all() or (v < 0).any():
        raise ModelConfigError("service times must be finite and >= 0")
    return v


def shift_matrix(kind: str, n: int) -> MaxPlusMatrix:
    """Routing shifts: F (circular subdiagonal), G (subdiagonal), GT.

    F routes station i-1 -> i with wraparound n -> 1 (closed systems);
    G is the acyclic subdiagonal (open systems); GT its transpose.
    """
    if n < 1:
        raise ModelConfigError("shift matrix needs n >= 1")
    a = np.full((n, n), EPS)
    if kind == "F":
        for i in range(1, n):
            a[i, i - 1] = 0.0
        a[0, n - 1] = 0.0
    elif kind == "G":
        for i in range(1, n):
            a[i, i - 1] = 0.0
    elif kind == "GT":
        for i in range(1, n):
            a[i - 1, i] = 0.0
    else:
        raise ModelConfigError(f"unknown shift kind {kind!r}")
    return MaxPlusMatrix(a)


def service_diag(tau_k) -> MaxPlusMatrix:
    """Diagonal matrix of the service vector."""
    return MaxPlusMatrix.diag(_check_tau(tau_k))


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """D[i, j] = tau_i + tau_{i-1} + ... + tau_j for i >= j, eps above:
    S_k (x) T_k with S_k = (T_k (x) G)*, summed in the star's order
    D[i, j] = D[i, j+1] + tau_j, so it equals the star product bit for bit.
    A sum that overflows to +inf is a configuration error."""
    lower = np.tri(v.size, dtype=bool)
    # adding e gives a -0.0 sum the sign the star products give it
    with np.errstate(over="ignore"):
        d = np.cumsum(np.where(lower, v, 0.0)[:, ::-1], axis=1)[:, ::-1] + E
    if np.isposinf(d).any():
        raise ModelConfigError("a prefix sum of the service times overflows float64")
    d[~lower] = EPS
    return d


def _companion(first: np.ndarray, last: np.ndarray, blocks: int) -> MaxPlusMatrix:
    """Companion form of a recursion of order ``blocks`` in n-vectors: top
    block row (first, eps, ..., eps, last), which is first (+) last when
    there is one block, identity blocks on the block subdiagonal that
    shift the history down, eps elsewhere."""
    n = first.shape[0]
    m = blocks * n
    a = np.full((m, m), EPS)
    a[:n, :n] = first
    np.maximum(a[:n, m - n :], last, out=a[:n, m - n :])
    rows = np.arange(n, m)
    a[rows, rows - n] = E
    return MaxPlusMatrix(a)


def transition_open_infinite(tau_k) -> MaxPlusMatrix:
    """Open tandem with infinite buffers: the prefix sums D, summed from i
    down to j as the star S_k (x) T_k sums them.  The blocking matrices are
    written from the same D, so all open variants add tau in one order."""
    return MaxPlusMatrix(_prefix_sums(_check_tau(tau_k)))


def transition_mfg_b0(tau_k) -> MaxPlusMatrix:
    """Manufacturing blocking, zero buffers: the open_mfg transition with
    b = 0, the infinite-buffer matrix with the first superdiagonal raised
    to e."""
    return build_transition(TandemSpec("open_mfg", np.size(tau_k), horizon=1), tau_k)


def transition_comm_b0(tau_k) -> MaxPlusMatrix:
    """Communication blocking, zero buffers: the open_comm transition with
    b = 0, column j >= 2 the max of infinite-buffer columns j and j-1."""
    return build_transition(TandemSpec("open_comm", np.size(tau_k), horizon=1), tau_k)


def build_transition(spec: TandemSpec, tau_k) -> MaxPlusMatrix:
    """Transition matrix for one customer step, dispatched on the spec.

    The result is square of order spec.arity and acts on the (possibly
    augmented) state vector.  The open variants are written from one
    prefix-sum table D = S_k (x) T_k, and the closed and blocking ones are
    companion forms whose top block row holds T_k or D and the feedback.

    Closed, c >= 1 customers per station: state (d(k), ..., d(k-c+1)),
    top block row (T_k, eps, ..., eps, T_k (x) F); for c = 1 the one
    block is T_k (+) T_k (x) F.  Blocking with buffer capacity b >= 0:
    state (d(k), ..., d(k-b)), top block row (S_k (x) T_k, eps, ...,
    feedback) with S_k the truncated star of T_k (x) G and the feedback
    S_k (x) GT (open_mfg) or S_k (x) T_k (x) GT (open_comm); for b = 0
    the one block is S_k (x) T_k (+) feedback.
    """
    v = _check_tau(tau_k)
    if v.size != spec.n:
        raise ModelConfigError(
            f"service vector length {v.size} != station count {spec.n}"
        )
    n = v.size
    if spec.variant == "closed":
        first = np.full((n, n), EPS)
        np.fill_diagonal(first, v)
        # T_k (x) F: row i takes tau_i from its predecessor, i - 1 mod n
        return _companion(first, np.roll(first, -1, axis=1) + E, spec.population)
    d = _prefix_sums(v)
    if spec.variant == "open_infinite":
        return MaxPlusMatrix(d)
    feedback = np.full((n, n), EPS)
    if spec.variant == "open_mfg":
        # S_k (x) GT: S_k (e on the diagonal, D[i, j+1] below) shifted right
        feedback[:, 1:] = d[:, 1:]
        feedback[np.arange(n - 1), np.arange(1, n)] = E
    else:
        # S_k (x) T_k (x) GT: D shifted one column right
        feedback[:, 1:] = d[:, :-1]
    return _companion(d, feedback, spec.buffer_capacity + 1)

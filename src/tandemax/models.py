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

import functools
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
    """Service times tau[i-1, k-1] for station i = 1..n, customer k = 1..K,
    and the float contract they set (``exact``, ``rounding_gap``).

    For open variants row 1 holds the interarrival times of the
    external stream.
    """

    tau: np.ndarray

    def __post_init__(self):
        tau = _check_tau(self.tau, ndim=2)
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

    @functools.cached_property
    def exact(self) -> bool:
        """True when tau is integer-valued and sums to less than 2**53:
        every partial sum of tau, every difference of two such sums and
        every departure is then an exact integer, so routes that add tau
        in different orders agree bit for bit.  Evaluated at most once.  A
        total that overflows to +inf is past 2**53."""
        tau = self.tau
        # checked in blocks of 2**16 cells (512 KiB temporaries), or one row
        # when a row is longer: no temporary as large as a big tau
        rows = max(1, 2**16 // max(1, self.horizon))
        blocks = (tau[i:i + rows] for i in range(0, self.n, rows))
        with np.errstate(over="ignore"):
            return all((np.rint(b) == b).all() for b in blocks) and bool(tau.sum() < 2.0**53)

    def rounding_gap(self, d: np.ndarray) -> float:
        """Largest gap of two routes that sum tau in different orders to d."""
        return _rounding_gap(self.n, self.horizon, d, self.exact)


def _rounding_gap(n: int, horizon: int, d: np.ndarray, exact: bool) -> float:
    """The float contract's one rule: 0 for exact tau (``ServiceTimes.exact``),
    else (n + K) * u * max|d| over finite d with u = 2**-53, as each d sums at
    most n + K terms (Higham, "The accuracy of floating point summation", SISC 1993)."""
    if exact:
        return 0.0
    d = np.asarray(d, dtype=np.float64)
    # max|d| as max(max d, -min d): no temporary as large as d, and a
    # finite mask only when eps, inf or NaN cells must be skipped
    hi, lo = float(d.max(initial=0.0)), float(d.min(initial=0.0))
    if not (np.isfinite(hi) and np.isfinite(lo)):
        finite = np.isfinite(d)
        hi = float(d.max(where=finite, initial=0.0))
        lo = float(d.min(where=finite, initial=0.0))
    return (n + horizon) * 2.0**-53 * max(0.0, hi, -lo)


def _check_tau(tau, ndim: int = 1) -> np.ndarray:
    """tau as a float64 array, a service vector (ndim 1) or the n x K
    matrix (ndim 2), every entry finite and >= 0: the one validity rule
    for service times, shared by ``ServiceTimes`` and the 1-D builders.
    Two reductions: NaN fails both comparisons, and ``initial`` lets an
    empty array pass."""
    v = np.asarray(tau, dtype=np.float64)
    if v.ndim != ndim:
        raise ModelConfigError(f"service times must be {ndim}-dimensional, got ndim={v.ndim}")
    if not (v.min(initial=0.0) >= 0 and v.max(initial=0.0) < np.inf):
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


_SUM_OVERFLOW = "a prefix sum of the service times overflows float64"


@functools.lru_cache(maxsize=8)
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n masks of i >= j and of i < j, read-only, kept for the last 8 n."""
    lower = np.tri(n, dtype=bool)
    upper = ~lower
    lower.setflags(write=False)
    upper.setflags(write=False)
    return lower, upper


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """D[..., i, j] = tau_i + tau_{i-1} + ... + tau_j for i >= j, eps above,
    for each service vector in v (..., n): S_k (x) T_k with
    S_k = (T_k (x) G)*, summed in the star's order D[i, j] = D[i, j+1] +
    tau_j, so it equals the star product bit for bit.  A sum that
    overflows is left +inf, for the caller to report."""
    lower, upper = _triangles(v.shape[-1])
    # adding e gives a -0.0 sum the sign the star products give it
    with np.errstate(over="ignore"):
        d = np.cumsum(np.where(lower, v[..., None, :], 0.0)[..., ::-1], axis=-1)[..., ::-1] + E
    d[..., upper] = EPS
    return d


def _top_row(first: np.ndarray, last: np.ndarray, blocks: int) -> np.ndarray:
    """Top block row of the companion form of a recursion of order
    ``blocks`` in n-vectors, for each n x n pair in first and last
    (..., n, n): (first, eps, ..., eps, last), which is first (+) last
    when there is one block, (..., n, blocks * n)."""
    n = first.shape[-1]
    top = np.full(first.shape[:-1] + (blocks * n,), EPS)
    top[..., :n] = first
    np.maximum(top[..., -n:], last, out=top[..., -n:])
    return top


def _transitions(spec: TandemSpec, v: np.ndarray) -> np.ndarray:
    """The top block row of ``build_transition``'s T_k for each service
    vector in v: (..., n) service times in, (..., n, m) float64 out, m =
    spec.arity, the rows T_k writes; the rows below only copy the history
    down.  Nothing is checked, raised or warned: a row whose prefix sum
    overflowed, or that read a +inf service time, holds +inf, which the
    caller reports (``_SUM_OVERFLOW``) before any product reads it."""
    n = spec.n
    if spec.variant == "closed":
        first = np.where(np.eye(n, dtype=bool), v[..., None, :], EPS)
        # T_k (x) F: row i takes tau_i from its predecessor, i - 1 mod n
        return _top_row(first, np.roll(first, -1, axis=-1) + E, spec.population)
    d = _prefix_sums(v)
    if spec.variant == "open_infinite":
        return d
    feedback = np.full(d.shape, EPS)
    if spec.variant == "open_mfg":
        # S_k (x) GT: S_k (e on the diagonal, D[i, j+1] below) shifted right
        feedback[..., 1:] = d[..., 1:]
        feedback[..., np.arange(n - 1), np.arange(1, n)] = E
    else:
        # S_k (x) T_k (x) GT: D shifted one column right
        feedback[..., 1:] = d[..., :-1]
    return _top_row(d, feedback, spec.buffer_capacity + 1)


def _checked(a: np.ndarray) -> MaxPlusMatrix:
    """One raw transition matrix, or the error for its overflowed prefix sum."""
    if np.isposinf(a).any():
        raise ModelConfigError(_SUM_OVERFLOW)
    return MaxPlusMatrix(a)


def transition_open_infinite(tau_k) -> MaxPlusMatrix:
    """Open tandem with infinite buffers: the prefix sums D, summed from i
    down to j as the star S_k (x) T_k sums them.  The blocking matrices are
    written from the same D, so all open variants add tau in one order."""
    return _checked(_prefix_sums(_check_tau(tau_k)))


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

    Its top block row is ``_transitions`` on one checked service vector,
    which the engine runs on a stack of them; the identity blocks below it
    (row n + j holds e in column j) are written here only.
    """
    v = _check_tau(tau_k)
    if v.size != spec.n:
        raise ModelConfigError(
            f"service vector length {v.size} != station count {spec.n}"
        )
    top = _transitions(spec, v)
    m = spec.arity
    return _checked(np.vstack([top, np.where(np.eye(m - spec.n, m, dtype=bool), E, EPS)]))

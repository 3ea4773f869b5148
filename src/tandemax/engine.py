"""State-recursion execution strategies and the scalar reference oracle.

All strategies evaluate d(k) = T_k (x) d(k-1) for k = 1..K and must
produce bit-identical trajectories; they differ in evaluation schedule
and in which operation counter they charge.  The max reduction is exact
and order-free, so any schedule yields the same floats.  The sums are
made once, in one order: every T_k is written from the prefix sums
D[i, j] = D[i, j+1] + tau_j, the order of the star S_k = (T_k (x) G)*,
so runs of different variants on shared float tau keep the model's
exact ordering d_comm >= d_mfg >= d_inf.

Counter conventions follow the dense-triangular accounting of the
serial algorithm: building the infinite-buffer matrix charges one
product per triangular entry written, n(n+1)/2 per step (each entry is
one addition to its right neighbour, the diagonal loads included), and
the triangular product charges n(n+1)/2 products plus n(n-1)/2
maximizations, n^2 in total.
Operations on eps operands are charged like any other; only the sparse
closed-system path specializes the count (2n per step).

``oracle_lindley`` recomputes departures from the ordinary scalar
max/+ recursions, independent of all matrix machinery, and accepts any
buffer capacity b >= 0 and population c >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EPS, matvec
from .models import ModelConfigError, ServiceTimes, TandemSpec, build_transition


@dataclass
class OpLedger:
    """Exact operation accounting for one simulation run.

    ``vector_ops`` is the Algorithm-2 unit (whole-row shift, vector
    add, or one recursive-doubling stage); ``parallel_ops`` the
    Algorithm-3 unit.  ``memory_cells`` is the peak working set in
    cells, reported but never asserted.
    """

    scalar_oplus: int = 0
    scalar_otimes: int = 0
    vector_build_ops: int = 0
    vector_reduce_ops: int = 0
    parallel_ops: int = 0
    steps: int = 0
    batches: int = 0
    memory_cells: int = 0

    @property
    def vector_ops(self) -> int:
        return self.vector_build_ops + self.vector_reduce_ops

    @property
    def scalar_ops(self) -> int:
        return self.scalar_oplus + self.scalar_otimes


@dataclass
class Trajectory:
    """State vectors d(k) for k = 0..K (row k) plus the op ledger."""

    states: np.ndarray
    spec: TandemSpec
    ledger: OpLedger = field(default_factory=OpLedger)
    strategy: str = "serial"

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def departures(self) -> np.ndarray:
        """d(k) for k = 1..K, augmented history columns dropped."""
        return self.states[1:, : self.spec.n]


def _check_inputs(spec: TandemSpec, tau: ServiceTimes) -> None:
    if tau.n != spec.n or tau.horizon != spec.horizon:
        raise ModelConfigError(
            f"service-time matrix is {tau.n} x {tau.horizon}, "
            f"spec wants {spec.n} x {spec.horizon}"
        )


def initial_state(spec: TandemSpec) -> np.ndarray:
    """d(0) in augmented form: live block per the spec convention,
    history blocks eps (no departures before time zero)."""
    d0 = np.full(spec.arity, EPS)
    if spec.initial_state == "zero":
        d0[: spec.n] = 0.0
    return d0


def _tri(m: int) -> int:
    return m * (m + 1) // 2


def simulate_serial(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Scalar-processor schedule: build T_k, then the triangular (or
    dense, for augmented variants) matrix-vector product."""
    _check_inputs(spec, tau)
    m = spec.arity
    n = spec.n
    K = spec.horizon
    states = np.empty((K + 1, m))
    states[0] = initial_state(spec)
    ledger = OpLedger()
    open_inf = spec.variant == "open_infinite"
    for k in range(1, K + 1):
        t_k = build_transition(spec, tau.column(k))
        states[k] = matvec(t_k.readonly(), states[k - 1])
        ledger.steps += 1
        if open_inf:
            ledger.scalar_otimes += _tri(n) + _tri(n)
            ledger.scalar_oplus += _tri(n) - n
        else:
            ledger.scalar_otimes += m * m
            ledger.scalar_oplus += m * (m - 1)
    ledger.memory_cells = _tri(n) + 2 * n if open_inf else m * m + 2 * m
    return Trajectory(states, spec, ledger, strategy="serial")


def simulate_closed_sparse(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Closed c = 1 fast path exploiting the two-entries-per-row
    structure: d_i(k) = tau_ik (x) (d_pred(i)(k-1) (+) d_i(k-1))."""
    if spec.variant != "closed" or spec.population != 1:
        raise ModelConfigError("sparse path requires the closed variant with c = 1")
    _check_inputs(spec, tau)
    n = spec.n
    K = spec.horizon
    states = np.empty((K + 1, n))
    states[0] = initial_state(spec)
    ledger = OpLedger()
    for k in range(1, K + 1):
        prev = states[k - 1]
        states[k] = tau.column(k) + np.maximum(prev, np.roll(prev, 1))
        ledger.steps += 1
        ledger.scalar_oplus += n
        ledger.scalar_otimes += n
    ledger.memory_cells = 3 * n
    return Trajectory(states, spec, ledger, strategy="sparse-closed")


def _doubling_max(segment: np.ndarray) -> tuple[float, int]:
    """Max of a segment by recursive doubling; returns (max, stages)."""
    s = segment.copy()
    m = s.size
    stages = 0
    while m > 1:
        h = m // 2
        s[:h] = np.maximum(s[:h], s[m - h : m])
        m -= h
        stages += 1
    return s[0], stages


def simulate_vectorized(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Vector-processor schedule: whole-row shifts build T_k, then per
    element one vector add and a recursive-doubling max.

    For the open-infinite variant row i only needs its first i entries;
    augmented variants reduce over the full row.
    """
    _check_inputs(spec, tau)
    m = spec.arity
    K = spec.horizon
    states = np.empty((K + 1, m))
    states[0] = initial_state(spec)
    ledger = OpLedger()
    open_inf = spec.variant == "open_infinite"
    for k in range(1, K + 1):
        t = build_transition(spec, tau.column(k)).readonly()
        ledger.vector_build_ops += m
        prev = states[k - 1]
        for i in range(m):
            width = i + 1 if open_inf else m
            seg = t[i, :width] + prev[:width]
            ledger.vector_reduce_ops += 1
            states[k, i], stages = _doubling_max(seg)
            ledger.vector_reduce_ops += stages
        ledger.steps += 1
    ledger.memory_cells = (_tri(m) if open_inf else m * m) + 2 * m
    return Trajectory(states, spec, ledger, strategy="vector")


def simulate_batched(spec: TandemSpec, tau: ServiceTimes, processors: int) -> Trajectory:
    """SIMD schedule in ceil(K/P) batches: each batch builds its P
    transition matrices up front (independent, parallelizable), then
    applies them to the state in customer order with one row per
    processor (2m parallel operations per vector)."""
    if processors < 1:
        raise ModelConfigError("processor count must be >= 1")
    _check_inputs(spec, tau)
    m = spec.arity
    K = spec.horizon
    states = np.empty((K + 1, m))
    states[0] = initial_state(spec)
    ledger = OpLedger()
    k = 1
    while k <= K:
        batch = range(k, min(k + processors - 1, K) + 1)
        mats = [build_transition(spec, tau.column(j)).readonly() for j in batch]
        ledger.parallel_ops += _tri(m)
        for j, t in zip(batch, mats):
            states[j] = matvec(t, states[j - 1])
            ledger.parallel_ops += 2 * m
            ledger.steps += 1
        ledger.batches += 1
        k += processors
    ledger.memory_cells = processors * (_tri(m) if spec.variant == "open_infinite" else m * m) + 2 * m
    return Trajectory(states, spec, ledger, strategy="batched")


def oracle_lindley(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Ground-truth departures from the ordinary scalar recursions.

    Keeps the full departure history so blocking terms d_{i+1}(k-b-1)
    and closed arrivals d_{i-1}(k-c) resolve for any b >= 0, c >= 1.
    References to k < 0 are eps (no departures before start); k = 0 is
    the initial-state vector.
    """
    _check_inputs(spec, tau)
    n = spec.n
    K = spec.horizon
    init = 0.0 if spec.initial_state == "zero" else EPS
    hist = np.empty((K + 1, n))
    hist[0] = init

    def past(i: int, k: int) -> float:
        return EPS if k < 0 else hist[k, i]

    t = tau.tau
    b = spec.buffer_capacity
    c = spec.population
    for k in range(1, K + 1):
        cur = hist[k]
        if spec.variant == "closed":
            for i in range(n):
                a = past(i - 1 if i else n - 1, k - c)
                cur[i] = max(a, past(i, k - 1)) + t[i, k - 1]
        elif spec.variant == "open_infinite":
            for i in range(n):
                a = EPS if i == 0 else cur[i - 1]
                cur[i] = max(a, past(i, k - 1)) + t[i, k - 1]
        elif spec.variant == "open_mfg":
            for i in range(n):
                a = EPS if i == 0 else cur[i - 1]
                served = max(a, past(i, k - 1)) + t[i, k - 1]
                if i < n - 1:
                    served = max(served, past(i + 1, k - b - 1))
                cur[i] = served
        else:  # open_comm
            for i in range(n):
                a = EPS if i == 0 else cur[i - 1]
                start = max(a, past(i, k - 1))
                if i < n - 1:
                    start = max(start, past(i + 1, k - b - 1))
                cur[i] = start + t[i, k - 1]
    return Trajectory(hist, spec, OpLedger(steps=K), strategy="oracle")


STRATEGIES = ("serial", "sparse-closed", "vector", "batched")


def simulate(
    spec: TandemSpec, tau: ServiceTimes, strategy: str = "serial", processors: int = 1
) -> Trajectory:
    """Dispatch over the execution strategies."""
    if strategy == "serial":
        return simulate_serial(spec, tau)
    if strategy == "sparse-closed":
        return simulate_closed_sparse(spec, tau)
    if strategy == "vector":
        return simulate_vectorized(spec, tau)
    if strategy == "batched":
        return simulate_batched(spec, tau, processors)
    raise ModelConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

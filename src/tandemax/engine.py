"""State-recursion execution strategies and the scalar reference oracle.

Every strategy evaluates d(k) = T_k (x) d(k-1) for k = 1..K; they differ
in evaluation schedule and in which operation counter they charge.  A
trajectory holds the departures d(0..K) only, n columns for every
variant: the augmented history of earlier rows that makes the blocking
and closed recursions first order lives in the serial kernel's ring, or
in the dense routes' state vector, never in the trajectory.

``serial`` runs open_infinite on exact tau (``core.is_exact``: integer
valued, total below 2**53) as one max-plus prefix scan per station, a
cumsum and a maximum.accumulate over the K customers; every sum is then
exact, so the order of the additions does not matter.  Every other run
takes the factored form of T_k, O(m) per customer: S_k (x) y as a
prefix recursion, G and GT as shifts, and the augmented identity blocks
as a ring of past states.  Distributing tau_ik over the max folds the
product and the prefix recursion into one pass over the stations, one
running value per station, which performs the same additions in the
same order as the scalar recursion.  Either way serial equals the
oracle bit for bit, on float tau as well, and runs of different
variants on shared float tau keep d_comm >= d_mfg >= d_inf exactly.
``vector`` and ``batched`` run one dense kernel, the product with the
T_k of ``models.build_transition``, the paper's specification, and
differ only in the counters they charge.  They equal serial exactly on
integer-valued tau; on float tau they add in another order and agree
within the float contract ``core.rounding_gap``.

The counters are the paper's cost model, charged by formula, not the
work a schedule does: the vector schedule's recursive-doubling stages
are counted, not executed, and serial charges the dense-triangular
accounting of the serial algorithm.
Building the infinite-buffer matrix charges one product per triangular
entry written, n(n+1)/2 per step (each entry is one addition to its
right neighbour, the diagonal loads included), and the triangular
product charges n(n+1)/2 products plus n(n-1)/2 maximizations, n^2 in
total; augmented variants charge a dense m x m product.
Operations on eps operands are charged like any other; only the sparse
closed-system path specializes the count (2n per step).

``oracle_lindley`` recomputes departures from the ordinary scalar
max/+ recursions, one station at a time on Python floats, looking back
through a ring of the last ``lag`` rows (b+1 for blocking, c for
closed).  It is independent of all matrix machinery, the factored
kernel included, and accepts any buffer capacity b >= 0 and population
c >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EPS, is_exact, matvec
from .models import ModelConfigError, ServiceTimes, TandemSpec, build_transition


@dataclass
class OpLedger:
    """Exact operation accounting for one simulation run.

    ``vector_ops`` is the Algorithm-2 unit (whole-row shift, vector
    add, or one recursive-doubling stage); ``parallel_ops`` the
    Algorithm-3 unit.  ``memory_cells`` is the peak working set in
    cells of the schedule the ledger models, not of the kernel that ran.
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
    """Departures d(k) for k = 0..K (row k, n columns; row 0 is the
    initial state) plus the op ledger.  The augmented history of the
    blocking and closed variants is not stored."""

    states: np.ndarray
    spec: TandemSpec
    ledger: OpLedger = field(default_factory=OpLedger)
    strategy: str = "serial"

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def departures(self) -> np.ndarray:
        """d(k) for k = 1..K."""
        return self.states[1:]


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


def _dense_cells(spec: TandemSpec) -> int:
    """Cells of one dense T_k: the triangle for open_infinite, else m x m."""
    m = spec.arity
    return _tri(m) if spec.variant == "open_infinite" else m * m


# Customers per block: the serial kernel and the oracle read tau and
# write their states one block at a time, so no K x n table of Python
# floats is ever held.
_BLOCK = 256


def _factored_steps(spec: TandemSpec, tau: ServiceTimes) -> np.ndarray:
    """Departures d(0..K), a (K+1) x n array, by the factored form of T_k:
    one pass over the stations per customer instead of a dense m x m
    build and product.

    Open variants: d(k) = S_k (x) y, with y = tau_k (x) d(k-1) plus the
    blocking feedback and S_k = (T_k (x) G)* the prefix recursion
    z_i = y_i (+) tau_ik (x) z_{i-1}.  Distributing tau_ik over the max
    folds both into one running value per station; with p = d_i(k-1) and
    q = d_{i+1}(k-b-1), z_i = (z_{i-1} (+) p) (x) tau_ik (infinite
    buffers), (z_{i-1} (+) p (+) q) (x) tau_ik (communication) or
    (z_{i-1} (+) p) (x) tau_ik (+) q (manufacturing).  Closed: d(k) =
    T_k (x) (d(k-1) (+) F (x) d(k-c)).  The augmented identity blocks are
    a ring of the last b+1 (or c) departure rows, eps before k = 0; the
    augmented history exists only there.

    Each entry takes one max and adds tau_ik once, the additions of the
    scalar recursion in its order, so the result equals ``oracle_lindley``
    bit for bit on float tau as well.
    """
    n = spec.n
    K = spec.horizon
    variant = spec.variant
    closed = variant == "closed"
    lag = spec.population if closed else spec.buffer_capacity + 1
    states = np.empty((K + 1, n))
    states[0] = initial_state(spec)[:n]
    never = [EPS] * n
    ring = [states[0].tolist()] + [never] * (lag - 1)
    for k0 in range(0, K, _BLOCK):
        rows = []
        for k, tk in enumerate(tau.tau[:, k0 : k0 + _BLOCK].T.tolist(), k0 + 1):
            prev = ring[(k - 1) % lag]
            old = ring[k % lag]  # d(k - lag)
            if closed:
                feed = old[-1:] + old[:-1]
                y = [t + (p if p >= q else q) for t, p, q in zip(tk, prev, feed)]
            else:
                y, z = [], EPS
                if variant == "open_infinite":
                    for t, p in zip(tk, prev):
                        z = (p if p > z else z) + t
                        y.append(z)
                elif variant == "open_comm":
                    for t, p, q in zip(tk, prev, old[1:] + never[:1]):
                        z = p if p > z else z
                        z = (q if q > z else z) + t
                        y.append(z)
                else:  # open_mfg
                    for t, p, q in zip(tk, prev, old[1:] + never[:1]):
                        z = (p if p > z else z) + t
                        if q > z:
                            z = q
                        y.append(z)
            ring[k % lag] = y
            rows.append(y)
        states[k0 + 1 : k0 + 1 + len(rows)] = rows
    return states


def _prefix_scan(spec: TandemSpec, tau: ServiceTimes) -> np.ndarray:
    """Departures d(0..K) of open_infinite, a (K+1) x n array, by one
    max-plus prefix scan per station (Greenberg, Lubachevsky & Mitrani,
    "Algorithms for unboundedly parallel simulations", ACM TOCS 1991).

    Station i is the Lindley recursion d_i(k) = (a_k (+) d_i(k-1)) (x)
    tau_ik with arrivals a_k = d_{i-1}(k), eps for station 1.  Unrolled
    over k, with C_k = tau_i1 + ... + tau_ik and C_0 = 0,
    d_i(k) = C_k + max(d_i(0), max_{j <= k} (a_j - C_{j-1})): one cumsum
    and one maximum.accumulate per station, on K-vectors only.  It adds
    in another order from the scalar recursion, so it equals
    ``_factored_steps`` only when every sum is exact: callers take it
    only when ``is_exact(tau)``.
    """
    K = spec.horizon
    states = np.empty((K + 1, spec.n))
    states[0] = initial_state(spec)[: spec.n]
    c = np.zeros(K + 1)  # C_0..C_K
    d = np.full(K, EPS)  # a_1..a_K, then d_i(1..K)
    x = np.empty(K)
    for i, row in enumerate(tau.tau):
        np.cumsum(row, out=c[1:])
        np.subtract(d, c[:-1], out=x)
        np.maximum.accumulate(x, out=x)
        np.maximum(x, states[0, i], out=x)
        np.add(c[1:], x, out=d)
        states[1:, i] = d
    return states


def simulate_serial(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Scalar-processor schedule.  Open_infinite on exact tau
    (``core.is_exact``) runs as a per-station prefix scan; every other
    run takes the factored per-step kernel.  Both equal the oracle bit
    for bit.

    The ledger charges the paper's cost model of the dense serial
    algorithm (build T_k, then the triangular, or dense for augmented
    variants, matrix-vector product), not the kernel's own work."""
    _check_inputs(spec, tau)
    m = spec.arity
    n = spec.n
    K = spec.horizon
    if spec.variant == "open_infinite" and is_exact(tau.tau):
        states = _prefix_scan(spec, tau)
    else:
        states = _factored_steps(spec, tau)
    ledger = OpLedger(steps=K, memory_cells=_dense_cells(spec) + 2 * m)
    if spec.variant == "open_infinite":
        ledger.scalar_otimes = K * (_tri(n) + _tri(n))
        ledger.scalar_oplus = K * (_tri(n) - n)
    else:
        ledger.scalar_otimes = K * m * m
        ledger.scalar_oplus = K * m * (m - 1)
    return Trajectory(states, spec, ledger, strategy="serial")


def simulate_closed_sparse(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Closed c = 1 on the factored kernel, whose step is then the
    two-entries-per-row form d_i(k) = tau_ik (x) (d_i(k-1) (+)
    d_pred(i)(k-1)); the ledger charges those 2n operations per step."""
    if spec.variant != "closed" or spec.population != 1:
        raise ModelConfigError("sparse path requires the closed variant with c = 1")
    _check_inputs(spec, tau)
    n = spec.n
    K = spec.horizon
    states = _factored_steps(spec, tau)
    ledger = OpLedger(scalar_oplus=K * n, scalar_otimes=K * n, steps=K, memory_cells=3 * n)
    return Trajectory(states, spec, ledger, strategy="sparse-closed")


def _overflow(k: int, i: int) -> ModelConfigError:
    """The error for departure d_{i+1}(k), which overflowed float64 to +inf."""
    return ModelConfigError(f"departure d_{i + 1}({k}) overflows float64")


def _dense_steps(spec: TandemSpec, tau: ServiceTimes) -> np.ndarray:
    """Departures d(0..K), a (K+1) x n array, by the dense product
    d(k) = T_k (x) d(k-1) on the augmented state, one m-vector; each step
    stores its first n entries.  The kernel of ``vector`` and ``batched``.

    Stops at the first step whose live block holds +inf, which every
    later product would carry on as nan; the history blocks are copies
    of earlier live blocks, so +inf cannot appear there first."""
    state = initial_state(spec)
    states = np.empty((spec.horizon + 1, spec.n))
    states[0] = state[: spec.n]
    for k in range(1, spec.horizon + 1):
        state = matvec(build_transition(spec, tau.column(k)).readonly(), state)
        states[k] = state[: spec.n]
        over = np.isposinf(states[k])
        if over.any():
            raise _overflow(k, int(over.argmax()))
    return states


def simulate_vectorized(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Vector-processor schedule (Algorithm 2) on the dense kernel.

    The ledger charges, per step, m whole-row shifts to build T_k, and
    per row one vector add plus the ceil(log2 w) stages of a
    recursive-doubling max over its w entries: w = i for row i = 1..m
    of the open-infinite variant, w = m for augmented variants.  The
    stages are counted, not executed.
    """
    _check_inputs(spec, tau)
    m = spec.arity
    K = spec.horizon
    widths = range(1, m + 1) if spec.variant == "open_infinite" else [m] * m
    ledger = OpLedger(
        vector_build_ops=K * m,
        vector_reduce_ops=K * sum(1 + (w - 1).bit_length() for w in widths),
        steps=K,
        memory_cells=_dense_cells(spec) + 2 * m,
    )
    return Trajectory(_dense_steps(spec, tau), spec, ledger, strategy="vector")


def simulate_batched(spec: TandemSpec, tau: ServiceTimes, processors: int) -> Trajectory:
    """SIMD schedule (Algorithm 3) in ceil(K/P) batches, on the dense
    kernel.  The ledger charges each batch m(m+1)/2 parallel operations
    to build its P transition matrices up front (independent, one per
    processor), and each step 2m to apply its matrix, one row per
    processor; the working set holds one batch, min(P, K) matrices."""
    if processors < 1:
        raise ModelConfigError("processor count must be >= 1")
    _check_inputs(spec, tau)
    m = spec.arity
    K = spec.horizon
    batches = -(-K // processors)
    ledger = OpLedger(
        parallel_ops=batches * _tri(m) + 2 * m * K,
        steps=K,
        batches=batches,
        memory_cells=min(processors, K) * _dense_cells(spec) + 2 * m,
    )
    return Trajectory(_dense_steps(spec, tau), spec, ledger, strategy="batched")


def oracle_lindley(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Ground-truth departures from the ordinary scalar recursions.

    Runs on Python floats, customer by customer and station by station.
    The blocking terms d_{i+1}(k-b-1) and closed arrivals d_{i-1}(k-c)
    come from a ring of the last ``lag`` rows (b+1, or c), so any
    b >= 0, c >= 1 resolves.  References to k < 0 are eps (no departures
    before start); k = 0 is the initial-state vector.  Each max(a, b)
    is written ``b if b > a else a``: CPython's ``max`` returns b only
    when b > a, so this is the same function, ties of +-0.0 and NaN
    included, without a call per cell.
    """
    _check_inputs(spec, tau)
    n = spec.n
    K = spec.horizon
    variant = spec.variant
    init = 0.0 if spec.initial_state == "zero" else EPS
    hist = np.empty((K + 1, n))
    hist[0] = init
    lag = spec.population if variant == "closed" else spec.buffer_capacity + 1
    ring = [[init] * n] + [[EPS] * n] * (lag - 1)  # row j at ring[j % lag]
    for k0 in range(0, K, _BLOCK):
        rows = []
        for k, t in enumerate(tau.tau[:, k0 : k0 + _BLOCK].T.tolist(), k0 + 1):
            prev = ring[(k - 1) % lag]
            old = ring[k % lag]  # row k - lag
            if variant == "closed":
                # station i's arrival d_{i-1}(k-c); station 1's is d_n(k-c)
                arrival = old[-1:] + old[:-1]
                cur = [(p if p > a else a) + ti for a, p, ti in zip(arrival, prev, t)]
            else:
                cur = []
                a = EPS
                if variant == "open_infinite":
                    for ti, p in zip(t, prev):
                        a = (p if p > a else a) + ti
                        cur.append(a)
                elif variant == "open_mfg":
                    # q = d_{i+1}(k-b-1), eps past the last station: max(x, eps) is x
                    for ti, p, q in zip(t, prev, old[1:] + [EPS]):
                        a = (p if p > a else a) + ti
                        a = q if q > a else a
                        cur.append(a)
                else:  # open_comm
                    for ti, p, q in zip(t, prev, old[1:] + [EPS]):
                        a = p if p > a else a
                        a = (q if q > a else a) + ti
                        cur.append(a)
            ring[k % lag] = cur
            rows.append(cur)
        hist[k0 + 1 : k0 + 1 + len(rows)] = rows
    return Trajectory(hist, spec, OpLedger(steps=K), strategy="oracle")


STRATEGIES = ("serial", "sparse-closed", "vector", "batched")


def simulate(
    spec: TandemSpec, tau: ServiceTimes, strategy: str = "serial", processors: int = 1
) -> Trajectory:
    """Dispatch over the execution strategies.  A departure that
    overflows float64 to +inf is a configuration error (eps is legal),
    reported here, or by the dense kernel at the step it happens, rather
    than as a numpy warning: the overflow itself, or the eps + inf = nan
    of a dense product that reads it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if strategy == "serial":
            traj = simulate_serial(spec, tau)
        elif strategy == "sparse-closed":
            traj = simulate_closed_sparse(spec, tau)
        elif strategy == "vector":
            traj = simulate_vectorized(spec, tau)
        elif strategy == "batched":
            traj = simulate_batched(spec, tau, processors)
        else:
            raise ModelConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    over = np.argwhere(np.isposinf(traj.states))
    if over.size:
        raise _overflow(*over[0])
    return traj

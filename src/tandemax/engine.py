"""State-recursion execution strategies and the scalar reference oracle.

Every strategy evaluates d(k) = T_k (x) d(k-1) for k = 1..K; a strategy
selects only the cost model it charges, not the kernel that runs.  A
trajectory holds the departures d(0..K) only, n columns for every
variant: the augmented state (d(k-1), ..., d(k-lag)) that makes the
blocking and closed recursions first order is the table's own earlier
rows, which the scalar loop reads back at each block of customers
(closed keeps a ring) and ``_state`` for the T_k check.

``simulate`` is the one place that runs a strategy.  It applies the
strategy and array-size rules (``check_strategy``, which the CLI's
config parser and ``bench`` apply too), runs the one kernel of the
variant that ``_kernel`` picks and charges the strategy's cost model
(``_ledger``).  That kernel is ``_lindley``, the oracle's own scalar
loop, one max/+ cell per departure with, for the open variants, no
Python work per customer; or, for open_infinite on exact tau, a prefix
scan equal to it.  So every strategy's table is the oracle's, on float
tau as well, and runs of different variants on shared float tau keep
d_comm >= d_mfg >= d_inf exactly.  The loop takes tau through a
``memoryview`` and gives departures back through ``np.fromiter``; the
overflow check is one ``max`` unless a departure overflowed.

``oracle_lindley`` runs ``_lindley``, the ordinary scalar max/+
recursions, independent of all matrix machinery.  The paper's T_k of
``models.build_transition`` stays the specification every run is
checked against: ``tandemax validate`` multiplies the top block row of
T_k (``_tops``, ``_step``) with the oracle's augmented state
(``_state``) at up to 3 k per trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .core import EPS, matvec
from .models import _SUM_OVERFLOW, ModelConfigError, ServiceTimes, TandemSpec, _transitions


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
    """Departures d(k) for k = 0..K (row k, n columns; row 0 is
    d(0) = e) plus the op ledger.  The augmented state of the blocking
    and closed variants is not stored: it is rows k-1, ..., k-lag."""

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
    """d(0) = e: every station empty at time zero.  The history before
    it, the augmented blocks d(-1), ..., is eps (no departures before
    time zero), so a lag past K + 1 reads eps only."""
    return np.zeros(spec.n)


def _tri(m: int) -> int:
    return m * (m + 1) // 2


# Customers per block: the scalar loop reads tau and writes its states
# one block at a time, so no K x n table of Python floats is ever held.
_BLOCK = 256


def _rows(table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of a table, each followed by one eps cell, as one flat
    C-order float64 array; eps for rows before 0."""
    rows = np.full((hi - lo, table.shape[1] + 1), EPS)
    if hi > 0:
        rows[max(-lo, 0):, :-1] = table[max(lo, 0):hi]
    return rows.ravel()


def _lindley(spec: TandemSpec, tau: ServiceTimes) -> np.ndarray:
    """Departures d(0..K), a (K+1) x n array, from the ordinary scalar
    max/+ recursions, on Python floats: the one scalar loop of each
    variant, run by ``oracle_lindley`` and by every strategy unless
    ``_kernel`` picks the scan.

    With p = d_i(k-1), q = d_{i+1}(k-b-1) and z the departure of the
    station before, d_i(k) = (z (+) p) (x) tau_ik (infinite buffers),
    (z (+) p (+) q) (x) tau_ik (communication) or (z (+) p) (x) tau_ik (+) q
    (manufacturing); closed, (d_{i-1}(k-c) (+) p) (x) tau_ik.  Each max(a, b)
    is written ``b if b > a else a``: CPython's ``max`` returns b only
    when b > a, so this is the same function, ties of +-0.0 and NaN
    included, without a call per cell.

    Blocks of _BLOCK customers, and in the open variants no Python work
    per customer.  tau is read through a ``memoryview``, one Python float
    per cell as it is consumed, and the new cells leave by ``np.fromiter``.
    open_infinite runs one zip per station into a station-major block.
    open_mfg and open_comm run one flat loop over the block's cells, each
    row followed by an eps cell whose tau is eps, which restarts z at
    station 1.  Each cell is appended to a list seeded with the history
    rows, the last lag = b+1 (at most K+1) read back from the table, eps
    before k = 0 (past a block of look-back, only the rows q reads); p and
    q iterate that list one row and lag rows less one cell behind.  Closed
    keeps its last c rows in a ring.

    The eps cell of open_mfg holds d_1(k-b), not eps.  That is harmless:
    d never holds -0.0 and is nondecreasing in k and i, so as z of
    station 1 (against p = d_1(k)) and as q of station n (against
    z >= d_1(k+b)) it loses the max or ties bit for bit.  After a
    departure overflows, eps cells make inf + -inf = NaN, but only after
    the row-major first +inf, which ``simulate`` names.
    """
    n, K = spec.n, spec.horizon
    variant = spec.variant
    lag = min(spec.arity // n, K + 1)
    states = np.empty((K + 1, n))
    states[0] = initial_state(spec)
    if variant == "closed":
        ring = [states[0].tolist()] + [[EPS] * n] * (lag - 1)  # row j at ring[j % lag]
    for k0 in range(0, K, _BLOCK):
        k1 = min(k0 + _BLOCK, K)
        block = tau.tau[:, k0:k1]
        if variant == "closed":
            tk = iter(memoryview(block.T.ravel()))
            rows = []
            for k in range(k0 + 1, k1 + 1):
                prev = ring[(k - 1) % lag]
                old = ring[k % lag]  # d(k - c)
                # station i's arrival d_{i-1}(k-c); station 1's is d_n(k-c)
                feed = old[-1:] + old[:-1]
                # tk last, so zip stops at prev's end without taking a cell
                y = [t + (p if p >= q else q) for p, q, t in zip(prev, feed, tk)]
                ring[k % lag] = y
                rows.append(y)
            cells = np.fromiter(chain.from_iterable(rows), np.float64, (k1 - k0) * n)
            states[k0 + 1 : k1 + 1] = cells.reshape(-1, n)
        elif variant == "open_infinite":
            y = [EPS] * (k1 - k0)  # the departures before station 1: eps
            out = np.empty((n, k1 - k0))
            for i, (tk, p) in enumerate(zip(block, states[k0].tolist())):
                zs, y = y, []
                append = y.append
                for t, z in zip(memoryview(tk), zs):
                    p = (p if p > z else z) + t
                    append(p)
                out[i] = y
            states[k0 + 1 : k1 + 1] = out.T
        else:
            w = n + 1
            tk = memoryview(_rows(block.T, 0, k1 - k0))
            # from d(k0+1-lag), at most _BLOCK + 1 rows for q, then d(k0) for p
            out = (_rows(states, k0 + 1 - lag, min(k0, k1 + 2 - lag)).tolist()
                   + _rows(states, k0, k0 + 1).tolist())
            start = len(out)
            ps, qs = iter(out), iter(out)
            next(islice(ps, start - w, start - w), None)  # at d_1(k0)
            next(qs)  # at d_2(k0+1-lag)
            append, z = out.append, EPS
            if variant == "open_mfg":
                for t, p, q in zip(tk, ps, qs):
                    z = (p if p > z else z) + t
                    z = q if q > z else z
                    append(z)
            else:  # open_comm
                for t, p, q in zip(tk, ps, qs):
                    z = p if p > z else z
                    z = (q if q > z else z) + t
                    append(z)
            cells = np.fromiter(islice(out, start, None), np.float64, (k1 - k0) * w)
            states[k0 + 1 : k1 + 1] = cells.reshape(-1, w)[:, :n]
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
    ``_lindley`` only when every sum is exact: ``_kernel`` takes it only
    when ``tau.exact``.
    """
    K = spec.horizon
    states = np.empty((K + 1, spec.n))
    states[0] = initial_state(spec)
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


def _overflow(k: int, i: int) -> ModelConfigError:
    """The error for departure d_{i+1}(k), which overflowed float64 to +inf."""
    return ModelConfigError(f"departure d_{i + 1}({k}) overflows float64")


def _state(spec: TandemSpec, states: np.ndarray, k: int) -> np.ndarray:
    """The augmented state T_k acts on, (d(k-1), ..., d(k-lag)) with
    lag = m / n, the rows read from the departure table ``states``, eps
    before k = 0."""
    lag = spec.arity // spec.n
    if k >= lag:
        return states[k - lag:k][::-1].ravel()
    state = np.full((lag, spec.n), EPS)
    state[:k] = states[k - 1::-1]  # d(k-1), ..., d(0)
    return state.ravel()


def _step(top: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d(k), the first n entries of T_k (x) x, by the paper's state
    equation from the top block row of T_k, for each top (..., n, m) and
    augmented state x (..., m); raises ``_SUM_OVERFLOW`` first when a top
    holds a prefix sum that overflowed.  The identity blocks below the
    top row only copy x down, so this is the full product's d(k)."""
    if top.max() == np.inf:
        raise ModelConfigError(_SUM_OVERFLOW)
    return matvec(top, x)


def _tops(spec: TandemSpec, tau: np.ndarray, cols) -> np.ndarray:
    """The top rows (``models._transitions``) of T_k, k - 1 in cols, for each
    grid in tau (..., n, K): (..., len(cols), n, m).  Raises and warns on nothing."""
    return _transitions(spec, np.swapaxes(tau[..., cols], -1, -2))


def oracle_lindley(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    """Ground-truth departures from the ordinary scalar recursions
    (``_lindley``), for any buffer capacity b >= 0 and population c >= 1."""
    _check_inputs(spec, tau)
    return Trajectory(_lindley(spec, tau), spec, OpLedger(steps=spec.horizon), strategy="oracle")


STRATEGIES = ("serial", "sparse-closed", "vector", "batched")


def check_strategy(spec: TandemSpec, strategy: str, processors: int) -> None:
    """The strategy rules and the array-size rule, which ``simulate``,
    the CLI's config parser and its ``bench`` all apply.  numpy raises
    ValueError, not MemoryError, for an array whose byte count passes its
    index type, so the (K+1) x n float64 table of departures is checked
    before any array is made.  ``vector`` and ``batched`` also keep the
    rule for the m x m transition matrix their cost model charges,
    though no run builds it: a huge m stays a configuration error for
    them, and ``bench`` stops an n past it before ``_log2_factorial``
    would sum n terms."""
    if strategy not in STRATEGIES:
        raise ModelConfigError(f"'strategy' must be one of {STRATEGIES}")
    if strategy == "sparse-closed" and (spec.variant != "closed" or spec.population != 1):
        raise ModelConfigError("strategy 'sparse-closed' requires the closed variant with c = 1")
    if processors < 1:
        raise ModelConfigError("'processors' must be >= 1")
    largest = np.iinfo(np.intp).max
    if (spec.horizon + 1) * spec.n * 8 > largest:
        raise ModelConfigError(f"n x K = {spec.n} x {spec.horizon} cells do not fit in memory "
                               "(more than numpy's largest array)")
    m = spec.arity
    if strategy in ("vector", "batched") and m * m * 8 > largest:
        raise ModelConfigError(f"m x m = {m} x {m} transition-matrix cells do not fit in memory "
                               "(more than numpy's largest array)")


def _ledger(spec: TandemSpec, strategy: str, processors: int) -> OpLedger:
    """The paper's cost model of one run, charged by formula, not the
    work of the kernel that ran: ``simulate`` charges it to every run,
    and the CLI's op report and ``bench`` read it without running
    anything.  A dense T_k is a triangle of m(m+1)/2 cells for
    open_infinite, else m x m.

    serial: the dense serial algorithm, build T_k, then the triangular
    (or, for augmented variants, dense) matrix-vector product.  Building
    the infinite-buffer matrix charges one product per triangular entry
    written, n(n+1)/2 per step (each entry is one addition to its right
    neighbour, the diagonal loads included), and the triangular product
    n(n+1)/2 products plus n(n-1)/2 maximizations, n^2 in total;
    augmented variants charge a dense m x m product.  Operations on eps
    operands are charged like any other.

    sparse-closed: the two-entries-per-row step of closed c = 1,
    d_i(k) = tau_ik (x) (d_i(k-1) (+) d_pred(i)(k-1)), 2n per step.

    vector (Algorithm 2): per step, m whole-row shifts to build T_k, and
    per row one vector add plus the ceil(log2 w) stages of a
    recursive-doubling max over its w entries: w = i for row i = 1..m of
    open_infinite, w = m for augmented variants.  The stages are
    counted, not executed: sum_{w=1..m} ceil(log2 w) = mL - 2^L + 1
    with L = ceil(log2 m), since ceil(log2 w) = j for the 2^(j-1) rows
    w = 2^(j-1)+1..2^j, j < L, and = L for the last m - 2^(L-1).

    batched (Algorithm 3), ceil(K/P) batches: each batch m(m+1)/2
    parallel operations to build its P transition matrices up front
    (independent, one per processor), and each step 2m to apply its
    matrix, one row per processor; the working set holds one batch,
    min(P, K) matrices.
    """
    m, n, K = spec.arity, spec.n, spec.horizon
    infinite = spec.variant == "open_infinite"
    cells = _tri(m) if infinite else m * m
    if strategy == "sparse-closed":
        return OpLedger(scalar_oplus=K * n, scalar_otimes=K * n, steps=K, memory_cells=3 * n)
    if strategy == "serial":
        oplus, otimes = (_tri(n) - n, 2 * _tri(n)) if infinite else (m * (m - 1), m * m)
        return OpLedger(scalar_oplus=K * oplus, scalar_otimes=K * otimes,
                        steps=K, memory_cells=cells + 2 * m)
    if strategy == "vector":
        L = (m - 1).bit_length()
        stages = m * L - 2**L + 1 if infinite else m * L
        return OpLedger(vector_build_ops=K * m, vector_reduce_ops=K * (m + stages),
                        steps=K, memory_cells=cells + 2 * m)
    batches = -(-K // processors)
    return OpLedger(parallel_ops=batches * _tri(m) + 2 * m * K, steps=K, batches=batches,
                    memory_cells=min(processors, K) * cells + 2 * m)


@functools.cache
def _log2_factorial(n: int) -> float:
    """log2(n!), summed left to right: O(n), so a sweep takes it once per n."""
    return sum(math.log2(i) for i in range(1, n + 1))


def _paper_formulas(n: int, K: int, P: int) -> dict:
    """The paper's idealized counts of the open-infinite tandem with n
    stations, K customers and P processors, which no ledger charges: the
    vector reduction n + log2(n!) per step and K times it per run, the
    batched count L(n(n+1)/2 + 2Pn) with L = ceil(K/P) (the ledger's
    when P divides K), and the speedup formulas S_v and S_P."""
    log2_fact = _log2_factorial(n)
    return {
        "vector_step": n + log2_fact,
        "vector_run": K * n + K * log2_fact,
        "batched": -(-K // P) * (_tri(n) + 2 * P * n),
        "sv": n * (3 * n + 1) / (log2_fact / 2 + n),
        "sp": 3 * P / 5,
    }


def _kernel(spec: TandemSpec, tau: ServiceTimes) -> str:
    """The kernel every strategy runs: ``"scan"`` for open_infinite when
    ``tau.exact`` (decided once per tau), else ``"recursion"``, the
    oracle's own loop."""
    if spec.variant == "open_infinite" and tau.exact:
        return "scan"
    return "recursion"


def simulate(
    spec: TandemSpec, tau: ServiceTimes, strategy: str = "serial", processors: int = 1
) -> Trajectory:
    """Run one strategy: check its rules and tau's shape, run the
    variant's kernel (``_kernel``) and charge the strategy's cost model;
    ``processors`` reaches only the cost model.  A departure that
    overflows float64 to +inf is a configuration error (eps is legal),
    reported here rather than as a numpy overflow warning."""
    check_strategy(spec, strategy, processors)
    _check_inputs(spec, tau)
    with np.errstate(over="ignore"):
        states = (_prefix_scan if _kernel(spec, tau) == "scan" else _lindley)(spec, tau)
    if not states.max() < np.inf:  # NaN too: eps cells after an overflow hold NaN
        over = np.argwhere(np.isposinf(states))
        if over.size:
            raise _overflow(*over[0])
    return Trajectory(states, spec, _ledger(spec, strategy, processors), strategy)


# One entry point per strategy, for callers that name it.
def simulate_serial(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    return simulate(spec, tau, "serial")


def simulate_closed_sparse(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    return simulate(spec, tau, "sparse-closed")


def simulate_vectorized(spec: TandemSpec, tau: ServiceTimes) -> Trajectory:
    return simulate(spec, tau, "vector")


def simulate_batched(spec: TandemSpec, tau: ServiceTimes, processors: int) -> Trajectory:
    return simulate(spec, tau, "batched", processors)

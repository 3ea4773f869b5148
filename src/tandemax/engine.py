"""State-recursion execution strategies and the scalar reference oracle.

Every strategy evaluates d(k) = T_k (x) d(k-1) for k = 1..K; a strategy
selects only the cost model it charges (``_ledger``), not the kernel that
runs.  A trajectory holds the departures d(0..K) only, n columns for
every variant.  The recursion is first order in the augmented state
(d(k-1), ..., d(k-lag)), so a run goes on from a ``_Carry``, its last lag
rows and the running exactness of its tau.  ``_step_block`` advances it
over a block of customers with the variant's one kernel (``_kernel``):
``_lindley``, the oracle's own scalar loop, or, for open_infinite while
tau is exact, a prefix scan equal to it.  So every strategy's table is
the oracle's, on float tau too, and runs of different variants on
shared float tau keep d_comm >= d_mfg >= d_inf exactly.

``simulate`` and ``oracle_lindley`` (which never scans and uses no matrix
code) take one step over all K customers, the CLI's ``simulate`` and
``validate`` one per chunk.  The paper's T_k of ``models.build_transition``
stays the specification: ``validate`` multiplies the top block row of T_k
(``_tops``, ``_step``) with the oracle's augmented state (``_state``) at
up to 3 k per trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import NamedTuple

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


class _Carry(NamedTuple):
    """A run so far: its last lag = min(m / n, K + 1) rows of d, eps before 0,
    ``ServiceTimes.exact`` of its tau (False stays False), summing to ``total``,
    and k, its customers.  Only the oracle's is untracked: exact False, k None."""

    rows: np.ndarray
    exact: bool = False
    total: float = 0.0
    k: int | None = None


def _start(spec: TandemSpec, track: bool = False) -> _Carry:
    """The carry at k = 0: d(0) = ``initial_state`` under lag - 1 eps rows."""
    rows = np.full((min(spec.arity // spec.n, spec.horizon + 1), spec.n), EPS)
    rows[-1] = initial_state(spec)
    return _Carry(rows, track, k=0 if track else None)


def _step_block(spec: TandemSpec, carry: _Carry, tau: ServiceTimes) -> tuple[_Carry, np.ndarray]:
    """Step the carry after k0 over customers k0+1..k1, whose service times
    are tau; returns the carry after k1, its rows a copy (no view keeps the
    table alive), and the rows d(k0..k1).  It scans only while all tau so far
    is exact, giving ``_lindley``'s bits; if tracked, it names an overflow."""
    exact, total, k = carry.exact, carry.total, carry.k
    if exact:
        exact = tau.exact and bool((total := total + tau.tau.sum()) < 2.0**53)
    lag = len(carry.rows)
    kernel = _prefix_scan if _kernel(spec, exact) == "scan" else _lindley
    table = kernel(spec, carry.rows, tau.tau)
    if k is not None:
        _check_overflow(table[lag - 1:], k)
        k += tau.horizon
    return _Carry(table[-lag:].copy(), exact, total, k), table[lag - 1:]


def _rows(table: np.ndarray) -> np.ndarray:
    """The rows of a table, each followed by one eps cell, flat."""
    rows = np.full((len(table), table.shape[1] + 1), EPS)
    rows[:, :-1] = table
    return rows.ravel()


def _lindley(spec: TandemSpec, hist: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The carry's rows hist, then the departures of the customers of tau,
    from the ordinary scalar max/+ recursions on Python floats: the one
    scalar loop of each variant, which ``oracle_lindley`` runs.

    With p = d_i(k-1), q = d_{i+1}(k-b-1) and z the departure of the
    station before, d_i(k) = (z (+) p) (x) tau_ik (infinite buffers),
    (z (+) p (+) q) (x) tau_ik (communication) or (z (+) p) (x) tau_ik (+) q
    (manufacturing); closed, (d_{i-1}(k-c) (+) p) (x) tau_ik.  Each max(a, b)
    is written ``b if b > a else a``: CPython's ``max`` returns b only
    when b > a, so this is the same function, ties of +-0.0 and NaN
    included, without a call per cell.

    Blocks of _BLOCK customers, and in the open variants no Python work
    per customer: tau comes in through a ``memoryview``, the new cells
    leave by ``np.fromiter``.  open_infinite runs one zip per station.
    open_mfg and open_comm run one flat loop over the block's cells, each
    row followed by an eps cell whose tau is eps, which restarts z at
    station 1.  Each cell is appended to a list seeded with the lag = b+1
    (at most K+1) history rows q reads and d(k0); p and q iterate that
    list one row and lag rows less one cell behind.  Closed keeps its
    last c rows in a ring.

    The eps cell of open_mfg holds d_1(k-b), not eps.  That is harmless:
    d never holds -0.0 and is nondecreasing in k and i, so as z of
    station 1 (against p = d_1(k)) and as q of station n (against
    z >= d_1(k+b)) it loses the max or ties bit for bit.  After a
    departure overflows, eps cells make inf + -inf = NaN, but only after
    the row-major first +inf, which ``_check_overflow`` names.
    """
    lag, n = hist.shape
    variant = spec.variant
    states = np.empty((lag + tau.shape[1], n))
    states[:lag] = hist
    if variant == "closed":
        ring = hist.tolist()  # table row r at ring[r % lag]
    for r0 in range(lag, len(states), _BLOCK):
        r1 = min(r0 + _BLOCK, len(states))  # table rows r0..r1-1, the block's customers
        block = tau[:, r0 - lag:r1 - lag]
        if variant == "closed":
            tk = iter(memoryview(block.T.ravel()))
            rows = []
            for r in range(r0, r1):
                prev = ring[(r - 1) % lag]
                old = ring[r % lag]  # d(k - c)
                # station i's arrival d_{i-1}(k-c); station 1's is d_n(k-c)
                feed = old[-1:] + old[:-1]
                # tk last, so zip stops at prev's end without taking a cell
                y = [t + (p if p >= q else q) for p, q, t in zip(prev, feed, tk)]
                ring[r % lag] = y
                rows.append(y)
            cells = np.fromiter(chain.from_iterable(rows), np.float64, (r1 - r0) * n)
            states[r0:r1] = cells.reshape(-1, n)
        elif variant == "open_infinite":
            y = [EPS] * (r1 - r0)  # the departures before station 1: eps
            out = np.empty((n, r1 - r0))
            for i, (tk, p) in enumerate(zip(block, states[r0 - 1].tolist())):
                zs, y = y, []
                append = y.append
                for t, z in zip(memoryview(tk), zs):
                    p = (p if p > z else z) + t
                    append(p)
                out[i] = y
            states[r0:r1] = out.T
        else:
            w = n + 1
            tk = memoryview(_rows(block.T))
            # from d(k0+1-lag), at most _BLOCK + 1 rows for q, then d(k0) for p
            out = _rows(states[r0 - lag:min(r0 - 1, r1 - lag + 1)]).tolist() + _rows(
                states[r0 - 1:r0]).tolist()
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
            cells = np.fromiter(islice(out, start, None), np.float64, (r1 - r0) * w)
            states[r0:r1] = cells.reshape(-1, w)[:, :n]
    return states


def _prefix_scan(spec: TandemSpec, hist: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """d(k0) = hist[-1], then the open_infinite departures of the customers
    of tau, by one max-plus prefix scan per station (Greenberg,
    Lubachevsky & Mitrani, "Algorithms for unboundedly parallel
    simulations", ACM TOCS 1991).

    Station i is the Lindley recursion d_i(k) = (a_k (+) d_i(k-1)) (x)
    tau_ik with arrivals a_k = d_{i-1}(k), eps for station 1.  Unrolled
    over k, with C_k = tau_i,k0+1 + ... + tau_ik and C_k0 = 0,
    d_i(k) = C_k + max(d_i(k0), max_{k0 < j <= k} (a_j - C_{j-1})): one
    cumsum and one maximum.accumulate per station, on L-vectors only.  It
    adds in another order from the scalar recursion, so it equals
    ``_lindley`` only when every sum is exact.
    """
    L = tau.shape[1]
    states = np.empty((L + 1, spec.n))
    states[0] = hist[-1]
    c = np.zeros(L + 1)  # C_k0..C_k1
    d = np.full(L, EPS)  # the arrivals, then d_i(k0+1..k1)
    x = np.empty(L)
    with np.errstate(over="ignore"):  # an overflowed departure is named by _check_overflow
        for i, row in enumerate(tau):
            np.cumsum(row, out=c[1:])
            np.subtract(d, c[:-1], out=x)
            np.maximum.accumulate(x, out=x)
            np.maximum(x, states[0, i], out=x)
            np.add(c[1:], x, out=d)
            states[1:, i] = d
    return states


def _check_overflow(states: np.ndarray, k0: int) -> None:
    """Name the row-major first departure of the rows d(k0), ... of states
    that overflowed float64 to +inf (eps is legal) in a configuration error."""
    if not states.max() < np.inf:  # NaN too: eps cells after an overflow hold NaN
        over = np.argwhere(np.isposinf(states))
        if over.size:
            k, i = over[0]
            raise ModelConfigError(f"departure d_{i + 1}({k0 + k}) overflows float64")


def _state(spec: TandemSpec, states: np.ndarray, k: int) -> np.ndarray:
    """The augmented state T_k acts on, (d(k-1), ..., d(k-lag)) with
    lag = m / n, rows k-1, ..., k-lag of ``states`` (a departure table,
    or a carry's rows and a chunk's), eps before its row 0."""
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
    states = _step_block(spec, _start(spec), tau)[1]
    return Trajectory(states, spec, OpLedger(steps=spec.horizon), strategy="oracle")


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


def _kernel(spec: TandemSpec, exact: bool) -> str:
    """The kernel every strategy runs: ``"scan"`` for open_infinite on exact
    tau (``ServiceTimes.exact``, or a carry's), else ``"recursion"``, ``_lindley``."""
    return "scan" if spec.variant == "open_infinite" and exact else "recursion"


def simulate(
    spec: TandemSpec, tau: ServiceTimes, strategy: str = "serial", processors: int = 1
) -> Trajectory:
    """Run one strategy: check its rules and tau's shape, step a tracked
    carry over all K customers (``_step_block``) and charge the strategy's
    cost model; ``processors`` reaches only the cost model.  A departure
    that overflows float64 to +inf is a configuration error."""
    check_strategy(spec, strategy, processors)
    _check_inputs(spec, tau)
    states = _step_block(spec, _start(spec, True), tau)[1]
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

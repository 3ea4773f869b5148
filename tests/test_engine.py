import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import GRID_CONFIGS

from tandemax import engine
from tandemax.core import EPS, matvec
from tandemax.engine import (
    OpLedger,
    _prefix_scan,
    initial_state,
    oracle_lindley,
    simulate,
    simulate_batched,
    simulate_closed_sparse,
    simulate_serial,
    simulate_vectorized,
)
from tandemax.models import ModelConfigError, ServiceTimes, TandemSpec, build_transition
from tandemax.sources import ServiceTimeSource


def constant_tau(values, K):
    return ServiceTimes(np.tile(np.asarray(values, float)[:, None], (1, K)))


def random_tau(n, K, seed, high=9, integer=True):
    src = ServiceTimeSource(kind="uniform", low=0, high=high, seed=seed, integer_times=integer)
    return src.sample(n, K)


@st.composite
def float_tau(draw):
    n, K = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    cells = st.floats(0, 5, allow_nan=False, allow_infinity=False)
    return ServiceTimes(np.array(draw(st.lists(cells, min_size=n * K, max_size=n * K)))
                        .reshape(n, K))


class TestHandTrajectories:
    def test_open_infinite(self):
        spec = TandemSpec("open_infinite", 2, 3)
        traj = simulate_serial(spec, constant_tau([1, 2], 3))
        assert traj.departures().tolist() == [[1, 3], [2, 5], [3, 7]]

    def test_closed(self):
        spec = TandemSpec("closed", 2, 3)
        traj = simulate_serial(spec, constant_tau([1, 2], 3))
        assert traj.departures().tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_oracle_open_infinite(self):
        spec = TandemSpec("open_infinite", 2, 3)
        traj = oracle_lindley(spec, constant_tau([1, 2], 3))
        assert traj.departures().tolist() == [[1, 3], [2, 5], [3, 7]]

    def test_oracle_manufacturing_blocking(self):
        spec = TandemSpec("open_mfg", 2, 3)
        traj = oracle_lindley(spec, constant_tau([1, 3], 3))
        assert traj.departures().tolist() == [[1, 4], [4, 7], [7, 10]]

    def test_epsilon_initial_state_annihilates(self, monkeypatch):
        # d(k) = T_k (x) d(k-1) has no input term, so eps is a fixed point:
        # the reason every run starts from d(0) = e
        monkeypatch.setattr(engine, "initial_state", lambda s: np.full(s.n, EPS))
        for variant in ("open_infinite", "open_mfg", "open_comm", "closed"):
            spec = TandemSpec(variant, 2, 3)
            for tau in (constant_tau([1, 2], 3), constant_tau([1.5, 2.5], 3)):
                for traj in (simulate_serial(spec, tau), simulate_vectorized(spec, tau)):
                    assert np.isneginf(traj.states).all()


class TestInitialState:
    def test_augmented_history_is_eps(self):
        # d(0) is the n live entries only; the routes supply the eps history
        spec = TandemSpec("open_mfg", 3, 5, buffer_capacity=1)
        d0 = initial_state(spec)
        assert d0.shape == (3,)
        assert list(d0) == [0.0, 0.0, 0.0]
        assert not np.signbit(d0).any()

    @pytest.mark.parametrize("variant", ["open_mfg", "open_comm", "closed"])
    @pytest.mark.parametrize("value", [7, 8, 13, 10**11])  # K + 1, K + 2, K + 7, 10^11
    def test_lag_past_horizon_reads_eps(self, variant, value):
        """b + 1 or c past K + 1 looks back to rows before k = 0 only, all
        eps: serial and the oracle give the states of the lag = K + 1 run,
        and hold no ring rows beyond K + 1."""
        n, K = 3, 6
        key = "population" if variant == "closed" else "buffer_capacity"
        spec = TandemSpec(variant, n, K, **{key: value})
        ref = TandemSpec(variant, n, K, **{key: K + 1 if variant == "closed" else K})
        for tau in (random_tau(n, K, 3), random_tau(n, K, 3, high=5, integer=False)):
            for route in (simulate_serial, oracle_lindley):
                got, want = route(spec, tau).states, route(ref, tau).states
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCounters:
    def test_serial_open_infinite_counts(self):
        n, K = 4, 7
        traj = simulate_serial(TandemSpec("open_infinite", n, K), random_tau(n, K, 0))
        per_step = n * (n + 1) // 2 + n * n
        assert traj.ledger.scalar_ops == K * per_step
        assert traj.ledger.steps == K
        assert traj.ledger.memory_cells == n * (n + 5) // 2

    def test_sparse_closed_counts(self):
        n, K = 50, 100
        traj = simulate_closed_sparse(TandemSpec("closed", n, K), random_tau(n, K, 1))
        assert traj.ledger.scalar_ops == 2 * K * n == 10000
        assert traj.ledger.memory_cells == 3 * n

    def test_vectorized_counts(self):
        n, K = 6, 9
        traj = simulate_vectorized(TandemSpec("open_infinite", n, K), random_tau(n, K, 2))
        assert traj.ledger.vector_build_ops == K * n
        stages = sum(math.ceil(math.log2(i)) for i in range(1, n + 1))
        assert traj.ledger.vector_reduce_ops == K * (n + stages)

    @pytest.mark.parametrize("ms", [
        range(1, 4097),
        sorted({2**j + d for j in range(17) for d in (-1, 0, 1)} - {0}),
    ], ids=["m<=4096", "powers-of-two"])
    def test_vector_stage_closed_form(self, ms):
        """The ledger's stage count of open_infinite equals the sum of
        ceil(log2 w) over the rows w = 1..m."""
        for m in ms:
            led = engine._ledger(TandemSpec("open_infinite", m, 1), "vector", 1)
            assert led.vector_reduce_ops - m == sum((w - 1).bit_length() for w in range(1, m + 1))

    def test_vectorized_n1(self):
        traj = simulate_vectorized(TandemSpec("open_infinite", 1, 1), random_tau(1, 1, 3))
        assert traj.ledger.vector_build_ops == 1
        assert traj.ledger.vector_reduce_ops == 1  # one add, zero doubling stages

    def test_batched_counts(self):
        n, K, P = 3, 10, 4
        traj = simulate_batched(TandemSpec("open_infinite", n, K), random_tau(n, K, 4), P)
        assert traj.ledger.batches == 3  # sizes 4, 4, 2
        full = n * (n + 1) // 2 + 2 * P * n
        last = n * (n + 1) // 2 + 2 * 2 * n
        assert traj.ledger.parallel_ops == 2 * full + last

    def test_batched_memory_with_more_processors_than_customers(self):
        """P > K: no batch holds more than K matrices, so the working set
        is K dense triangles plus two m-vectors, as at P = K."""
        n, K = 3, 1
        spec = TandemSpec("open_infinite", n, K)
        tau = random_tau(n, K, 4)
        ledger = simulate_batched(spec, tau, 7).ledger
        assert ledger.memory_cells == 6 + 2 * 3
        assert ledger == simulate_batched(spec, tau, K).ledger

    @pytest.mark.parametrize("variant,kwargs,vector,batched", [
        # n = 3, K = 10, P = 4: batches of 4, 4 and 2
        ("open_mfg", {"buffer_capacity": 2}, (90, 450, 99), (315, 3, 342)),
        ("open_comm", {"buffer_capacity": 3}, (120, 600, 168), (474, 3, 600)),
        ("closed", {"population": 2}, (60, 240, 48), (183, 3, 156)),
        ("closed", {"population": 1}, (30, 90, 15), (78, 3, 42)),
    ])
    def test_augmented_dense_ledgers(self, variant, kwargs, vector, batched):
        """Every ledger field of the dense schedules on augmented variants,
        as a run that executed each doubling stage and batch counted them."""
        n, K, P = 3, 10, 4
        spec = TandemSpec(variant, n, K, **kwargs)
        tau = random_tau(n, K, 5)
        build, reduce, cells = vector
        assert simulate_vectorized(spec, tau).ledger == OpLedger(
            vector_build_ops=build, vector_reduce_ops=reduce, steps=K, memory_cells=cells)
        ops, batches, cells = batched
        assert simulate_batched(spec, tau, P).ledger == OpLedger(
            parallel_ops=ops, steps=K, batches=batches, memory_cells=cells)


STRATEGY_SPECS = pytest.mark.parametrize(
    "spec",
    [
        TandemSpec("open_infinite", 5, 30),
        TandemSpec("open_mfg", 4, 30, buffer_capacity=1),
        TandemSpec("open_comm", 3, 30, buffer_capacity=2),
        TandemSpec("closed", 4, 30, population=2),
    ],
    ids=["open-inf", "mfg-b1", "comm-b2", "closed-c2"],
)


class TestTrajectoryLayout:
    @pytest.mark.parametrize(
        "spec",
        [
            TandemSpec("open_mfg", 3, 12, buffer_capacity=2),
            TandemSpec("open_comm", 3, 12, buffer_capacity=3),
            TandemSpec("closed", 3, 12, population=2),
            TandemSpec("closed", 3, 12),
        ],
        ids=["mfg-b2", "comm-b3", "closed-c2", "closed-c1"],
    )
    def test_states_hold_departures_only(self, spec):
        """Every strategy and the oracle store d(0..K) in n columns, the
        augmented history left out; departures() is rows 1..K."""
        tau = random_tau(spec.n, spec.horizon, 5)
        trajs = [simulate_serial(spec, tau), simulate_vectorized(spec, tau),
                 simulate_batched(spec, tau, 3), oracle_lindley(spec, tau)]
        if spec.variant == "closed" and spec.population == 1:
            trajs.append(simulate_closed_sparse(spec, tau))
        for traj in trajs:
            assert traj.states.shape == (spec.horizon + 1, spec.n), traj.strategy
            assert np.array_equal(traj.departures(), traj.states[1:])


class TestStrategyEquivalence:
    @STRATEGY_SPECS
    def test_all_strategies_bit_identical(self, spec):
        tau = random_tau(spec.n, spec.horizon, 7)
        base = simulate_serial(spec, tau)
        assert np.array_equal(simulate_vectorized(spec, tau).states, base.states)
        for P in (1, 2, 3, spec.n, 2 * spec.n):
            assert np.array_equal(simulate_batched(spec, tau, P).states, base.states)

    @STRATEGY_SPECS
    def test_float_serial_within_rounding_gap_of_dense(self, spec):
        """On float tau the serial scalar loop and the dense T_k route
        (batched with P = 1) sum in different orders; every departure,
        d(0) included, agrees within the float contract."""
        tau = random_tau(spec.n, spec.horizon, 7, high=5, integer=False)
        serial = simulate_serial(spec, tau).states
        dense = simulate_batched(spec, tau, 1).states
        assert np.array_equal(simulate_vectorized(spec, tau).states, dense)
        assert np.array_equal(np.isneginf(serial), np.isneginf(dense))
        gap = np.abs(np.subtract(serial, dense, out=np.zeros_like(dense), where=serial != dense))
        assert gap.max() <= tau.rounding_gap(dense)

    @pytest.mark.parametrize("variant,kwargs", [*GRID_CONFIGS, ("closed", {"population": 3})])
    def test_dense_kernel_equals_the_carried_state_vector(self, variant, kwargs):
        """The dense kernel reads d(k-1), ..., d(k-lag) from its table in
        place of carrying the augmented m-vector through T_k (x): the
        companion's identity blocks copy the history exactly, as no
        departure is -0.0, so both forms agree bit for bit, sign of zero
        included, on integer, float and signed-zero tau."""

        def carried(spec, tau):
            state = np.full(spec.arity, EPS)
            state[: spec.n] = initial_state(spec)
            states = [state[: spec.n]]
            for k in range(1, spec.horizon + 1):
                state = matvec(build_transition(spec, tau.column(k)).readonly(), state)
                states.append(state[: spec.n])
            return np.array(states)

        rng = np.random.default_rng(3)
        for n in (2, 5, 8):
            for K in (1, 3, 40):
                spec = TandemSpec(variant, n, K, **kwargs)
                signed = ServiceTimes(rng.choice([0.0, -0.0, 1.0, 2.5], size=(n, K)))
                for tau in (random_tau(n, K, K), random_tau(n, K, K, high=5, integer=False),
                            signed):
                    want = carried(spec, tau)
                    for got in (simulate_vectorized(spec, tau).states,
                                simulate_batched(spec, tau, 3).states):
                        assert np.array_equal(got, want)
                        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("variant,kwargs", [*GRID_CONFIGS, ("closed", {"population": 3}),
                                                ("open_mfg", {"buffer_capacity": 50})])
    def test_batched_equals_vector_for_every_batch_size(self, variant, kwargs):
        """batched builds P matrices per call, at most 2**20 cells, and
        applies them in order; vector builds one per step.  The tables
        agree bit for bit, sign of zero included, for P below, at and past
        K, and past the cell cap (open_mfg b = 50, n = 8: m = 408, six
        matrices per build)."""
        rng = np.random.default_rng(4)
        K = 40
        for n in (2, 8):
            spec = TandemSpec(variant, n, K, **kwargs)
            signed = ServiceTimes(rng.choice([0.0, -0.0, 1.0, 2.5], size=(n, K)))
            for tau in (random_tau(n, K, n), random_tau(n, K, n, high=5, integer=False), signed):
                want = simulate_vectorized(spec, tau).states
                for P in (1, 2, 3, 8, K, K + 5, 10**6):
                    got = simulate_batched(spec, tau, P).states
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("strategy,P,m,builds", [
        ("vector", 3, 16, [1] * 40),
        ("batched", 3, 16, [3] * 13 + [1]),
        ("batched", 40, 16, [40]),
        ("batched", 10**6, 408, [6] * 6 + [4]),  # 2**20 // 408**2 = 6 matrices per build
    ])
    def test_build_calls_per_strategy(self, monkeypatch, strategy, P, m, builds):
        """vector builds one T_k per step, K calls; batched builds min(P, K)
        per call, ceil(K / P) calls, or fewer matrices when P of them would
        pass 2**20 cells."""
        built, real = [], engine._transitions

        def counting(spec, v):
            built.append(len(v))
            return real(spec, v)

        monkeypatch.setattr(engine, "_transitions", counting)
        spec = TandemSpec("open_mfg", 8, 40, buffer_capacity=m // 8 - 1)
        simulate(spec, random_tau(8, 40, 1), strategy, P)
        assert built == builds

    def test_sparse_matches_serial(self):
        spec = TandemSpec("closed", 6, 40)
        tau = random_tau(6, 40, 8)
        assert np.array_equal(
            simulate_closed_sparse(spec, tau).states, simulate_serial(spec, tau).states
        )

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("initial", ["zero"])  # d(0) = e; keeps the case ids stable
    def test_sparse_equals_oracle(self, n, initial):
        spec = TandemSpec("closed", n, 60)
        for tau in (random_tau(n, 60, n), random_tau(n, 60, n, high=5, integer=False)):
            sparse = simulate_closed_sparse(spec, tau).states
            want = oracle_lindley(spec, tau).states
            assert np.array_equal(sparse, want)
            assert np.array_equal(np.signbit(sparse), np.signbit(want))

    def test_sparse_requires_closed_c1(self):
        with pytest.raises(ModelConfigError):
            simulate_closed_sparse(TandemSpec("open_infinite", 3, 5), random_tau(3, 5, 0))
        with pytest.raises(ModelConfigError):
            simulate_closed_sparse(
                TandemSpec("closed", 3, 5, population=2), random_tau(3, 5, 0)
            )


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("closed", {"population": 1}),
            ("closed", {"population": 2}),
            ("open_infinite", {}),
            ("open_mfg", {"buffer_capacity": 0}),
            ("open_mfg", {"buffer_capacity": 1}),
            ("open_comm", {"buffer_capacity": 0}),
            ("open_comm", {"buffer_capacity": 1}),
            ("closed", {"population": 3}),
            ("open_mfg", {"buffer_capacity": 2}),
            ("open_comm", {"buffer_capacity": 3}),
        ],
    )
    def test_matrix_equals_oracle(self, variant, kwargs):
        """Serial equals the oracle exactly; the dense route, the product
        with the paper's T_k, equals it exactly on integer tau and within
        the float contract on float tau."""
        spec = TandemSpec(variant, 4, 50, **kwargs)
        for seed in range(3):
            for tau in (random_tau(4, 50, seed), random_tau(4, 50, seed, high=5, integer=False)):
                want = oracle_lindley(spec, tau).departures()
                assert np.array_equal(simulate_serial(spec, tau).departures(), want)
                gap = np.abs(simulate_vectorized(spec, tau).departures() - want).max()
                assert gap <= tau.rounding_gap(want)  # 0 on integer tau

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 5), st.integers(1, 6), st.integers(0, 4), st.integers(1, 4))
    def test_oracle_ring_edges(self, data, n, K, b, c):
        """With b + 1 or c up to 5 rows of lookback and K down to 1, the
        oracle's ring reaches back past k = 0; on tau with ties and signed
        zeros it equals serial exactly, sign of zero included, and so do
        the dense routes."""
        cells = st.sampled_from([0.0, -0.0, 1.0, 2.5])
        tau = ServiceTimes(np.array(data.draw(st.lists(cells, min_size=n * K, max_size=n * K)))
                           .reshape(n, K))
        for variant, kwargs in [("closed", {"population": c}), ("open_infinite", {}),
                                ("open_mfg", {"buffer_capacity": b}),
                                ("open_comm", {"buffer_capacity": b})]:
            spec = TandemSpec(variant, n, K, **kwargs)
            want = simulate_serial(spec, tau).states
            dense = [simulate_batched(spec, tau, P).states for P in (1, 2, 3)]
            for got in [oracle_lindley(spec, tau).states, simulate_vectorized(spec, tau).states,
                        *dense]:
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("K", [255, 256, 257, 513])
    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("open_infinite", {}),
            ("open_mfg", {"buffer_capacity": 0}),
            ("open_mfg", {"buffer_capacity": 3}),
            ("open_comm", {"buffer_capacity": 0}),
            ("open_comm", {"buffer_capacity": 3}),
            ("closed", {"population": 1}),
            ("closed", {"population": 4}),
        ],
    )
    @pytest.mark.parametrize("initial", ["zero"])  # d(0) = e; keeps the case ids stable
    def test_block_boundaries(self, K, variant, kwargs, initial):
        """Serial and the oracle move tau and d in blocks of 256 customers;
        across block edges, with a ring up to 4 rows deep, serial equals
        the oracle exactly (sign of zero included) and the dense route
        exactly on integer tau."""
        n = 3
        spec = TandemSpec(variant, n, K, **kwargs)
        signed = np.random.default_rng(K).choice([0.0, -0.0, 1.0, 2.5], size=(n, K))
        for tau in (random_tau(n, K, K, high=5, integer=False), ServiceTimes(signed)):
            got = simulate_serial(spec, tau).states
            want = oracle_lindley(spec, tau).states
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        tau = random_tau(n, K, K)
        assert np.array_equal(simulate_serial(spec, tau).states,
                              simulate_batched(spec, tau, 1).states)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 8), st.booleans())
    def test_prefix_scan_equals_kernel(self, data, n, K, large):
        """On exact tau the open_infinite prefix scan equals the oracle
        exactly, sign of zero included: small tau with ties and signed
        zeros, or large integers whose total is 2**53 - 1."""
        cells = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 3.0]),
                                   min_size=n * K, max_size=n * K))
        tau = np.array(cells).reshape(n, K)
        if large:
            # scale to a total just below 2**53, the rest into one cell
            tau *= (2**53 - 1) // max(1, int(tau.sum()))
            tau.flat[data.draw(st.integers(0, n * K - 1))] += 2**53 - 1 - int(tau.sum())
            assert tau.sum() == 2**53 - 1
        tau = ServiceTimes(tau)
        assert tau.exact
        spec = TandemSpec("open_infinite", n, K)
        got, want = _prefix_scan(spec, tau), oracle_lindley(spec, tau).states
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_inexact_tau_takes_kernel(self):
        """Integer tau whose sums pass 2**53 round differently in the scan;
        serial takes the kernel there and equals the oracle bit for bit."""
        src = ServiceTimeSource(kind="uniform", low=0, high=10**14, seed=1, integer_times=True)
        tau = src.sample(8, 200)
        spec = TandemSpec("open_infinite", 8, 200)
        want = oracle_lindley(spec, tau).states
        assert not tau.exact
        assert not np.array_equal(_prefix_scan(spec, tau), want)
        assert np.array_equal(simulate_serial(spec, tau).states, want)

    def test_oracle_names_no_matrix_code(self):
        """The oracle and its loop, nested code included, name nothing of
        the matrix form they check."""
        def names(code):
            yield from code.co_names
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield from names(const)

        for func in (oracle_lindley, engine._lindley):
            assert not {"build_transition", "matvec", "MaxPlusMatrix"} & set(names(func.__code__))

    def test_oracle_history_before_start_is_eps(self):
        # blocking terms referencing k <= 0 must see e at k = 0, eps before
        spec = TandemSpec("open_mfg", 2, 2, buffer_capacity=2)
        tau = constant_tau([1, 5], 2)
        traj = oracle_lindley(spec, tau)
        # k = 1: d1 = max(0 + 1, d2(-2) = eps) = 1 (no blocking yet)
        assert traj.departures()[0].tolist() == [1, 6]


class TestProperties:
    def test_monotone_departures(self):
        spec = TandemSpec("open_comm", 4, 60, buffer_capacity=1)
        dep = simulate_serial(spec, random_tau(4, 60, 12)).departures()
        assert (np.diff(dep, axis=0) >= 0).all()

    def test_blocking_dominance(self):
        for seed in range(5):
            tau = random_tau(5, 60, seed)
            inf = simulate_serial(TandemSpec("open_infinite", 5, 60), tau).departures()
            mfg = simulate_serial(
                TandemSpec("open_mfg", 5, 60, buffer_capacity=0), tau
            ).departures()
            comm = simulate_serial(
                TandemSpec("open_comm", 5, 60, buffer_capacity=0), tau
            ).departures()
            assert (comm >= mfg).all()
            assert (mfg >= inf).all()

    @settings(max_examples=200, deadline=None)
    @given(float_tau(), st.integers(0, 3), st.integers(0, 3))
    def test_float_blocking_dominance_exact(self, tau, b, extra):
        """d_comm(b) >= d_mfg(b') >= d_inf for b <= b', and open_mfg with
        b >= K is open_infinite, exactly on shared float tau."""
        n, K = tau.n, tau.horizon

        def dep(variant, **kwargs):
            return simulate_serial(TandemSpec(variant, n, K, **kwargs), tau).departures()

        inf = dep("open_infinite")
        mfg = dep("open_mfg", buffer_capacity=b + extra)
        assert (dep("open_comm", buffer_capacity=b) >= mfg).all()
        assert (mfg >= inf).all()
        assert np.array_equal(dep("open_mfg", buffer_capacity=K + extra), inf)

    @settings(max_examples=200, deadline=None)
    @given(float_tau(), st.data(), st.integers(0, 3), st.integers(1, 3))
    def test_departures_monotone_in_tau(self, tau, data, b, c):
        """Raising any one cell of float tau never lowers a departure, for
        every variant, exactly."""
        n, K = tau.n, tau.horizon
        raised = tau.tau.copy()
        cell = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, K - 1))
        raised[cell] += data.draw(st.floats(0, 5, exclude_min=True))
        for variant, kwargs in [("closed", {"population": c}), ("open_infinite", {}),
                                ("open_mfg", {"buffer_capacity": b}),
                                ("open_comm", {"buffer_capacity": b})]:
            spec = TandemSpec(variant, n, K, **kwargs)
            low = simulate_serial(spec, tau).departures()
            assert (simulate_serial(spec, ServiceTimes(raised)).departures() >= low).all()

    def test_closed_throughput_settles_at_bottleneck(self):
        for n in (2, 4, 8):
            tau_vals = np.arange(1, n + 1, dtype=float)
            spec = TandemSpec("closed", n, 50)
            dep = simulate_serial(spec, constant_tau(tau_vals, 50)).departures()
            diffs = np.diff(dep[:, n - 1])
            assert (diffs[n - 1 :] == tau_vals.max()).all()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelConfigError):
            simulate_serial(TandemSpec("open_infinite", 3, 5), random_tau(2, 5, 0))

    @pytest.mark.parametrize("variant,strategy,cell", [("open_infinite", "serial", "d_2(1)"),
                                                       ("closed", "sparse-closed", "d_1(2)")])
    def test_overflow_to_inf_rejected(self, variant, strategy, cell):
        spec = TandemSpec(variant, 3, 4)
        message = rf"^departure {re.escape(cell)} overflows float64$"
        with pytest.raises(ModelConfigError, match=message):
            simulate(spec, constant_tau([1e308] * 3, 4), strategy)

    @pytest.mark.parametrize("strategy", ["vector", "batched"])
    def test_dense_routes_stop_at_overflow(self, monkeypatch, strategy):
        """The dense kernel raises at the first step whose departures
        overflow, d_2(2) here, and builds no transition matrix past the
        build holding that step: steps 1 and 2 one at a time for vector,
        steps 1..3 in one build for batched with P = 3."""
        built, real = [], engine._transitions

        def counting(spec, v):
            built.append(len(v))
            return real(spec, v)

        monkeypatch.setattr(engine, "_transitions", counting)
        spec = TandemSpec("open_comm", 2, 1000, buffer_capacity=1)
        with pytest.raises(ModelConfigError, match=r"^departure d_2\(2\) overflows float64$"):
            simulate(spec, constant_tau([6e307] * 2, 1000), strategy, processors=3)
        assert built == {"vector": [1, 1], "batched": [3]}[strategy]

    def test_dispatch_unknown_strategy(self):
        with pytest.raises(ModelConfigError):
            simulate(TandemSpec("open_infinite", 2, 2), random_tau(2, 2, 0), "warp")

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
    _state,
    _step,
    _tops,
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


def assert_state_equation(spec, tau, states, exact=False):
    """Each d(k) of ``states``, recomputed from its own rows by the paper's
    state equation (the top block row of T_k, as ``validate`` builds it),
    equals it bit for bit, sign of zero included, when ``tau.exact`` or
    ``exact`` (tau of halves and signed zeros, whose sums are exact too);
    else within ``tau.rounding_gap``, as the product adds in another
    order, and eps cells agree."""
    K = spec.horizon
    tops = _tops(spec, tau.tau, list(range(K)))
    got = _step(tops, np.array([_state(spec, states, k) for k in range(1, K + 1)]))
    want = states[1:]
    if exact or tau.exact:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    else:
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        gap = np.abs(np.subtract(want, got, out=np.zeros_like(got), where=want != got))
        assert gap.max() <= tau.rounding_gap(want)


def reference_lindley(spec, tau):
    """Departures d(0..K) from the per-cell scalar recursions, customer by
    customer, written out here apart from engine: a reference for its
    kernel, which the oracle and every strategy run.  d(0) = 0, and the
    rows before it are eps; p = d_i(k-1), q = d_{i+1}(k-b-1) (eps past
    station n), z the departure of the station before."""
    n, K, variant = spec.n, spec.horizon, spec.variant
    lag = spec.arity // n  # b + 1, or c
    rows = [[0.0] * n]
    for k, tk in enumerate(tau.tau.T.tolist(), 1):
        prev = rows[k - 1]
        old = rows[k - lag] if k >= lag else [EPS] * n  # d(k - lag)
        if variant == "closed":
            feed = old[-1:] + old[:-1]
            y = [t + (p if p >= q else q) for t, p, q in zip(tk, prev, feed)]
        else:
            y, z = [], EPS
            if variant == "open_infinite":
                for t, p in zip(tk, prev):
                    z = (p if p > z else z) + t
                    y.append(z)
            elif variant == "open_mfg":
                for t, p, q in zip(tk, prev, old[1:] + [EPS]):
                    z = (p if p > z else z) + t
                    z = q if q > z else z
                    y.append(z)
            else:  # open_comm
                for t, p, q in zip(tk, prev, old[1:] + [EPS]):
                    z = p if p > z else z
                    z = (q if q > z else z) + t
                    y.append(z)
        rows.append(y)
    return np.array(rows)


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
        and look back no further than K + 1 rows."""
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
        """A strategy selects only its cost model: every strategy and P
        runs the variant's one kernel, so its table is serial's bit for
        bit, sign of zero included, on integer, float and signed-zero tau."""
        n, K = spec.n, spec.horizon
        signed = ServiceTimes(np.random.default_rng(7).choice([0.0, -0.0, 1.0, 2.5], size=(n, K)))
        for tau in (random_tau(n, K, 7), random_tau(n, K, 7, high=5, integer=False), signed):
            base = simulate_serial(spec, tau).states
            runs = [simulate_vectorized(spec, tau)]
            runs += [simulate_batched(spec, tau, P) for P in (1, 2, 3, n, 2 * n, K + 5, 10**6)]
            for run in runs:
                assert np.array_equal(run.states, base)
                assert np.array_equal(np.signbit(run.states), np.signbit(base))

    @STRATEGY_SPECS
    def test_float_serial_within_rounding_gap_of_dense(self, spec):
        """Each d(k) of serial's table, recomputed from its own rows by the
        paper's dense state equation (the top block row of T_k, as
        ``validate`` builds it), equals serial's exactly on integer tau and
        within the float contract on float tau, whose sums the product adds
        in another order; eps cells agree everywhere."""
        K = spec.horizon
        for tau in (random_tau(spec.n, K, 7), random_tau(spec.n, K, 7, high=5, integer=False)):
            assert_state_equation(spec, tau, simulate_serial(spec, tau).states)

    @pytest.mark.parametrize("variant,kwargs", [*GRID_CONFIGS, ("closed", {"population": 3})])
    def test_oracle_equals_the_carried_state_vector(self, variant, kwargs):
        """The paper's T_k stays the reference at every k: the oracle's
        d(k) equals the first n entries of the augmented m-vector carried
        through the full ``build_transition`` T_k (x), bit for bit, sign of
        zero included, on integer and signed-zero tau, and within the float
        contract on float tau, whose sums the product adds in another
        order."""

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
                for tau in (random_tau(n, K, K), signed):
                    got, want = oracle_lindley(spec, tau).states, carried(spec, tau)
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                tau = random_tau(n, K, K, high=5, integer=False)
                got, want = oracle_lindley(spec, tau).states, carried(spec, tau)
                assert np.abs(got - want).max() <= tau.rounding_gap(want)

    @pytest.mark.parametrize("variant,kwargs", [*GRID_CONFIGS, ("closed", {"population": 3}),
                                                ("open_mfg", {"buffer_capacity": 409})])
    def test_batched_equals_vector_for_every_batch_size(self, variant, kwargs):
        """P reaches only the cost model: batched and vector equal serial
        bit for bit, sign of zero included, for P below, at and past K, and
        for an m whose transition matrices are large (open_mfg b = 409,
        n = 8: m = 3280)."""
        rng = np.random.default_rng(4)
        K = 40
        for n in (2, 8):
            spec = TandemSpec(variant, n, K, **kwargs)
            signed = ServiceTimes(rng.choice([0.0, -0.0, 1.0, 2.5], size=(n, K)))
            for tau in (random_tau(n, K, n), random_tau(n, K, n, high=5, integer=False), signed):
                want = simulate_serial(spec, tau).states
                for got in [simulate_vectorized(spec, tau).states,
                            *(simulate_batched(spec, tau, P).states
                              for P in (1, 2, 3, 8, K, K + 5, 10**6))]:
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("strategy,P", [("serial", 1), ("sparse-closed", 1), ("vector", 1),
                                            ("batched", 3), ("batched", 10**6)])
    def test_build_calls_per_strategy(self, monkeypatch, strategy, P):
        """No strategy builds a transition matrix: each runs the variant's
        scalar kernel, and P reaches only the cost model."""
        built = []
        monkeypatch.setattr(engine, "_transitions", lambda spec, v: built.append(v.shape))
        spec = TandemSpec("closed", 8, 40) if strategy == "sparse-closed" else \
            TandemSpec("open_mfg", 8, 40, buffer_capacity=1)
        simulate(spec, random_tau(8, 40, 1), strategy, P)
        assert built == []

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
        """Serial and vector equal the oracle exactly, on integer and float
        tau: both run the oracle's own loop, or on exact tau a prefix scan
        equal to it.  The oracle's table satisfies the paper's state
        equation at every k, exactly on integer tau."""
        spec = TandemSpec(variant, 4, 50, **kwargs)
        for seed in range(3):
            for tau in (random_tau(4, 50, seed), random_tau(4, 50, seed, high=5, integer=False)):
                want = oracle_lindley(spec, tau).states
                assert np.array_equal(simulate_serial(spec, tau).states, want)
                assert np.array_equal(simulate_vectorized(spec, tau).states, want)
                assert_state_equation(spec, tau, want)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 5), st.integers(1, 6), st.integers(0, 4), st.integers(1, 4))
    def test_oracle_ring_edges(self, data, n, K, b, c):
        """With b + 1 or c up to 5 rows of lookback and K down to 1, the
        oracle's look-back reaches past k = 0; on tau with ties and signed
        zeros it equals serial exactly, sign of zero included, and so do
        vector and batched.  The paper's state equation gives the same
        table, sign of zero included."""
        cells = st.sampled_from([0.0, -0.0, 1.0, 2.5])
        tau = ServiceTimes(np.array(data.draw(st.lists(cells, min_size=n * K, max_size=n * K)))
                           .reshape(n, K))
        for variant, kwargs in [("closed", {"population": c}), ("open_infinite", {}),
                                ("open_mfg", {"buffer_capacity": b}),
                                ("open_comm", {"buffer_capacity": b})]:
            spec = TandemSpec(variant, n, K, **kwargs)
            want = simulate_serial(spec, tau).states
            batched = [simulate_batched(spec, tau, P).states for P in (1, 2, 3)]
            for got in [oracle_lindley(spec, tau).states, simulate_vectorized(spec, tau).states,
                        *batched]:
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            assert_state_equation(spec, tau, want, exact=True)

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
        across block edges, with up to 4 rows of look-back, serial equals
        the oracle exactly (sign of zero included), and every d(k) of
        serial's table satisfies the paper's state equation: exactly on
        integer and signed-zero tau, within the float contract on float
        tau."""
        n = 3
        spec = TandemSpec(variant, n, K, **kwargs)
        signed = np.random.default_rng(K).choice([0.0, -0.0, 1.0, 2.5], size=(n, K))
        for tau, exact in [(random_tau(n, K, K, high=5, integer=False), False),
                           (ServiceTimes(signed), True)]:
            got = simulate_serial(spec, tau).states
            want = oracle_lindley(spec, tau).states
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert_state_equation(spec, tau, got, exact)
        tau = random_tau(n, K, K)
        assert_state_equation(spec, tau, simulate_serial(spec, tau).states)

    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("open_infinite", {}),
            ("open_mfg", {"buffer_capacity": 0}),
            ("open_mfg", {"buffer_capacity": 3}),
            ("open_comm", {"buffer_capacity": 0}),
            ("open_comm", {"buffer_capacity": 3}),
            ("closed", {"population": 1}),
            ("closed", {"population": 3}),
        ],
    )
    def test_any_tau_layout(self, variant, kwargs):
        """The kernel reads tau through a memoryview over its buffer: tau
        in Fortran order, as a strided view or reversed gives the table
        of C-order tau bit for bit, sign of zero included, at K = 600,
        across two block edges."""
        n, K = 5, 600
        rng = np.random.default_rng(600)
        raw = rng.uniform(0, 5, (n, K))
        raw[rng.random((n, K)) < 0.2] = -0.0
        spec = TandemSpec(variant, n, K, **kwargs)
        want = oracle_lindley(spec, ServiceTimes(raw)).states
        rev = raw[:, ::-1].copy()
        for laid in (np.asfortranarray(raw), np.repeat(raw, 2, axis=1)[:, ::2], rev[:, ::-1]):
            tau = ServiceTimes(laid)
            assert not tau.tau.flags.c_contiguous
            for got in (oracle_lindley(spec, tau).states, simulate(spec, tau).states):
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 5), st.sampled_from([1, 2, 255, 256, 257, 513]),
           st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_kernel_equals_reference(self, data, n, K, c, signed, seed):
        """The oracle and simulate equal the per-cell reference bit for
        bit, sign of zero included, for every variant: K across the block
        edges, b up to past K (past a block of look-back at K = 513) and c
        up to 4, on tau with ties, signed zeros and subnormals, or on
        uniform floats."""
        b = data.draw(st.sampled_from([0, 1, 2, 3, 4, K, K + 1, 10**11]))
        rng = np.random.default_rng(seed)
        tau = ServiceTimes(rng.choice([0.0, -0.0, 5e-324, 1.0, 2.5], (n, K)) if signed
                           else rng.uniform(0, 5, (n, K)))
        for variant, kwargs in [("closed", {"population": c}), ("open_infinite", {}),
                                ("open_mfg", {"buffer_capacity": b}),
                                ("open_comm", {"buffer_capacity": b})]:
            spec = TandemSpec(variant, n, K, **kwargs)
            want = reference_lindley(spec, tau)
            for got in (oracle_lindley(spec, tau).states, simulate(spec, tau).states):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

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
        got = _prefix_scan(spec, initial_state(spec)[None], tau.tau)
        want = oracle_lindley(spec, tau).states
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
        assert not np.array_equal(_prefix_scan(spec, initial_state(spec)[None], tau.tau), want)
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

    @pytest.mark.parametrize("pattern", ["tail", "pair"])
    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("open_infinite", {}),
            ("open_mfg", {"buffer_capacity": 0}),
            ("open_mfg", {"buffer_capacity": 3}),
            ("open_comm", {"buffer_capacity": 0}),
            ("open_comm", {"buffer_capacity": 3}),
            ("closed", {"population": 2}),
        ],
    )
    def test_overflow_in_second_block(self, variant, kwargs, pattern):
        """tau that first overflows past the first block edge: simulate
        names the row-major first +inf cell of the per-cell reference,
        though later cells of the kernel's table may be NaN."""
        n, K = 4, 400
        cells = np.ones((n, K))
        if pattern == "tail":
            cells[:, 300:] = 1e308
        else:  # d_2(299) near the top of float64, then tau_3(301)
            cells[1, 298] = cells[2, 300] = 1e308
        spec = TandemSpec(variant, n, K, **kwargs)
        k, i = np.argwhere(np.isposinf(reference_lindley(spec, ServiceTimes(cells))))[0]
        assert k >= 257
        message = rf"^departure d_{i + 1}\({k}\) overflows float64$"
        with pytest.raises(ModelConfigError, match=message):
            simulate(spec, ServiceTimes(cells))

    @pytest.mark.parametrize("first", [5, 300])
    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("open_mfg", {"buffer_capacity": 1}),
            ("open_comm", {"buffer_capacity": 0}),
            ("open_comm", {"buffer_capacity": 3}),
        ],
    )
    def test_overflow_named_before_nan(self, variant, kwargs, first):
        """After an overflow the kernel's eps cells make NaN in later cells,
        so the table's max is NaN, not +inf.  simulate still raises, and
        names the row-major first +inf of the per-cell reference, in the
        first block and in a later one."""
        n, K = 4, 400
        cells = np.ones((n, K))
        cells[2, first:] = 1e308
        spec = TandemSpec(variant, n, K, **kwargs)
        states = oracle_lindley(spec, ServiceTimes(cells)).states
        k, i = np.argwhere(np.isposinf(reference_lindley(spec, ServiceTimes(cells))))[0]
        assert (k - 1) // 256 == first // 256
        assert tuple(np.argwhere(np.isposinf(states))[0]) == (k, i)
        assert np.isnan(states[k:]).any() and np.isnan(states.max())
        message = rf"^departure d_{i + 1}\({k}\) overflows float64$"
        with pytest.raises(ModelConfigError, match=message):
            simulate(spec, ServiceTimes(cells))

    @pytest.mark.parametrize("variant,kwargs", [("open_infinite", {}),
                                                ("open_comm", {"buffer_capacity": 1}),
                                                ("closed", {"population": 2})])
    def test_tracked_carry_names_overflow_in_a_later_chunk(self, variant, kwargs):
        """A tracked carry counts its customers, so stepped over two chunks
        it names the run's row-major first +inf, in the second chunk, by its
        k in the whole run; the oracle's untracked carry over the same tau
        raises nothing and returns the rows with their +inf cells."""
        n, K, L = 3, 40, 16
        cells = np.ones((n, K))
        cells[1, 20:] = 1e308
        spec = TandemSpec(variant, n, K, **kwargs)
        want = reference_lindley(spec, ServiceTimes(cells))
        k, i = np.argwhere(np.isposinf(want))[0]
        assert k > L
        chunks = [ServiceTimes(cells[:, :L]), ServiceTimes(cells[:, L:])]
        carry = engine._step_block(spec, engine._start(spec, True), chunks[0])[0]
        assert carry.k == L and carry.exact  # chunk 1 is exact; chunk 2 is not
        message = rf"^departure d_{i + 1}\({k}\) overflows float64$"
        with pytest.raises(ModelConfigError, match=message):
            engine._step_block(spec, carry, chunks[1])
        oracle, first = engine._step_block(spec, engine._start(spec), chunks[0])
        oracle, second = engine._step_block(spec, oracle, chunks[1])
        assert oracle.k is None
        assert np.array_equal(first, want[:L + 1])
        assert tuple(np.argwhere(np.isposinf(second))[0]) == (k - L, i)
        assert np.array_equal(second[:k - L + 1], want[L:k + 1])

    @pytest.mark.parametrize("strategy", ["vector", "batched"])
    def test_dense_routes_stop_at_overflow(self, monkeypatch, strategy):
        """vector and batched, whose cost models are the dense algorithms,
        raise serial's error for the first departure that overflows, d_2(2)
        here, and build no transition matrix on the way."""
        built = []
        monkeypatch.setattr(engine, "_transitions", lambda spec, v: built.append(v.shape))
        spec = TandemSpec("open_comm", 2, 1000, buffer_capacity=1)
        tau = constant_tau([6e307] * 2, 1000)
        with pytest.raises(ModelConfigError, match=r"^departure d_2\(2\) overflows float64$"):
            simulate(spec, tau, "serial")
        with pytest.raises(ModelConfigError, match=r"^departure d_2\(2\) overflows float64$"):
            simulate(spec, tau, strategy, processors=3)
        assert built == []

    def test_dispatch_unknown_strategy(self):
        with pytest.raises(ModelConfigError):
            simulate(TandemSpec("open_infinite", 2, 2), random_tau(2, 2, 0), "warp")

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemax.core import EPS, MaxPlusMatrix
from tandemax.engine import simulate, simulate_serial
from tandemax.measures import (
    _check_lows,
    _Records,
    MeasureConsistencyError,
    ReferenceEpochError,
    sojourn_direct,
    sojourn_matrix,
    trajectory_sojourn,
    trajectory_waiting,
    waiting_scale_matrix,
    waiting_transition,
)
from tandemax.models import ServiceTimes, TandemSpec, transition_open_infinite
from tandemax.sources import ServiceTimeSource


class TestSojourn:
    def test_direct(self):
        assert list(sojourn_direct(np.array([2.0, 5.0, 9.0]))) == [0.0, 3.0, 7.0]
        assert list(sojourn_direct(np.zeros(3))) == [0.0, 0.0, 0.0]
        with pytest.raises(ReferenceEpochError):
            sojourn_direct(np.array([EPS, 3.0]))

    def test_matrix(self):
        t = MaxPlusMatrix([[1, EPS], [3, 2]])
        assert sojourn_matrix(t, 1.0) == MaxPlusMatrix([[0, EPS], [2, 1]])
        assert sojourn_matrix(t, 0.0) == t

    def test_matrix_preserves_triangularity(self):
        t = transition_open_infinite([2, 3, 4])
        u = sojourn_matrix(t, 2.0).readonly()
        for i in range(3):
            for j in range(i + 1, 3):
                assert u[i, j] == EPS


class TestWaiting:
    def test_scale_matrix(self):
        assert waiting_scale_matrix([1, 2, 3]) == MaxPlusMatrix.diag([1, 3, 6])
        assert waiting_scale_matrix([0, 0]) == MaxPlusMatrix.identity(2)
        assert waiting_scale_matrix([4]) == MaxPlusMatrix([[4]])

    def test_transition_constant_tau(self):
        t = MaxPlusMatrix([[1, EPS], [3, 2]])
        v = waiting_transition(t, [1, 2], [1, 2])
        assert v == MaxPlusMatrix([[0, EPS], [0, 1]])

    def test_transition_zero_tau_is_t(self):
        t = MaxPlusMatrix([[0, EPS], [0, 0]])
        assert waiting_transition(t, [0, 0], [0, 0]) == t

    def test_transition_preserves_triangularity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tau = rng.integers(1, 9, size=4).astype(float)
            prev = rng.integers(1, 9, size=4).astype(float)
            v = waiting_transition(transition_open_infinite(tau), tau, prev).readonly()
            for i in range(4):
                for j in range(i + 1, 4):
                    assert v[i, j] == EPS

    @staticmethod
    def _waiting(d, tau, **kw):
        """w(1) of a one-customer trajectory with departures d(1)."""
        states = np.vstack([np.zeros(len(d)), np.asarray(d, float)])
        return list(trajectory_waiting(states, np.asarray(tau, float)[:, None], **kw)[0])

    def test_from_sojourn(self):
        assert self._waiting([0, 2], [1, 2]) == [0.0, 0.0]
        assert self._waiting([0, 3], [1, 2]) == [0.0, 1.0]
        assert self._waiting([0, 0, 0], [0, 0, 0]) == [0.0, 0.0, 0.0]

    def test_negative_waiting_rejected(self):
        with pytest.raises(MeasureConsistencyError):
            self._waiting([0, 1], [1, 5])
        # float inputs may leave w below zero by the rounding gap
        # 3 * 2**-53 * max|d| (about 2.25 ulp of 1.5 here), not more
        ulp = 2.0**-52
        assert self._waiting([1, 1.5 - ulp], [0.5, 0.5]) == [0.0, -ulp]
        with pytest.raises(MeasureConsistencyError):
            self._waiting([1, 1.5 - 4 * ulp], [0.5, 0.5])

    def test_first_negative_waiting_named(self):
        """The error names the row-major first w below the bound, not the
        most negative; a NaN w is not below it."""
        states = np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 4.0], [2.0, 3.0, 3.0],
                           [3.0, 1.0, 5.0], [4.0, 5.0, 6.0]])
        tau = np.ones((3, 4))
        with pytest.raises(MeasureConsistencyError, match=r"^negative waiting time w_3\(2\) = -1\.0$"):
            trajectory_waiting(states, tau)
        states[2:4] = [[2.0, 3.0, 4.0], [3.0, 4.0, 5.0]]
        w = trajectory_waiting(states, tau)
        assert np.isnan(w[0, 1]) and np.nanmin(w) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 2.0, -1e-15, -2e-15, -1.0, np.nan]),
                    min_size=3, max_size=60),
           st.integers(1, 7), st.sampled_from([0.0, 1e-15, 1.5e-15, 0.5, 2.0]))
    def test_record_lows_name_the_first_cell_below_the_bound(self, cells, rows, gap):
        """Fed in blocks of rows before the bound is known, the record lows
        name the row-major first cell below -gap, as a whole-table scan
        does; NaN cells are never below it."""
        w = np.array(cells[: len(cells) // 3 * 3]).reshape(-1, 3)
        lows = _Records()
        for k0 in range(0, len(w), rows):
            lows.add(-w[k0:k0 + rows], range(k0 + 1, len(w) + 1))
        below = np.argwhere(w < -gap)
        if not below.size:
            _check_lows(lows, gap)
            return
        k, i = below[0]
        with pytest.raises(MeasureConsistencyError,
                           match=rf"^negative waiting time w_{i + 1}\({k + 1}\) = {w[k, i]}$"):
            _check_lows(lows, gap)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, 3.0, 1e-300, -1.0, np.nan]),
                    min_size=1, max_size=60),
           st.integers(1, 4), st.lists(st.integers(1, 7), min_size=1, max_size=8),
           st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]))
    def test_records_match_a_whole_table_scan(self, cells, n, blocks, bound):
        """Fed a table in row blocks of random sizes, with ties, -0.0 and
        repeated maxima, the records give the row-major first cell past
        any bound, as ``argwhere`` does, and the row-major first largest
        cell above 0, as ``argmax`` does with NaN put below every cell;
        each record carries the cells there of a table fed alongside."""
        x = np.array(cells[: len(cells) // n * n] or cells[:1] * n).reshape(-1, n)
        tag = np.arange(x.size, dtype=float).reshape(x.shape)
        records, k0 = _Records(), 0
        for size in blocks * len(x):
            if k0 >= len(x):
                break
            records.add(x[k0:k0 + size], range(k0 + 1, len(x) + 1), tag[k0:k0 + size])
            k0 += size
        assert all(tag[k - 1, i - 1] == t for _, k, i, t in records)
        over = np.argwhere(x > bound)
        first = records.past(bound)
        assert (first[1:3] if first else None) == (tuple(over[0] + 1) if over.size else None)
        top = np.where(np.isnan(x), -np.inf, x)
        k, i = np.unravel_index(top.argmax(), x.shape)
        assert [r[1:3] for r in records[-1:]] == ([(k + 1, i + 1)] if top[k, i] > 0 else [])
        if first:
            assert first[0] == x[first[1] - 1, first[2] - 1]

    @staticmethod
    def _cumsum_waiting(states, tau):
        """The reference formula: one (n - 1) x K cumsum of the station times."""
        w = trajectory_sojourn(states)
        w[:, 1:] -= np.cumsum(tau[1:], axis=0).T
        w[:, 0] = 0.0
        return w

    @pytest.mark.parametrize("kind", ["integer", "float", "negzero", "subnormal"])
    @pytest.mark.parametrize("K", [1, 2, 300])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_matches_cumsum_bit_for_bit(self, n, K, kind):
        """Running station sums add the terms in cumsum's order, so every
        cell, its sign bit included, is the reference formula's.  Signed
        zeros in both tau and the epochs give w cells of either sign."""
        rng = np.random.default_rng(n * 1000 + K)
        tau = {
            "integer": lambda: rng.integers(0, 6, (n, K)).astype(float),
            "float": lambda: rng.uniform(0, 5, (n, K)),
            "negzero": lambda: np.where(rng.random((n, K)) < 0.5, -0.0, 0.0),
            "subnormal": lambda: np.ldexp(rng.uniform(0, 1, (n, K)), -1030),
        }[kind]()
        if kind == "negzero":
            states = np.where(rng.random((K + 1, n)) < 0.5, -0.0, 0.0)
        else:
            states = simulate(TandemSpec("open_infinite", n, K), ServiceTimes(tau)).states
        want = self._cumsum_waiting(states, tau)
        for arg in (ServiceTimes(tau), tau):
            got = trajectory_waiting(states, arg)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(np.signbit(got), np.signbit(want))
        if kind == "negzero" and n > 1 and K > 2:
            assert np.signbit(got).any()

    def test_waiting_memory(self):
        """No (n - 1) x K temporary: the traced peak of one call stays
        within a quarter of its result's size."""
        n, K = 16, 3000
        tau = ServiceTimeSource(kind="uniform", low=0, high=5, seed=1).sample(n, K)
        states = simulate(TandemSpec("open_infinite", n, K), tau).states
        trajectory_waiting(states, tau)
        tracemalloc.start()
        try:
            w = trajectory_waiting(states, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * w.nbytes


class TestRecursionConsistency:
    """Matrix recursions for s and w must match the direct definitions."""

    def _run(self, n, seed, K=40):
        spec = TandemSpec("open_infinite", n, K)
        src = ServiceTimeSource(kind="uniform", low=0, high=9, seed=seed, integer_times=True)
        tau = src.sample(n, K)
        traj = simulate_serial(spec, tau)
        return spec, tau, traj

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (6, 2)])
    def test_sojourn_recursion(self, n, seed):
        spec, tau, traj = self._run(n, seed)
        direct = trajectory_sojourn(traj.states)
        s = np.zeros(n)
        for k in range(1, spec.horizon + 1):
            tk = transition_open_infinite(tau.column(k))
            s = sojourn_matrix(tk, tau.column(k)[0]) @ s
            assert np.array_equal(s, direct[k - 1])

    @pytest.mark.parametrize("n,seed", [(2, 3), (4, 4), (6, 5)])
    def test_waiting_recursion(self, n, seed):
        spec, tau, traj = self._run(n, seed)
        direct = trajectory_waiting(traj.states, tau.tau)
        w = direct[0]  # seeded at k = 1 from the direct relation
        for k in range(2, spec.horizon + 1):
            tk = transition_open_infinite(tau.column(k))
            w = waiting_transition(tk, tau.column(k), tau.column(k - 1)) @ w
            assert np.array_equal(w, direct[k - 1])

    def test_waiting_nonnegative_infinite_buffers(self):
        _, tau, traj = self._run(5, 9)
        assert (trajectory_waiting(traj.states, tau.tau) >= 0).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 5), st.integers(1, 8), st.integers(0, 3),
           st.sampled_from(["open_mfg", "open_comm"]))
    def test_waiting_nonnegative_with_blocking(self, data, n, K, b, variant):
        """Blocking only adds time, so w >= 0 holds within the rounding gap
        for blocking variants on float tau too, on the kernel every
        strategy runs; trajectory_waiting raises otherwise."""
        cells = st.floats(0, 5, allow_nan=False, allow_infinity=False)
        tau = ServiceTimes(np.array(data.draw(st.lists(cells, min_size=n * K, max_size=n * K)))
                           .reshape(n, K))
        spec = TandemSpec(variant, n, K, buffer_capacity=b)
        trajectory_waiting(simulate(spec, tau).states, tau.tau)

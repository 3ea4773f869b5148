import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemax.core import EPS, MaxPlusMatrix
from tandemax.engine import simulate, simulate_serial
from tandemax.measures import (
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
        direct = trajectory_sojourn(traj.states, n)
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
        for blocking variants on float tau too, on the serial kernel and
        on the dense route; trajectory_waiting raises otherwise."""
        cells = st.floats(0, 5, allow_nan=False, allow_infinity=False)
        tau = ServiceTimes(np.array(data.draw(st.lists(cells, min_size=n * K, max_size=n * K)))
                           .reshape(n, K))
        spec = TandemSpec(variant, n, K, buffer_capacity=b)
        for strategy in ("serial", "vector"):
            trajectory_waiting(simulate(spec, tau, strategy).states, tau.tau)

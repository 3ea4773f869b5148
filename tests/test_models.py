import warnings

import numpy as np
import pytest
from test_acceptance import GRID_CONFIGS

from tandemax.core import E, EPS, MaxPlusMatrix
from tandemax.models import (
    ModelConfigError,
    ServiceTimes,
    TandemSpec,
    build_transition,
    service_diag,
    shift_matrix,
    transition_comm_b0,
    transition_mfg_b0,
    transition_open_infinite,
    _transitions,
)
from tandemax.solver import nilpotency_index, star_truncated

e = 0.0


class TestShiftMatrices:
    def test_g(self):
        assert shift_matrix("G", 3) == MaxPlusMatrix(
            [[EPS, EPS, EPS], [e, EPS, EPS], [EPS, e, EPS]]
        )

    def test_f(self):
        assert shift_matrix("F", 2) == MaxPlusMatrix([[EPS, e], [e, EPS]])

    def test_gt(self):
        assert shift_matrix("GT", 2) == MaxPlusMatrix([[EPS, e], [EPS, EPS]])


class TestServiceDiag:
    def test_basic(self):
        assert service_diag([1, 2, 3]) == MaxPlusMatrix.diag([1, 2, 3])
        assert service_diag([0, 0]) == MaxPlusMatrix.identity(2)
        assert service_diag([5]) == MaxPlusMatrix([[5]])

    def test_rejects_bad_entries(self):
        with pytest.raises(ModelConfigError):
            service_diag([-1.0])
        with pytest.raises(ModelConfigError):
            service_diag([EPS])


def transition(variant, tau, **kwargs):
    return build_transition(TandemSpec(variant, len(tau), 1, **kwargs), tau).readonly()


class TestClosed:
    def test_pattern(self):
        assert np.array_equal(transition("closed", [1, 2, 3]),
                              [[1, EPS, 1], [2, 2, EPS], [EPS, 3, 3]])

    def test_n2(self):
        assert np.array_equal(transition("closed", [1, 2]), [[1, 1], [2, 2]])

    def test_zero_services(self):
        f_plus_e = shift_matrix("F", 3) + MaxPlusMatrix.identity(3)
        assert np.array_equal(transition("closed", [0, 0, 0]), f_plus_e.readonly())

    def test_matches_construction(self):
        tau = [2, 5, 1, 4]
        built = service_diag(tau) @ (shift_matrix("F", 4) + MaxPlusMatrix.identity(4))
        assert np.array_equal(transition("closed", tau), built.readonly())

    def test_n1_rejected(self):
        with pytest.raises(ModelConfigError):
            transition("closed", [1])


class TestClosedC2:
    def test_blocks(self):
        t = transition("closed", [1, 2], population=2)
        assert np.array_equal(t[:2, :2], MaxPlusMatrix.diag([1, 2]).readonly())
        assert np.array_equal(t[:2, 2:], np.array([[EPS, 1], [2, EPS]]))
        assert np.array_equal(t[2:, :2], MaxPlusMatrix.identity(2).readonly())
        assert np.isneginf(t[2:, 2:]).all()

    def test_zero_services_top_blocks(self):
        t = transition("closed", [0, 0], population=2)
        assert np.array_equal(t[:2, :2], MaxPlusMatrix.identity(2).readonly())
        assert np.array_equal(t[:2, 2:], shift_matrix("F", 2).readonly())


class TestOpenInfinite:
    def test_pattern(self):
        assert transition_open_infinite([1, 2, 3]) == MaxPlusMatrix(
            [[1, EPS, EPS], [3, 2, EPS], [6, 5, 3]]
        )

    def test_n1(self):
        assert transition_open_infinite([5]) == MaxPlusMatrix([[5]])

    def test_entries_are_prefix_sums(self):
        tau = [3.0, 1.0, 4.0, 1.0, 5.0]
        t = transition_open_infinite(tau).readonly()
        for i in range(5):
            for j in range(5):
                if i >= j:
                    assert t[i, j] == sum(tau[j : i + 1])
                else:
                    assert t[i, j] == EPS


class TestBlockingB0:
    def test_mfg_pattern(self):
        assert transition_mfg_b0([1, 2, 3]) == MaxPlusMatrix(
            [[1, 0, EPS], [3, 2, 0], [6, 5, 3]]
        )
        assert transition_mfg_b0([1, 2]) == MaxPlusMatrix([[1, 0], [3, 2]])

    def test_comm_pattern(self):
        assert transition_comm_b0([1, 2, 3]) == MaxPlusMatrix(
            [[1, 1, EPS], [3, 3, 2], [6, 6, 5]]
        )
        assert transition_comm_b0([1, 2]) == MaxPlusMatrix([[1, 1], [3, 3]])


class TestBlockingB1:
    def test_mfg_blocks(self):
        t = transition("open_mfg", [1, 2], buffer_capacity=1)
        assert np.array_equal(t[:2, :2], np.array([[1, EPS], [3, 2]]))
        # top-right block is S_k (x) GT: column 2 repeats column 1 of
        # S_k, i.e. (e, tau_2) shifted; verified against the oracle
        assert np.array_equal(t[:2, 2:], np.array([[EPS, 0], [EPS, 2]]))
        assert np.array_equal(t[2:, :2], MaxPlusMatrix.identity(2).readonly())
        assert np.isneginf(t[2:, 2:]).all()

    def test_comm_top_right(self):
        t = transition("open_comm", [1, 2], buffer_capacity=1)
        assert np.array_equal(t[:2, 2:], np.array([[EPS, 1], [EPS, 3]]))

    def test_bottom_blocks_fixed(self):
        for variant in ("open_mfg", "open_comm"):
            t = transition(variant, [4, 7, 2], buffer_capacity=1)
            assert np.array_equal(t[3:, :3], MaxPlusMatrix.identity(3).readonly())
            assert np.isneginf(t[3:, 3:]).all()


class TestStarConstructions:
    """Closed forms must reproduce the star-sum constructions exactly."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_agreement(self, n):
        # float draws too: every matrix sums tau in the star's order
        rng = np.random.default_rng(n)
        draws = [rng.integers(0, 10, size=n).astype(float) for _ in range(20)]
        draws += [rng.uniform(0, 5, size=n) for _ in range(20)]
        for tau in draws:
            tk = service_diag(tau)
            g = shift_matrix("G", n)
            gt = shift_matrix("GT", n)
            s = star_truncated(tk @ g, n)
            assert transition_open_infinite(tau) == s @ tk
            assert transition_mfg_b0(tau) == s @ (gt + tk)
            assert transition_comm_b0(tau) == s @ (tk @ (MaxPlusMatrix.identity(n) + gt))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_augmented_blocks(self, n):
        """The augmented forms are written in closed form; their blocks
        must equal the star-sum products bit for bit on float tau."""
        rng = np.random.default_rng(100 + n)
        g = shift_matrix("G", n)
        gt = shift_matrix("GT", n)
        for b in (1, 2, 3):
            tau = rng.uniform(0, 5, size=n)
            tk = service_diag(tau)
            s = star_truncated(tk @ g, n)
            feedback = {"open_mfg": s @ gt, "open_comm": s @ (tk @ gt)}
            for variant, want in feedback.items():
                t = transition(variant, tau, buffer_capacity=b)
                assert np.array_equal(t[:n, :n], (s @ tk).readonly())
                assert np.array_equal(t[:n, b * n :], want.readonly())
            top_right = transition("closed", tau, population=b + 1)[:n, b * n :]
            assert np.array_equal(top_right, (tk @ shift_matrix("F", n)).readonly())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_service_shift_nilpotency(self, n):
        tau = np.arange(n, dtype=float)
        a = service_diag(tau) @ shift_matrix("G", n)
        assert nilpotency_index(a).index == n


class TestDominanceAndShape:
    def test_entrywise_dominance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            tau = rng.integers(0, 10, size=5).astype(float)
            inf = transition_open_infinite(tau).readonly()
            mfg = transition_mfg_b0(tau).readonly()
            comm = transition_comm_b0(tau).readonly()
            assert np.all(comm >= mfg)
            assert np.all(mfg >= inf)

    def test_lower_triangular(self):
        t = transition_open_infinite([2, 4, 6, 8]).readonly()
        for i in range(4):
            for j in range(i + 1, 4):
                assert t[i, j] == EPS


class TestBuildTransition:
    def test_dispatch(self):
        closed = TandemSpec("closed", 3, 5)
        assert build_transition(closed, [1, 2, 3]) == MaxPlusMatrix(
            [[1, EPS, 1], [2, 2, EPS], [EPS, 3, 3]]
        )
        mfg = TandemSpec("open_mfg", 2, 5)
        assert build_transition(mfg, [1, 2]) == transition_mfg_b0([1, 2])
        c2 = TandemSpec("closed", 2, 5, population=2)
        assert build_transition(c2, [1, 2]) == MaxPlusMatrix(
            [[1, EPS, EPS, 1], [EPS, 2, 2, EPS], [e, EPS, EPS, EPS], [EPS, e, EPS, EPS]]
        )
        b1 = TandemSpec("open_comm", 2, 5, buffer_capacity=1)
        assert build_transition(b1, [1, 2]) == MaxPlusMatrix(
            [[1, EPS, EPS, 1], [3, 2, EPS, 3], [e, EPS, EPS, EPS], [EPS, e, EPS, EPS]]
        )

    def test_arity_of_generalized_forms(self):
        spec = TandemSpec("open_comm", 2, 5, buffer_capacity=3)
        assert spec.arity == 8
        assert build_transition(spec, [1, 2]).shape == (8, 8)
        spec = TandemSpec("closed", 2, 5, population=3)
        assert spec.arity == 6
        assert build_transition(spec, [1, 2]).shape == (6, 6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelConfigError):
            build_transition(TandemSpec("open_infinite", 3, 5), [1, 2])

    @pytest.mark.parametrize("variant", ["open_infinite", "open_mfg", "open_comm"])
    def test_overflowing_prefix_sum_rejected(self, variant):
        # tau_1 + tau_2 overflows to +inf; no numpy overflow warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ModelConfigError, match="prefix sum .* overflows float64$"):
                build_transition(TandemSpec(variant, 3, 5), [1e308, 1e308, 1.0])


@pytest.mark.parametrize("variant,kwargs", [*GRID_CONFIGS, ("closed", {"population": 3})])
def test_stacked_build_equals_build_transition(variant, kwargs):
    """The raw builder takes a stack of service vectors (K, n) and gives
    the top block rows (K, n, m): row block k is the first n rows of
    build_transition's T_k bit for bit, sign of zero included, on
    integer, float and signed-zero tau; T_k's rows n..m are exactly the
    identity blocks, e at (n + j, j), eps elsewhere."""
    rng = np.random.default_rng(2)
    K = 6
    for n in (2, 5, 8):
        spec = TandemSpec(variant, n, K, **kwargs)
        m = spec.arity
        below = np.full((m - n, m), EPS)
        below[np.arange(m - n), np.arange(m - n)] = E
        for tau in (rng.integers(0, 9, (n, K)).astype(float), rng.uniform(0, 5, (n, K)),
                    rng.choice([0.0, -0.0, 1.0, 2.5], size=(n, K))):
            stacked = _transitions(spec, tau.T)
            assert stacked.shape == (K, n, m)
            for k in range(K):
                want = build_transition(spec, tau[:, k]).readonly()
                assert np.array_equal(stacked[k], want[:n])
                assert np.array_equal(np.signbit(stacked[k]), np.signbit(want[:n]))
                assert np.array_equal(want[n:], below)
                assert np.array_equal(np.signbit(want[n:]), np.signbit(below))


class TestSpecValidation:
    def test_variants(self):
        with pytest.raises(ModelConfigError):
            TandemSpec("bogus", 2, 5)
        with pytest.raises(ModelConfigError):
            TandemSpec("open_mfg", 1, 5)
        with pytest.raises(ModelConfigError):
            TandemSpec("open_infinite", 2, 5, population=2)
        with pytest.raises(ModelConfigError):
            TandemSpec("closed", 2, 5, buffer_capacity=1)
        # n = 1 degenerate arrival stream is allowed open-infinite only
        assert TandemSpec("open_infinite", 1, 5).arity == 1

    def test_service_times_validation(self):
        with pytest.raises(ModelConfigError):
            ServiceTimes(np.array([[-1.0]]))
        with pytest.raises(ModelConfigError):
            ServiceTimes(np.array([1.0, 2.0]))
        st = ServiceTimes(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert list(st.column(2)) == [2.0, 4.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    @pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 299)])
    def test_service_times_rule(self, bad, at):
        """One rule, with one message, for every cell that is not finite
        and >= 0, wherever it sits, among cells that pass; -0.0 and an
        empty matrix pass."""
        tau = np.full((3, 300), 2.0)
        tau[at] = bad
        with pytest.raises(ModelConfigError, match=r"^service times must be finite and >= 0$"):
            ServiceTimes(tau)
        tau[at] = -0.0
        assert np.signbit(ServiceTimes(tau).tau[at])
        assert ServiceTimes(np.empty((3, 0))).horizon == 0


def test_rounding_gap():
    d = np.array([[EPS, 3.0], [-8.0, 5.0]])
    assert ServiceTimes(np.array([[1.0, 2.0], [0.0, 7.0]])).rounding_gap(d) == 0.0
    tau = ServiceTimes(np.array([[0.5, 2.0], [0.0, 7.0]]))
    assert tau.rounding_gap(d) == (2 + 2) * 2.0**-53 * 8.0
    # integers stay exact while their total, and so every sum, is below 2**53
    below = ServiceTimes(np.array([[2.0**52, 1.0], [2.0**52 - 2, 0.0]]))
    assert below.rounding_gap(d) == 0.0
    at = ServiceTimes(np.array([[2.0**52, 1.0], [2.0**52 - 1, 0.0]]))
    assert at.rounding_gap(d) == (2 + 2) * 2.0**-53 * 8.0
    # NaN and +inf cells are skipped like eps, also where the other
    # reduction is NaN too and max(0.0, nan, nan) would drop both
    for d in ([[np.nan, 3.0], [-8.0, 5.0]], [[np.inf, 3.0], [-8.0, 5.0]],
              [[np.nan, np.inf], [EPS, 8.0]], [[np.nan, 3.0], [1.0, 8.0]]):
        assert tau.rounding_gap(np.array(d)) == (2 + 2) * 2.0**-53 * 8.0
    assert tau.rounding_gap(np.array([[np.nan, np.inf], [EPS, -0.0]])) == 0.0


def test_is_exact():
    # integer-valued tau is exact while its total stays below 2**53
    assert ServiceTimes(np.array([[2.0**52, 1.0], [2.0**52 - 2, 0.0]])).exact
    assert not ServiceTimes(np.array([[2.0**52, 1.0], [2.0**52 - 1, 0.0]])).exact
    assert not ServiceTimes(np.array([[0.5, 2.0], [0.0, 7.0]])).exact
    assert ServiceTimes(np.array([[-0.0, 0.0], [3.0, 0.0]])).exact


@pytest.mark.parametrize("n,K", [(40, 2000), (3, 2**16 + 5)])
def test_is_exact_in_row_blocks(n, K):
    """exact reads tau in blocks of at most 2**16 cells, or one row when a
    row is longer: a fraction in the last cell of the last block counts."""
    tau = np.ones((n, K))
    assert ServiceTimes(tau.copy()).exact
    tau[-1, -1] = 0.5
    assert not ServiceTimes(tau).exact


def test_is_exact_when_the_total_overflows():
    """A total of tau that overflows float64 is past 2**53: not exact, and
    no numpy overflow warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not ServiceTimes(np.full((8, 8), 5e306)).exact

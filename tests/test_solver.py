import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemax.core import EPS, MaxPlusMatrix, ShapeError
from tandemax.solver import nilpotency_index, star_truncated


def subdiagonal(alphas):
    n = len(alphas) + 1
    a = np.full((n, n), EPS)
    for i, alpha in enumerate(alphas):
        a[i + 1, i] = alpha
    return MaxPlusMatrix(a)


def random_strictly_lower(rng, n):
    """Random strictly-lower-triangular pattern; nilpotent by construction."""
    a = np.full((n, n), EPS)
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.6:
                a[i, j] = float(rng.integers(-9, 10))
    return MaxPlusMatrix(a)


class TestNilpotency:
    def test_subdiagonal_index_is_order(self):
        cert = nilpotency_index(subdiagonal([1, 2]))
        assert cert.index == 3

    def test_null_matrix(self):
        assert nilpotency_index(MaxPlusMatrix.null(4)).index == 1

    def test_identity_not_nilpotent(self):
        cert = nilpotency_index(MaxPlusMatrix.identity(2), bound=2)
        assert not cert.nilpotent and cert.index is None

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            nilpotency_index(MaxPlusMatrix.null(2, 3))

    def test_index_is_least(self):
        a = subdiagonal([0, 0, 0])
        p = nilpotency_index(a).index
        assert p == 4
        power = a
        for _ in range(1, p):
            assert not power.is_null()
            power = power @ a
        assert power.is_null()


class TestStar:
    def test_order_one_is_identity(self):
        a = MaxPlusMatrix([[EPS, EPS], [1, EPS]])
        assert star_truncated(a, 1) == MaxPlusMatrix.identity(2)

    def test_order_two(self):
        a = MaxPlusMatrix([[EPS, EPS], [1, EPS]])
        assert star_truncated(a, 2) == MaxPlusMatrix([[0, EPS], [1, 0]])

    def test_null_powers_vanish(self):
        assert star_truncated(MaxPlusMatrix.null(3), 3) == MaxPlusMatrix.identity(3)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            star_truncated(MaxPlusMatrix.null(2), 0)


def solve(a, b):
    """Lemma 1: x = A* (x) b, with A* the star truncated at the nilpotency index."""
    return star_truncated(a, nilpotency_index(a).index) @ b


class TestSolveImplicit:
    def test_two_station_example(self):
        a = MaxPlusMatrix([[EPS, EPS], [1, EPS]])
        x = solve(a, np.array([0.0, 0.0]))
        assert list(x) == [0.0, 1.0]

    def test_null_collapses_to_b(self):
        b = np.array([3.0, EPS, 7.0])
        assert np.array_equal(solve(MaxPlusMatrix.null(3), b), b)

    def test_cascade(self):
        a = subdiagonal([2, 3])
        x = solve(a, np.array([0.0, EPS, EPS]))
        assert list(x) == [0.0, 2.0, 5.0]

    def test_not_nilpotent_rejected(self):
        # A = E has no nilpotency index, and x = x (+) b has many solutions
        a, b = MaxPlusMatrix.identity(2), np.array([0.0, 0.0])
        assert nilpotency_index(a).index is None
        for x in (b, b + 1):
            assert np.array_equal(np.maximum(a @ x, b), x)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            solve(MaxPlusMatrix.null(2), np.array([0.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 32 - 1))
def test_fixed_point_residual_and_uniqueness(n, seed):
    rng = np.random.default_rng(seed)
    a = random_strictly_lower(rng, n)
    b = rng.integers(-9, 10, size=n).astype(float)
    p = nilpotency_index(a).index
    x = star_truncated(a, p) @ b
    # fixed-point residual, exact
    assert np.array_equal(np.maximum(a @ x, b), x)
    # iteration from an arbitrary start converges to the same point in p steps
    y = rng.integers(-50, 50, size=n).astype(float)
    for _ in range(p):
        y = np.maximum(a @ y, b)
    assert np.array_equal(y, x)

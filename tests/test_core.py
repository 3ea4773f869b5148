import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemax.core import (
    E,
    EPS,
    MaxPlusMatrix,
    NotInvertibleError,
    ShapeError,
    inverse,
    oplus,
    otimes,
)

scalars = st.one_of(st.just(EPS), st.integers(-20, 20).map(float))
finite = st.integers(-20, 20).map(float)


def mat(rows):
    return MaxPlusMatrix(rows)


matrices_3 = st.lists(
    st.lists(scalars, min_size=3, max_size=3), min_size=3, max_size=3
).map(mat)


class TestScalars:
    def test_oplus_examples(self):
        assert oplus(3.0, 5.0) == 5.0
        assert oplus(EPS, 7.0) == 7.0
        assert oplus(4.0, 4.0) == 4.0

    def test_otimes_examples(self):
        assert otimes(3.0, 5.0) == 8.0
        assert otimes(EPS, 7.0) == EPS
        assert otimes(E, 7.0) == 7.0

    def test_inverse(self):
        assert inverse(3.0) == -3.0
        with pytest.raises(NotInvertibleError):
            inverse(EPS)

    @given(scalars, scalars, scalars)
    def test_semiring_laws(self, x, y, z):
        assert oplus(x, oplus(y, z)) == oplus(oplus(x, y), z)
        assert otimes(x, otimes(y, z)) == otimes(otimes(x, y), z)
        assert oplus(x, y) == oplus(y, x)
        assert otimes(x, y) == otimes(y, x)
        assert otimes(x, oplus(y, z)) == oplus(otimes(x, y), otimes(x, z))
        assert oplus(x, x) == x
        assert oplus(x, EPS) == x
        assert otimes(x, E) == x
        assert otimes(x, EPS) == EPS

    @given(finite, finite)
    def test_product_inverse(self, x, y):
        assert inverse(otimes(x, y)) == otimes(inverse(x), inverse(y))


class TestMatrices:
    def test_add_example(self):
        a = mat([[1, EPS], [EPS, 2]])
        b = mat([[0, 3], [EPS, EPS]])
        assert a + b == mat([[1, 3], [EPS, 2]])

    def test_add_null_and_idempotent(self):
        a = mat([[1, EPS], [EPS, 2]])
        assert a + MaxPlusMatrix.null(2) == a
        assert a + a == a

    def test_mul_example(self):
        a = mat([[0, EPS], [1, 0]])
        b = mat([[2, EPS], [EPS, 3]])
        assert a @ b == mat([[2, EPS], [3, 3]])

    def test_mul_identity_and_null(self):
        a = mat([[1, 2], [3, EPS]])
        e = MaxPlusMatrix.identity(2)
        z = MaxPlusMatrix.null(2)
        assert e @ a == a
        assert a @ e == a
        assert (z @ a).is_null()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            mat([[1, 2]]) + mat([[1], [2]])
        with pytest.raises(ShapeError):
            mat([[1, 2]]) @ mat([[1, 2]])

    def test_pow(self):
        a = mat([[EPS, EPS], [5, EPS]])
        assert MaxPlusMatrix.identity(2) @ a == a
        assert (a @ a).is_null()
        d = mat([[1, EPS], [EPS, 1]])
        assert d @ d @ d == mat([[3, EPS], [EPS, 3]])

    def test_diag(self):
        assert MaxPlusMatrix.diag([1, 2, 3]) == mat(
            [[1, EPS, EPS], [EPS, 2, EPS], [EPS, EPS, 3]]
        )
        assert MaxPlusMatrix.diag([E, E]) == MaxPlusMatrix.identity(2)
        assert MaxPlusMatrix.diag([]).shape == (0, 0)

    def test_diag_inverse(self):
        d = MaxPlusMatrix.diag([2, 5])
        assert d.diag_inverse() == MaxPlusMatrix.diag([-2, -5])
        assert d @ d.diag_inverse() == MaxPlusMatrix.identity(2)
        e = MaxPlusMatrix.identity(3)
        assert e.diag_inverse() == e
        with pytest.raises(NotInvertibleError):
            MaxPlusMatrix.diag([EPS, 3]).diag_inverse()
        with pytest.raises(NotInvertibleError):
            mat([[1, 0], [EPS, 2]]).diag_inverse()

    def test_matvec(self):
        a = mat([[1, EPS], [3, 2]])
        v = a @ np.array([0.0, 0.0])
        assert list(v) == [1.0, 3.0]

    def test_no_nan_from_eps(self):
        a = MaxPlusMatrix.null(3)
        prod = (a @ a).readonly()
        assert not np.isnan(prod).any()

    def test_rejects_nan_and_posinf(self):
        with pytest.raises(ValueError):
            mat([[float("nan")]])
        with pytest.raises(ValueError):
            mat([[float("inf")]])

    @settings(max_examples=200)
    @given(matrices_3, matrices_3, matrices_3)
    def test_matrix_laws(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == (a @ b) + (a @ c)
        assert (a + b) @ c == (a @ c) + (b @ c)
        assert a + b == b + a
        assert a + a == a

    @settings(max_examples=200)
    @given(matrices_3, matrices_3, matrices_3)
    def test_mul_monotone(self, a, a2, b):
        lo = a + a2  # entrywise upper bound of a
        assert np.all((a @ b).readonly() <= (lo @ b).readonly())


import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qsysid
import qsysid.opspace
from qsysid import DynamicalParams, LieAlgebraElement, OperatorTuple, TangentVector
from qsysid.opspace import apply, devectorize, expm, left_right_superop, vectorize

from conftest import E01, I2, SZ, random_hermitian, random_matrix

rng = np.random.default_rng(101)


class TestVectorize:
    def test_identity_column_stacking(self):
        assert_allclose(vectorize(I2), [1, 0, 0, 1])

    def test_single_entry(self):
        # |0><1| has its only entry at (0, 1) -> index 1*2 + 0 = 2
        assert_allclose(vectorize(E01), [0, 0, 1, 0])

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, d, seed):
        X = random_matrix(np.random.default_rng(seed), d)
        assert np.array_equal(devectorize(vectorize(X), d), X)
        assert np.array_equal(devectorize(vectorize(X)), X)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            devectorize(np.zeros(3))


class TestLeftRight:
    def test_identity_pair(self):
        S = left_right_superop(I2, I2)
        assert_allclose(S, np.eye(4), atol=1e-15)

    def test_right_multiplication(self):
        S = left_right_superop(I2, E01)
        assert_allclose(apply(S, I2), E01, atol=1e-15)

    def test_against_direct_product(self):
        for _ in range(10):
            A, B, X = (random_matrix(rng, 4) for _ in range(3))
            assert_allclose(apply(left_right_superop(A, B), X), A @ X @ B, atol=1e-13)

    def test_composition_law(self):
        for _ in range(5):
            A, B, C, Dm, X = (random_matrix(rng, 3) for _ in range(5))
            lhs = left_right_superop(C, Dm) @ left_right_superop(A, B)
            rhs = left_right_superop(C @ A, B @ Dm)
            assert_allclose(apply(lhs, X), apply(rhs, X), atol=1e-12 * max(1, np.abs(apply(lhs, X)).max()))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            left_right_superop(I2, np.eye(3))


class TestExpm:
    def test_time_zero(self):
        S = random_matrix(rng, 4)
        assert_allclose(expm(S, 0.0), np.eye(4), atol=1e-14)

    def test_zero_generator(self):
        assert_allclose(expm(np.zeros((4, 4)), 3.7), np.eye(4), atol=1e-14)

    def test_nilpotent_truncated_series(self):
        # (X -> E01 X E01) squares to zero, so the series stops at first order
        S = left_right_superop(E01, E01)
        assert_allclose(S @ S, 0, atol=1e-15)
        t = 0.83
        assert_allclose(expm(S, t), np.eye(4) + t * S, atol=1e-13)

    def test_semigroup_property(self):
        S = random_matrix(rng, 4)
        assert_allclose(expm(S, 0.4) @ expm(S, 1.1), expm(S, 1.5), atol=1e-11)

    def test_second_order_residual(self):
        S = random_matrix(rng, 4)
        X = random_matrix(rng, 2)
        errs = []
        for h in (1e-4, 1e-5):
            errs.append(np.linalg.norm(apply(expm(S, h), X) - X - h * apply(S, X)))
        # halving h by 10 should cut the residual by ~100
        assert errs[1] < 2e-2 * errs[0]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expm(np.zeros((4, 4)), -1.0)

    def test_non_finite_result_rejected(self):
        # exp(800) overflows to inf
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            expm(800.0 * np.eye(4), 1.0)


# (constructor from head and tail operators, attribute of the head, head Hermitian?)
CONTAINERS = [
    (DynamicalParams, "h", True),
    (TangentVector, "dh", True),
    (OperatorTuple, "x0", False),
    (lambda head, tail: LieAlgebraElement(head, 0.5), "k", True),
]


@pytest.mark.parametrize("make, head_attr, hermitian", CONTAINERS)
class TestFrozenContainers:
    def test_read_only_copy(self, make, head_attr, hermitian):
        head = random_hermitian(rng, 3)
        stored = getattr(make(head, [random_matrix(rng, 3)]), head_attr)
        assert_allclose(stored, head)
        head[0, 0] += 1.0
        assert stored[0, 0] != head[0, 0]
        assert not stored.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, make, head_attr, hermitian, bad):
        head, tail = random_hermitian(rng, 2), random_matrix(rng, 2)
        head[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make(head, [tail])
        if head_attr != "k":  # a Lie algebra element has no tail
            tail[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                make(random_hermitian(rng, 2), [tail])

    def test_rejects_non_square_or_unequal_shapes(self, make, head_attr, hermitian):
        with pytest.raises(ValueError, match="square"):
            make(np.zeros((2, 3)), [])
        if head_attr != "k":
            with pytest.raises(ValueError, match="square"):
                make(random_hermitian(rng, 2), [random_matrix(rng, 3)])

    def test_hermitian_head(self, make, head_attr, hermitian):
        head = random_matrix(rng, 2)
        if hermitian:
            with pytest.raises(ValueError, match="Hermitian"):
                make(head, [random_matrix(rng, 2)])
        else:
            assert_allclose(getattr(make(head, [random_matrix(rng, 2)]), head_attr), head)


class TestPublicApi:
    def test_top_level_exports_paper_objects_only(self):
        kernel = {name for name in vars(qsysid.opspace) if not name.startswith("_")}
        for name in qsysid.__all__:
            obj = getattr(qsysid, name)
            assert not isinstance(obj, types.ModuleType), name
            assert name not in kernel, name
        assert len(set(qsysid.__all__)) == len(qsysid.__all__)

import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qsysid
import qsysid.opspace
from qsysid import DynamicalParams, LieAlgebraElement, OperatorTuple, TangentVector
from qsysid.opspace import apply, devectorize, expm, left_right_superop, vectorize

from conftest import E01, I2, SZ, random_ergodic, random_hermitian, random_matrix

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
        assert np.array_equal(expm(S, 0.0), np.eye(4))

    def test_zero_generator(self):
        assert np.array_equal(expm(np.zeros((4, 4)), 3.7), np.eye(4))

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

    @pytest.mark.parametrize(
        "S, t",
        [
            (800.0 * np.eye(4), 1.0),
            (800.0 * np.eye(4) + random_matrix(rng, 4), 1.0),
            (np.array([[-1.0, 1.0], [0.5, -0.5]]), 1e200),  # the powers of t S overflow
        ],
    )
    def test_overflow_raises_without_warnings(self, S, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                expm(S, t)


def _rel_err(E, ref):
    return np.linalg.norm(E - ref, 1) / np.linalg.norm(ref, 1)


class TestExpmOracle:
    """expm against scipy.linalg.expm, where scipy is installed."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_generator_and_van_loan_block(self, d):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        D, rep = random_ergodic(np.random.default_rng(d), d, 1, min_gap=0.01)
        W = rep.generator
        n = d * d
        # the block finite_time_covariance exponentiates: [[0, I, 0], [0, W, Phi], [0, 0, W]]
        blk = np.zeros((3 * n, 3 * n), dtype=complex)
        blk[:n, n : 2 * n] = np.eye(n)
        blk[n : 2 * n, n : 2 * n] = blk[2 * n :, 2 * n :] = W
        blk[n : 2 * n, 2 * n :] = left_right_superop(random_matrix(rng, d), D.ls[0])
        for S in (W, blk):
            for t_gap in (1.0, 50.0, 400.0):
                t = t_gap / rep.spectral_gap
                assert _rel_err(expm(S, t), scipy_linalg.expm(t * S)) < 1e-12

    def test_random_matrices_up_to_norm_three(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for norm in np.geomspace(1e-8, 3.0, 12):
            for n in (2, 5, 16):
                S = random_matrix(rng, n)
                S *= norm / np.linalg.norm(S, 1)
                assert _rel_err(expm(S, 1.0), scipy_linalg.expm(S)) < 1e-14


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
    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(qsysid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, qsysid, qsysid.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "[]"

    def test_top_level_exports_paper_objects_only(self):
        kernel = {name for name in vars(qsysid.opspace) if not name.startswith("_")}
        for name in qsysid.__all__:
            obj = getattr(qsysid, name)
            assert not isinstance(obj, types.ModuleType), name
            assert name not in kernel, name
        assert len(set(qsysid.__all__)) == len(qsysid.__all__)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsysid import (
    DynamicalParams,
    NonErgodicError,
    heisenberg_generator,
    restricted_inverse,
    schrodinger_generator,
    semigroup_apply,
    stationary_state,
)
from qsysid.lindblad import require_ergodic
from qsysid.opspace import apply, expm, vectorize

from conftest import E01, I2, random_ergodic, random_hermitian, random_matrix

rng = np.random.default_rng(202)

RHO_PRESET = np.array([[2 / 3, 1j / 3], [-1j / 3, 1 / 3]])


class TestGenerators:
    def test_trivial_dynamics_is_zero(self):
        D = DynamicalParams(np.zeros((2, 2)), [np.zeros((2, 2))])
        assert_allclose(heisenberg_generator(D), 0, atol=1e-15)

    def test_pure_hamiltonian_is_commutator(self):
        H = random_hermitian(rng, 3)
        D = DynamicalParams(H, [])
        X = random_matrix(rng, 3)
        assert_allclose(apply(heisenberg_generator(D), X), 1j * (H @ X - X @ H), atol=1e-12)

    def test_unitality(self):
        for d, k in [(2, 1), (3, 2)]:
            D = DynamicalParams(random_hermitian(rng, d), [random_matrix(rng, d) for _ in range(k)])
            assert np.max(np.abs(apply(heisenberg_generator(D), np.eye(d)))) < 1e-12

    def test_hermiticity_preserved(self):
        D, _ = random_ergodic(rng, 3, 2)
        X = random_hermitian(rng, 3)
        WX = apply(heisenberg_generator(D), X)
        assert_allclose(WX, WX.conj().T, atol=1e-12)

    def test_preset_annihilates_closed_form_state(self, preset_point):
        _, D, _ = preset_point
        assert np.max(np.abs(apply(schrodinger_generator(D), RHO_PRESET))) < 1e-12

    def test_duality(self):
        D, _ = random_ergodic(rng, 2, 1)
        W, Wstar = heisenberg_generator(D), schrodinger_generator(D)
        for _ in range(5):
            rho, X = random_matrix(rng, 2), random_matrix(rng, 2)
            assert np.vdot(apply(Wstar, rho), X) == pytest.approx(np.vdot(rho, apply(W, X)), abs=1e-12)
        assert_allclose(Wstar, W.conj().T, atol=1e-12)

    def test_dual_of_zero_generator(self):
        D = DynamicalParams(np.zeros((2, 2)), [np.zeros((2, 2))])
        assert_allclose(schrodinger_generator(D), 0, atol=1e-15)

    def test_trace_preservation(self):
        D, _ = random_ergodic(rng, 3, 1)
        rho = random_matrix(rng, 3)
        assert abs(np.trace(apply(schrodinger_generator(D), rho))) < 1e-12

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DynamicalParams(random_matrix(rng, 2), [])


class TestStationaryState:
    def test_preset_closed_form(self, preset_point):
        _, D, rep = preset_point
        assert rep.ergodic
        assert rep.zero_eigen_count == 1
        assert_allclose(rep.stationary, RHO_PRESET, atol=1e-12)
        assert rep.min_stationary_eigenvalue > 0.05
        assert rep.spectral_gap == pytest.approx(0.5, abs=1e-10)

    def test_unitary_dynamics_not_ergodic(self):
        rep = stationary_state(DynamicalParams(random_hermitian(rng, 2), []))
        assert not rep.ergodic
        assert rep.zero_eigen_count >= 2

    def test_pure_decay_not_ergodic(self):
        rep = stationary_state(DynamicalParams(np.zeros((2, 2)), [E01]))
        assert not rep.ergodic
        # absorbing state |0><0| is a fixed point but not full rank
        assert rep.min_stationary_eigenvalue < 1e-10
        assert_allclose(rep.stationary, np.diag([1.0, 0.0]), atol=1e-10)

    def test_spectrum_split(self):
        for d, k in [(2, 1), (3, 2)]:
            D, rep = random_ergodic(rng, d, k)
            W = heisenberg_generator(D)
            vals = np.linalg.eigvals(W)
            tol = 1e-9 * (1 + np.linalg.norm(W))
            near = np.abs(vals) < tol
            assert np.count_nonzero(near) == 1
            assert np.all(vals[~near].real < 0)

    def test_fixed_point_residual(self):
        D, rep = random_ergodic(rng, 3, 2)
        assert np.max(np.abs(apply(schrodinger_generator(D), rep.stationary))) < 1e-10
        assert np.trace(rep.stationary) == pytest.approx(1.0, abs=1e-12)

    def test_cached_generator_is_read_only(self, preset_point):
        _, D, _ = preset_point
        W = require_ergodic(D).generator
        assert isinstance(W, np.ndarray) and W.shape == (4, 4)
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 1.0
        assert_allclose(W, heisenberg_generator(D), atol=0)


class TestRestrictedInverse:
    def test_inverts_forward_map(self):
        D, rep = random_ergodic(rng, 2, 1)
        W, rho = heisenberg_generator(D), rep.stationary
        K0 = random_matrix(rng, 2)
        K0 -= np.trace(rho @ K0) * I2
        K = restricted_inverse(D, apply(W, K0))
        assert_allclose(K, K0, atol=1e-9)

    def test_zero_maps_to_zero(self):
        D, _ = random_ergodic(rng, 2, 1)
        assert_allclose(restricted_inverse(D, np.zeros((2, 2))), 0, atol=1e-12)

    def test_centering_constraint(self):
        D, rep = random_ergodic(rng, 2, 1)
        X = apply(heisenberg_generator(D), random_matrix(rng, 2))
        K = restricted_inverse(D, X)
        assert abs(np.trace(rep.stationary @ K)) < 1e-10

    def test_rejects_uncentred_input(self):
        D, _ = random_ergodic(rng, 2, 1)
        with pytest.raises(ValueError, match="B_0"):
            restricted_inverse(D, I2)

    def test_stack_solves_each_operator(self):
        D, _ = random_ergodic(rng, 3, 2)
        W = heisenberg_generator(D)
        X = np.stack([apply(W, random_matrix(rng, 3)) for _ in range(4)]).reshape(2, 2, 3, 3)
        K = restricted_inverse(D, X)
        assert K.shape == (2, 2, 3, 3)
        for i in range(2):
            for j in range(2):
                assert_allclose(K[i, j], restricted_inverse(D, X[i, j]), atol=1e-13)
        with pytest.raises(ValueError, match="B_0"):
            restricted_inverse(D, np.stack([X[0, 0], np.eye(3)]))

    def test_rejects_non_ergodic(self):
        D = DynamicalParams(random_hermitian(rng, 2), [])
        with pytest.raises(NonErgodicError):
            restricted_inverse(D, np.zeros((2, 2)))

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_group_inverse(self, d):
        D, _ = random_ergodic(np.random.default_rng(d), d, 1, min_gap=0.01)
        rep = require_ergodic(D)
        G, W, n = rep.group_inverse, rep.generator, d * d
        assert G.shape == (n, n) and not G.flags.writeable
        ident, rho = vectorize(np.eye(d)), vectorize(rep.stationary)
        norm = lambda X: np.linalg.norm(X, 1)
        assert norm(W @ G @ W - W) < 1e-12 * norm(W)
        proj = np.eye(n) - np.outer(ident, rho.conj())  # I - |id><rho|
        assert norm(G @ W - proj) < 1e-12
        assert norm(W @ G - proj) < 1e-12
        border = np.block([[W, ident[:, None]], [rho.conj()[None, :], np.zeros((1, 1))]])
        fresh = np.linalg.solve(border, np.vstack([np.eye(n), np.zeros((1, n))]))[:n]
        assert norm(G - fresh) < 1e-12 * norm(G)

    def test_agrees_with_semigroup_integral(self, preset_point):
        # -W^{-1}(X) equals the integrated semigroup int_0^T T_s(X) ds on B_0;
        # composite Simpson over expm nodes as an independent oracle
        _, D, rep = preset_point
        W, rho = heisenberg_generator(D), rep.stationary
        X = random_matrix(rng, 2)
        X -= np.trace(rho @ X) * I2
        K = restricted_inverse(D, X)

        T = 50.0 / rep.spectral_gap
        n = 2000
        h = T / n
        step = expm(W, h)
        weights = np.ones(n + 1)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        weights *= h / 3.0
        acc = np.zeros(4, dtype=complex)
        v = X.reshape(-1, order="F")
        for w_k in weights:
            acc += w_k * v
            v = step @ v
        integral = acc.reshape(2, 2, order="F")
        assert np.max(np.abs(-K - integral)) < 1e-6


class TestDeskScale:
    def test_dimension_eight(self):
        # the largest advertised system size: 64 x 64 superoperators
        D, rep = random_ergodic(rng, 8, 1, min_gap=0.01)
        assert rep.ergodic
        W = heisenberg_generator(D)
        assert W.shape == (64, 64)
        X = random_matrix(rng, 8)
        X -= np.trace(rep.stationary @ X) * np.eye(8)
        K = restricted_inverse(D, X)
        assert np.max(np.abs(apply(W, K) - X)) < 1e-9 * (1 + np.linalg.norm(X))
        assert np.max(np.abs(semigroup_apply(D, 0.7, np.eye(8)) - np.eye(8))) < 1e-10


class TestSemigroup:
    def test_time_zero_identity(self):
        D, _ = random_ergodic(rng, 2, 1)
        X = random_matrix(rng, 2)
        assert_allclose(semigroup_apply(D, 0.0, X), X, atol=1e-13)

    def test_unitality_all_times(self):
        D, _ = random_ergodic(rng, 2, 1)
        for t in (0.3, 2.0, 11.0):
            assert_allclose(semigroup_apply(D, t, I2), I2, atol=1e-11)

    def test_stationarity_of_mean(self):
        D, rep = random_ergodic(rng, 2, 1)
        X = random_matrix(rng, 2)
        for t in (0.5, 4.0):
            assert np.trace(rep.stationary @ semigroup_apply(D, t, X)) == pytest.approx(
                np.trace(rep.stationary @ X), abs=1e-10
            )

    def test_convergence_to_stationary_mean(self, preset_point):
        _, D, rep = preset_point
        t = 100.0 / rep.spectral_gap
        for _ in range(3):
            X = random_matrix(rng, 2)
            limit = np.trace(rep.stationary @ X) * I2
            assert np.max(np.abs(semigroup_apply(D, t, X) - limit)) < 1e-8

    def test_positivity_witness(self):
        D, _ = random_ergodic(rng, 2, 1)
        Wstar = schrodinger_generator(D)
        for _ in range(5):
            A = random_matrix(rng, 2)
            rho = A @ A.conj().T
            rho /= np.trace(rho)
            t = float(rng.uniform(0, 10))
            evolved = apply(expm(Wstar, t), rho)
            assert np.min(np.linalg.eigvalsh(0.5 * (evolved + evolved.conj().T))) >= -1e-9

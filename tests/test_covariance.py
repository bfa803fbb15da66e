from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import qsysid.lindblad
from qsysid import (
    GaugeElement,
    LieAlgebraElement,
    OperatorTuple,
    TangentVector,
    centering,
    finite_time_covariance,
    gauge_apply,
    gauge_pushforward,
    heisenberg_generator,
    horizontal_projection,
    l_map,
    lie_pushforward,
    markov_covariance,
    markov_covariance_expanded,
    qfi_rate,
    r_projection,
    restricted_inverse,
    tangent_covariance,
    tangent_gram,
    two_level_tangents,
    x_map,
)
from qsysid.opspace import apply

from conftest import (
    E11,
    I2,
    random_ergodic,
    random_hermitian,
    random_matrix,
    random_tangent,
    random_unitary,
)

rng = np.random.default_rng(404)


def random_tuple(rng, d, k):
    return OperatorTuple(random_matrix(rng, d), [random_matrix(rng, d) for _ in range(k)])


def kernel_tuple(D, rep, rng):
    """A degenerate direction W(K) + r id paired with the matching commutators."""
    K = random_matrix(rng, D.dim)
    r = complex(rng.normal(), rng.normal())
    W = heisenberg_generator(D)
    return OperatorTuple(
        apply(W, K) + r * np.eye(D.dim),
        [1j * (L @ K - K @ L) for L in D.ls],
    )


def centred_tuple(rng, D, rep, k):
    X0 = random_matrix(rng, D.dim)
    X0 -= np.trace(rep.stationary @ X0) * np.eye(D.dim)
    return OperatorTuple(X0, [random_matrix(rng, D.dim) for _ in range(k)])


def simpson_covariance(D, X, Y, t, phi, N=4000):
    """<F_t(X)* F_t(Y)> by composite Simpson over N steps of the semigroup.

    The step propagator exp(hW) and its integral J_h come from one block
    exponential; the semigroup and integrated-semigroup values at the nodes
    are accumulated from them, and every outer integral is Simpson.
    """
    d, n = D.dim, D.dim**2
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[:n, :n] = heisenberg_generator(D)
    blk[:n, n:] = np.eye(n)
    step = scipy.linalg.expm((t / N) * blk)
    M, Q = step[:n, :n], step[:n, n:]
    weights = np.ones(N + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t / (3.0 * N)
    # <phi| Z |phi> = a^H vec(Z); rows[j] = a^H T_{s_j} and cum[j] = a^H J_{s_j}
    a = np.outer(phi, phi.conj()).reshape(-1, order="F")
    rows = np.empty((N + 1, n), dtype=complex)
    cum = np.zeros((N + 1, n), dtype=complex)
    rows[0] = a.conj()
    for j in range(N):
        cum[j + 1] = cum[j] + rows[j] @ Q
        rows[j + 1] = rows[j] @ M

    def cross(U, V0):
        # int_0^t <phi| J_{t-s}( Phi_U( T_s(V0) ) ) |phi> ds
        v = np.empty((N + 1, n), dtype=complex)
        v[0] = V0.reshape(-1, order="F")
        for j in range(N):
            v[j + 1] = M @ v[j]
        B = v.reshape(N + 1, d, d).transpose(0, 2, 1)
        PB = U.x0.conj().T @ B
        for Ui, L in zip(U.xs, D.ls):
            PB = PB - 1j * Ui.conj().T @ (B @ L - L @ B)
        return weights @ np.sum(cum[::-1] * PB.transpose(0, 2, 1).reshape(N + 1, n), axis=1)

    ito = sum(Xi.conj().T @ Yi for Xi, Yi in zip(X.xs, Y.xs))
    total = weights @ (rows @ ito.reshape(-1, order="F"))
    return (total + cross(X, Y.x0) + np.conj(cross(Y, X.x0))) / t


class TestCentering:
    def test_identity_centres_to_zero(self):
        D, _ = random_ergodic(rng, 2, 1)
        assert np.max(np.abs(centering(D, I2))) < 1e-12

    def test_centred_input_unchanged(self):
        D, rep = random_ergodic(rng, 2, 1)
        X = random_matrix(rng, 2)
        X -= np.trace(rep.stationary @ X) * I2
        assert_allclose(centering(D, X), X, atol=1e-13)

    def test_preset_projector(self, preset_point):
        _, D, _ = preset_point
        assert_allclose(centering(D, E11), E11 - I2 / 3, atol=1e-12)


class TestMaps:
    def test_x_map_hamiltonian(self):
        D, _ = random_ergodic(rng, 2, 1)
        dh = random_hermitian(rng, 2)
        X = x_map(D, TangentVector(dh, [np.zeros((2, 2))]))
        assert_allclose(X.x0, dh, atol=1e-14)
        assert_allclose(X.xs[0], 0, atol=1e-14)

    def test_x_map_coupling_and_phase(self):
        D, _ = random_ergodic(rng, 2, 1)
        L = D.ls[0]
        Xc = x_map(D, TangentVector(np.zeros((2, 2)), [L]))
        assert np.max(np.abs(Xc.x0)) < 1e-13
        assert_allclose(Xc.xs[0], L, atol=1e-14)
        Xp = x_map(D, TangentVector(np.zeros((2, 2)), [1j * L]))
        assert_allclose(Xp.x0, -L.conj().T @ L, atol=1e-13)
        assert_allclose(Xp.xs[0], 1j * L, atol=1e-14)

    def test_l_map_identity_and_zero(self):
        D, _ = random_ergodic(rng, 2, 1)
        for K in (I2, np.zeros((2, 2))):
            T = l_map(D, K)
            assert T.norm() < 1e-12

    def test_l_map_first_component(self):
        D, _ = random_ergodic(rng, 3, 2)
        K = random_matrix(rng, 3)
        assert_allclose(l_map(D, K).x0, apply(heisenberg_generator(D), K), atol=1e-12)


class TestRProjection:
    def test_range_fixed(self):
        D, _ = random_ergodic(rng, 2, 1)
        X = OperatorTuple(np.zeros((2, 2)), [random_matrix(rng, 2)])
        RX = r_projection(D, X)
        assert np.max(np.abs(RX.x0)) < 1e-11
        assert_allclose(RX.xs[0], X.xs[0], atol=1e-11)

    def test_kernel_annihilated(self):
        for d, k in [(2, 1), (3, 2)]:
            D, rep = random_ergodic(rng, d, k)
            X = kernel_tuple(D, rep, rng)
            assert r_projection(D, X).norm() < 1e-9 * (1 + X.norm())

    def test_idempotent(self):
        D, _ = random_ergodic(rng, 2, 1)
        X = random_tuple(rng, 2, 1)
        RX = r_projection(D, X)
        RRX = r_projection(D, RX)
        assert max(np.max(np.abs(RRX.x0 - RX.x0)), np.max(np.abs(RRX.xs[0] - RX.xs[0]))) < 1e-10


class TestMarkovCovariance:
    def test_coupling_direction_value(self):
        D, rep = random_ergodic(rng, 2, 1)
        L = D.ls[0]
        X = OperatorTuple(np.zeros((2, 2)), [L])
        expected = np.trace(rep.stationary @ L.conj().T @ L)
        assert markov_covariance(D, X, X) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_directions(self):
        D, rep = random_ergodic(rng, 2, 1)
        X = kernel_tuple(D, rep, rng)
        Y = random_tuple(rng, 2, 1)
        assert abs(markov_covariance(D, X, Y)) < 1e-9
        assert abs(markov_covariance(D, X, X)) < 1e-9

    def test_preset_alpha_direction(self, preset_point):
        p, D, _ = preset_point
        X = x_map(D, two_level_tangents(p).physical[2])
        assert markov_covariance(D, X, X) == pytest.approx(1 / 3, abs=1e-12)

    def test_positivity(self):
        D, _ = random_ergodic(rng, 3, 2)
        for _ in range(10):
            X = random_tuple(rng, 3, 2)
            assert markov_covariance(D, X, X).real > -1e-10

    def test_hermitian_symmetry(self):
        D, _ = random_ergodic(rng, 2, 1)
        X, Y = random_tuple(rng, 2, 1), random_tuple(rng, 2, 1)
        assert markov_covariance(D, X, Y) == pytest.approx(np.conj(markov_covariance(D, Y, X)), abs=1e-12)

    def test_sesquilinearity(self):
        D, _ = random_ergodic(rng, 2, 1)
        X, Y = random_tuple(rng, 2, 1), random_tuple(rng, 2, 1)
        cX = OperatorTuple(2j * X.x0, [2j * Xi for Xi in X.xs])
        assert markov_covariance(D, cX, Y) == pytest.approx(-2j * markov_covariance(D, X, Y), abs=1e-11)

    def test_two_formulas_agree(self):
        for d, k in [(2, 1), (3, 2)]:
            D, rep = random_ergodic(rng, d, k)
            for _ in range(50):
                X, Y = random_tuple(rng, d, k), random_tuple(rng, d, k)
                a = markov_covariance(D, X, Y)
                b = markov_covariance_expanded(D, X, Y)
                assert abs(a - b) < 1e-10 * (1 + abs(a))

    def test_kernel_identity(self):
        D, rep = random_ergodic(rng, 2, 1)
        for _ in range(5):
            X = kernel_tuple(D, rep, rng)
            assert abs(markov_covariance(D, X, X)) < 1e-9
            assert r_projection(D, X).norm() < 1e-7
        X = random_tuple(rng, 2, 1)
        if markov_covariance(D, X, X).real > 1e-6:
            assert r_projection(D, X).norm() > 1e-7

    def test_gauge_invariance(self):
        D, rep = random_ergodic(rng, 2, 1)
        dDa = horizontal_projection(D, random_tangent(rng, 2, 1))
        dDb = horizontal_projection(D, random_tangent(rng, 2, 1))
        g = GaugeElement(random_unitary(rng, 2), 0.4)
        Dg = gauge_apply(g, D)
        lhs = tangent_covariance(D, dDa, dDb)
        rhs = tangent_covariance(Dg, gauge_pushforward(g, dDa), gauge_pushforward(g, dDb))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


class TestQfiRate:
    def test_preset_metric_diagonal(self, preset_point):
        p, D, _ = preset_point
        qfi = qfi_rate(D, two_level_tangents(p).physical, "metric")
        assert_allclose(np.diagonal(qfi.matrix), [2 / 9, 1.0, 1 / 3, 1 / 9], atol=1e-12)
        assert_allclose(qfi.matrix, qfi.matrix.T, atol=1e-14)

    def test_four_x_is_four_times_metric(self, preset_point):
        p, D, _ = preset_point
        tans = two_level_tangents(p).physical
        assert_allclose(
            qfi_rate(D, tans, "four_x").matrix,
            4 * qfi_rate(D, tans, "metric").matrix,
            atol=1e-12,
        )

    def test_vertical_rows_vanish(self):
        D, rep = random_ergodic(rng, 2, 1)
        tangents = [
            random_tangent(rng, 2, 1),
            lie_pushforward(D, LieAlgebraElement.with_zero_mean(random_hermitian(rng, 2), 0.3, rep.stationary)),
        ]
        qfi = qfi_rate(D, tangents, "metric")
        assert np.max(np.abs(qfi.matrix[1, :])) < 1e-10
        assert np.max(np.abs(qfi.matrix[:, 1])) < 1e-10

    def test_positive_semidefinite(self):
        D, _ = random_ergodic(rng, 2, 1)
        tangents = [random_tangent(rng, 2, 1) for _ in range(5)]
        qfi = qfi_rate(D, tangents, "metric")
        assert np.min(np.linalg.eigvalsh(qfi.matrix)) > -1e-9

    def test_hamiltonian_multiplier_closed_form(self):
        D, rep = random_ergodic(rng, 2, 1)
        H, L = D.h, D.ls[0]
        Z = restricted_inverse(D, H - np.trace(rep.stationary @ H) * I2)
        M = L @ Z - Z @ L
        expected = np.trace(rep.stationary @ M.conj().T @ M).real
        qfi = qfi_rate(D, [TangentVector(H, [np.zeros((2, 2))])], "metric")
        assert qfi.matrix[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_gram_matches_pairwise_covariance(self):
        D, _ = random_ergodic(rng, 3, 2)
        tangents = [random_tangent(rng, 3, 2) for _ in range(5)]
        pairwise = [[tangent_covariance(D, a, b) for b in tangents] for a in tangents]
        assert_allclose(tangent_gram(D, tangents), pairwise, rtol=1e-12, atol=1e-12)

    def test_empty_tangent_list(self, preset_point):
        _, D, _ = preset_point
        assert tangent_gram(D, []).shape == (0, 0)
        assert qfi_rate(D, [], "metric").matrix.shape == (0, 0)

    def test_each_dynamics_diagnosed_once_without_lstsq(self):
        D, _ = random_ergodic(rng, 8, 2)
        tangents = [random_tangent(rng, 8, 2) for _ in range(20)]
        g = GaugeElement(random_unitary(rng, 8), 0.4)
        with mock.patch.object(
            qsysid.lindblad, "stationary_state", wraps=qsysid.lindblad.stationary_state
        ) as diagnose, mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            first = qfi_rate(D, tangents, "metric").matrix
            assert (diagnose.call_count, lstsq.call_count) == (1, 0)
            assert_allclose(qfi_rate(D, tangents, "metric").matrix, first, atol=0)
            assert diagnose.call_count == 1
            qfi_rate(gauge_apply(g, D), [gauge_pushforward(g, t) for t in tangents], "metric")
            assert (diagnose.call_count, lstsq.call_count) == (2, 0)

    def test_convention_is_mandatory_and_checked(self, preset_point):
        p, D, _ = preset_point
        tans = two_level_tangents(p).physical
        with pytest.raises(TypeError):
            qfi_rate(D, tans)
        with pytest.raises(ValueError, match="convention"):
            qfi_rate(D, tans, "wrong")


class TestFiniteTimeCovariance:
    def test_converges_to_limit(self, preset_point):
        p, D, rep = preset_point
        L = D.ls[0]
        X = OperatorTuple(np.zeros((2, 2)), [L])
        limit = markov_covariance(D, X, X)
        t = 200.0 / rep.spectral_gap
        val = finite_time_covariance(D, X, X, t)
        assert abs(val - limit) < 0.01

    def test_monotone_error_decay(self, preset_point):
        _, D, rep = preset_point
        dD = horizontal_projection(D, random_tangent(rng, 2, 1))
        X = x_map(D, dD)
        limit = markov_covariance(D, X, X)
        errs = [
            abs(finite_time_covariance(D, X, X, tg / rep.spectral_gap) - limit)
            for tg in (25, 50, 100)
        ]
        assert errs[2] < errs[1] < errs[0]

    def test_general_tuple_cross_terms(self, preset_point):
        # non-zero first component exercises the integrated-semigroup terms
        _, D, rep = preset_point
        X0 = random_matrix(rng, 2)
        X0 -= np.trace(rep.stationary @ X0) * I2
        X = OperatorTuple(X0, [random_matrix(rng, 2)])
        limit = markov_covariance(D, X, X)
        errs = [
            abs(finite_time_covariance(D, X, X, tg / rep.spectral_gap) - limit)
            for tg in (50, 200)
        ]
        assert errs[1] < 0.02 * abs(limit)
        assert errs[1] < errs[0]

    def test_kernel_direction_decays(self, preset_point):
        _, D, rep = preset_point
        raw = kernel_tuple(D, rep, rng)
        X = OperatorTuple(centering(D, raw.x0), raw.xs)
        vals = [
            abs(finite_time_covariance(D, X, X, tg / rep.spectral_gap))
            for tg in (25, 100)
        ]
        assert abs(markov_covariance(D, X, X)) < 1e-9
        assert vals[1] < 0.5 * vals[0]

    def test_phi_independence_at_large_t(self, preset_point):
        _, D, rep = preset_point
        X = OperatorTuple(np.zeros((2, 2)), [D.ls[0]])
        t = 200.0 / rep.spectral_gap
        vals = []
        for _ in range(3):
            phi = rng.normal(size=2) + 1j * rng.normal(size=2)
            vals.append(finite_time_covariance(D, X, X, t, phi=phi))
        assert np.max(np.abs(np.diff(vals))) < 1e-2

    def test_validation(self, preset_point):
        _, D, _ = preset_point
        X = OperatorTuple(np.zeros((2, 2)), [D.ls[0]])
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="t > 0"):
                finite_time_covariance(D, X, X, t)
        with pytest.raises(ValueError, match="centred"):
            finite_time_covariance(D, OperatorTuple(I2, [D.ls[0]]), X, 10.0)

    @pytest.mark.parametrize("d", [3, 4, 8])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_resolved_simpson(self, d, k):
        D, rep = random_ergodic(rng, d, k)
        X, Y = centred_tuple(rng, D, rep, k), centred_tuple(rng, D, rep, k)
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi /= np.linalg.norm(phi)
        t = min(2.0, 2.0 / rep.spectral_gap)
        exact = finite_time_covariance(D, X, Y, t, phi=phi)
        assert abs(exact - simpson_covariance(D, X, Y, t, phi)) < 1e-9 * abs(exact)

    @pytest.mark.parametrize("d, k", [(3, 1), (4, 2)])
    def test_swap_conjugates(self, d, k):
        # nonzero X^0 and Y^0: both cross terms contribute
        D, rep = random_ergodic(rng, d, k)
        X, Y = centred_tuple(rng, D, rep, k), centred_tuple(rng, D, rep, k)
        for tg in (0.5, 20.0):
            t = tg / rep.spectral_gap
            fxy = finite_time_covariance(D, X, Y, t)
            assert abs(fxy - np.conj(finite_time_covariance(D, Y, X, t))) < 1e-12 * abs(fxy)

    def test_error_is_exactly_one_over_t(self, preset_point):
        _, D2, rep2 = preset_point
        for D, rep in ((D2, rep2), random_ergodic(rng, 4, 1)):
            X = centred_tuple(rng, D, rep, D.n_channels)
            limit = markov_covariance(D, X, X)
            ts = np.array([50.0, 100.0, 200.0]) / rep.spectral_gap
            scaled = [t * abs(finite_time_covariance(D, X, X, t) - limit) for t in ts]
            assert scaled[0] > 1e-6 * abs(limit)
            assert_allclose(scaled, scaled[0], rtol=1e-6)

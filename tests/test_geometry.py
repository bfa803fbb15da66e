import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsysid import (
    GaugeElement,
    LieAlgebraElement,
    TangentVector,
    connection_form,
    e0_map,
    e_map,
    find_gauge_equivalence,
    gauge_apply,
    gauge_compose,
    gauge_pushforward,
    heisenberg_generator,
    horizontal_projection,
    lie_pushforward,
    stationary_state,
    two_level,
    two_level_tangents,
    vertical_basis,
)
from qsysid.models import TwoLevelParams
from qsysid.opspace import apply

from conftest import (
    I2,
    SY,
    SZ,
    random_ergodic,
    random_hermitian,
    random_tangent,
    random_unitary,
)

rng = np.random.default_rng(303)


def phase_aligned_distance(U, V):
    """Distance between unitaries modulo a global phase."""
    z = np.trace(U.conj().T @ V)
    phase = z / abs(z) if abs(z) > 1e-12 else 1.0
    return np.max(np.abs(U * phase - V))


class TestGaugeAction:
    def test_identity_element(self):
        D, _ = random_ergodic(rng, 2, 1)
        D2 = gauge_apply(GaugeElement(I2, 0.0), D)
        assert_allclose(D2.h, D.h, atol=1e-14)
        assert_allclose(D2.ls[0], D.ls[0], atol=1e-14)

    def test_pure_shift(self):
        D, rep = random_ergodic(rng, 2, 1)
        D2 = gauge_apply(GaugeElement(I2, 0.9), D)
        assert_allclose(D2.h, D.h + 0.9 * I2, atol=1e-14)
        assert_allclose(D2.ls[0], D.ls[0], atol=1e-14)
        rep2 = stationary_state(D2)
        assert_allclose(rep2.stationary, rep.stationary, atol=1e-10)

    def test_stationary_state_covariance(self, preset_point):
        _, D, rep = preset_point
        for _ in range(3):
            W = random_unitary(rng, 2)
            rep2 = stationary_state(gauge_apply(GaugeElement(W), D))
            assert np.max(np.abs(rep2.stationary - W.conj().T @ rep.stationary @ W)) < 1e-9

    def test_ergodicity_preserved(self):
        D, _ = random_ergodic(rng, 3, 1)
        g = GaugeElement(random_unitary(rng, 3), -0.4)
        assert stationary_state(gauge_apply(g, D)).ergodic

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            GaugeElement(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_group_law(self):
        D, _ = random_ergodic(rng, 2, 1)
        g1 = GaugeElement(random_unitary(rng, 2), 0.3)
        g2 = GaugeElement(random_unitary(rng, 2), -1.1)
        lhs = gauge_apply(g1, gauge_apply(g2, D))
        rhs = gauge_apply(gauge_compose(g1, g2), D)
        assert_allclose(lhs.h, rhs.h, atol=1e-12)
        assert_allclose(lhs.ls[0], rhs.ls[0], atol=1e-12)


class TestLiePushforward:
    def test_pure_shift_generator(self):
        D, _ = random_ergodic(rng, 2, 1)
        dD = lie_pushforward(D, LieAlgebraElement(np.zeros((2, 2)), 0.7))
        assert_allclose(dD.dh, 0.7 * I2, atol=1e-14)
        assert_allclose(dD.dls[0], 0, atol=1e-14)

    def test_identity_component_acts_trivially(self):
        D, _ = random_ergodic(rng, 2, 1)
        dD = lie_pushforward(D, LieAlgebraElement(2.3 * I2, 0.5))
        assert_allclose(dD.dh, 0.5 * I2, atol=1e-13)
        assert_allclose(dD.dls[0], 0, atol=1e-13)

    def test_ito_correction_of_gauge_directions(self):
        # E(push(-iK, r)) = r id + W(K)
        for d, k in [(2, 1), (3, 2)]:
            D, rep = random_ergodic(rng, d, k)
            W = heisenberg_generator(D)
            for _ in range(5):
                X = LieAlgebraElement.with_zero_mean(random_hermitian(rng, d), rng.normal(), rep.stationary)
                lhs = e_map(D, lie_pushforward(D, X))
                assert np.max(np.abs(lhs - (X.r * np.eye(d) + apply(W, X.k)))) < 1e-10


class TestEMap:
    def test_hamiltonian_only(self):
        D, _ = random_ergodic(rng, 2, 1)
        dh = random_hermitian(rng, 2)
        assert_allclose(e_map(D, TangentVector(dh, [np.zeros((2, 2))])), dh, atol=1e-14)

    def test_coupling_direction_vanishes(self):
        # dL = L gives Im L*L = 0
        D, _ = random_ergodic(rng, 2, 1)
        assert np.max(np.abs(e_map(D, TangentVector(np.zeros((2, 2)), [D.ls[0]])))) < 1e-13

    def test_phase_direction(self):
        # dL = iL gives E = -L*L
        D, _ = random_ergodic(rng, 2, 1)
        L = D.ls[0]
        E = e_map(D, TangentVector(np.zeros((2, 2)), [1j * L]))
        assert_allclose(E, -L.conj().T @ L, atol=1e-13)

    def test_centred_version(self):
        D, rep = random_ergodic(rng, 2, 1)
        dD = random_tangent(rng, 2, 1)
        E, E0 = e_map(D, dD), e0_map(D, dD)
        assert abs(np.trace(rep.stationary @ E0)) < 1e-12
        assert_allclose(E0, E - np.trace(rep.stationary @ E) * I2, atol=1e-13)

    def test_identity_ito_term_centres_to_zero(self):
        D, _ = random_ergodic(rng, 2, 1)
        c = 1.7
        assert np.max(np.abs(e0_map(D, TangentVector(c * I2, [np.zeros((2, 2))])))) < 1e-12

    def test_gauge_covariance(self):
        D, _ = random_ergodic(rng, 2, 1)
        dD = random_tangent(rng, 2, 1)
        g = GaugeElement(random_unitary(rng, 2), 0.8)
        lhs = e_map(gauge_apply(g, D), gauge_pushforward(g, dD))
        assert_allclose(lhs, g.w.conj().T @ e_map(D, dD) @ g.w, atol=1e-12)


class TestConnectionForm:
    def test_inverts_pushforward(self):
        for d, k in [(2, 1), (3, 2)]:
            D, rep = random_ergodic(rng, d, k)
            for _ in range(4):
                X = LieAlgebraElement.with_zero_mean(random_hermitian(rng, d), rng.normal(), rep.stationary)
                om = connection_form(D, lie_pushforward(D, X))
                assert np.max(np.abs(om.k - X.k)) < 1e-9
                assert om.r == pytest.approx(X.r, abs=1e-9)

    def test_zero_mean_output(self):
        D, rep = random_ergodic(rng, 2, 1)
        om = connection_form(D, random_tangent(rng, 2, 1))
        assert abs(np.trace(rep.stationary @ om.k)) < 1e-10

    def test_preset_alpha_direction_is_flat(self, preset_point):
        p, D, _ = preset_point
        tans = two_level_tangents(p)
        om = connection_form(D, tans.physical[2])
        assert np.max(np.abs(om.k)) < 1e-12
        assert abs(om.r) < 1e-12

    def test_preset_detuning_component(self, preset_point):
        # omega(dD_Delta) at (1, 0, 1, 0): frozen from the closed forms
        p, D, _ = preset_point
        tans = two_level_tangents(p)
        om = connection_form(D, tans.physical[0])
        k_expected = np.array([[-1 / 3, 1j / 3], [-1j / 3, 0]])
        assert np.max(np.abs(om.k - k_expected)) < 1e-12
        assert om.r == pytest.approx(1 / 6, abs=1e-12)

    def test_gauge_covariance(self):
        # omega_{gD}(g_* dD) = (W* K W, r)
        D, _ = random_ergodic(rng, 2, 1)
        dD = random_tangent(rng, 2, 1)
        om = connection_form(D, dD)
        g = GaugeElement(random_unitary(rng, 2), 1.3)
        om_g = connection_form(gauge_apply(g, D), gauge_pushforward(g, dD))
        assert np.max(np.abs(om_g.k - g.w.conj().T @ om.k @ g.w)) < 1e-9
        assert om_g.r == pytest.approx(om.r, abs=1e-9)


class TestHorizontalProjection:
    def test_kills_vertical_vectors(self):
        D, rep = random_ergodic(rng, 2, 1)
        X = LieAlgebraElement.with_zero_mean(random_hermitian(rng, 2), 0.4, rep.stationary)
        P = horizontal_projection(D, lie_pushforward(D, X))
        assert P.norm() < 1e-9

    def test_fixes_flat_directions(self, preset_point):
        p, D, _ = preset_point
        d_alpha = two_level_tangents(p).physical[2]
        P = horizontal_projection(D, d_alpha)
        assert (P - d_alpha).norm() < 1e-12

    def test_idempotent(self):
        D, _ = random_ergodic(rng, 2, 1)
        dD = random_tangent(rng, 2, 1)
        P1 = horizontal_projection(D, dD)
        P2 = horizontal_projection(D, P1)
        assert (P2 - P1).norm() < 1e-10

    def test_range_is_identifiable(self):
        for d, k in [(2, 1), (3, 2)]:
            D, _ = random_ergodic(rng, d, k)
            P = horizontal_projection(D, random_tangent(rng, d, k))
            assert np.max(np.abs(e_map(D, P))) < 1e-10

    def test_split_completeness(self):
        D, _ = random_ergodic(rng, 2, 1)
        dD = random_tangent(rng, 2, 1)
        recomposed = horizontal_projection(D, dD) + lie_pushforward(D, connection_form(D, dD))
        assert (recomposed - dD).norm() < 1e-10


class TestVerticalBasis:
    def test_count_and_independence(self):
        for d, k in [(2, 1), (3, 2)]:
            D, _ = random_ergodic(rng, d, k)
            basis = vertical_basis(D)
            assert len(basis) == d * d
            flat = np.stack(
                [
                    np.concatenate(
                        [v.dh.reshape(-1)] + [dL.reshape(-1) for dL in v.dls]
                    )
                    for v in basis
                ]
            )
            flat = np.concatenate([flat.real, flat.imag], axis=1)
            norms = np.linalg.norm(flat, axis=1)
            gram = (flat / norms[:, None]) @ (flat / norms[:, None]).T
            assert np.min(np.linalg.eigvalsh(gram)) > 1e-10

    def test_preset_rotation_directions(self, preset_point):
        # pushforwards of the x-rotation and the shift match the closed forms
        p, D, rep = preset_point
        a, dl, th = p.alpha, p.delta, p.theta
        X = LieAlgebraElement.with_zero_mean(np.array([[0, 1], [1, 0]], dtype=complex), 0.0, rep.stationary)
        dD = lie_pushforward(D, X)
        assert_allclose(dD.dh, -dl * SY, atol=1e-12)
        assert_allclose(dD.dls[0], 1j * a * np.exp(1j * th) * SZ, atol=1e-12)
        tans = two_level_tangents(p)
        assert (dD - tans.vertical[0]).norm() < 1e-12

    def test_annihilated_by_projection(self):
        D, _ = random_ergodic(rng, 2, 1)
        for v in vertical_basis(D):
            assert horizontal_projection(D, v).norm() < 1e-9


class TestFindGaugeEquivalence:
    def test_constructed_equivalence_recovered(self, preset_point):
        _, D, _ = preset_point
        for _ in range(5):
            g = GaugeElement(random_unitary(rng, 2), float(rng.normal()))
            wit = find_gauge_equivalence(D, gauge_apply(g, D))
            assert wit.found
            assert phase_aligned_distance(wit.w, g.w) < 1e-7
            assert wit.r == pytest.approx(-g.a, abs=1e-8)

    def test_self_equivalence(self):
        D, _ = random_ergodic(rng, 2, 1)
        wit = find_gauge_equivalence(D, D)
        assert wit.found
        assert phase_aligned_distance(wit.w, I2) < 1e-8
        assert wit.r == pytest.approx(0.0, abs=1e-8)

    def test_witness_relations(self):
        D, _ = random_ergodic(rng, 3, 2)
        g = GaugeElement(random_unitary(rng, 3), 0.6)
        D2 = gauge_apply(g, D)
        wit = find_gauge_equivalence(D, D2)
        assert wit.found
        W = wit.w
        for L, L2 in zip(D.ls, D2.ls):
            assert np.max(np.abs(W.conj().T @ L @ W - L2)) < 1e-8
        assert np.max(np.abs(W.conj().T @ D.h @ W - wit.r * np.eye(3) - D2.h)) < 1e-8

    def test_perturbed_model_not_equivalent(self):
        D = two_level(TwoLevelParams(1.0, 0.0, 1.0, 0.0))
        D2 = two_level(TwoLevelParams(1.0, 0.0, 1.1, 0.0))
        wit = find_gauge_equivalence(D, D2)
        assert not wit.found
        assert wit.eigen_real_part < 0
        assert wit.w is None and wit.r is None

    def test_symmetric_decision(self):
        D, _ = random_ergodic(rng, 2, 1)
        D2, _ = random_ergodic(rng, 2, 1)
        assert find_gauge_equivalence(D, D2).found == find_gauge_equivalence(D2, D).found
        g = GaugeElement(random_unitary(rng, 2), -0.2)
        Dg = gauge_apply(g, D)
        assert find_gauge_equivalence(D, Dg).found
        assert find_gauge_equivalence(Dg, D).found

    def test_dimension_mismatch(self):
        D2, _ = random_ergodic(rng, 2, 1)
        D3, _ = random_ergodic(rng, 3, 1)
        with pytest.raises(ValueError):
            find_gauge_equivalence(D2, D3)

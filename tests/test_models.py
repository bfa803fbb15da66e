import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsysid import (
    connection_form,
    e_map,
    horizontal_projection,
    one_param_presets,
    qfi_rate,
    stationary_state,
    symplectic_basis,
    tangent_covariance,
    two_level,
    two_level_reference,
    two_level_symplectic_basis,
    two_level_tangents,
)
from qsysid.models import E01, I2, SIGMA_X, SIGMA_Z, TwoLevelParams

from conftest import random_ergodic, random_two_level_params

rng = np.random.default_rng(707)


class TestTwoLevelConstruction:
    def test_preset_matrices(self, preset_point):
        p, D, _ = preset_point
        assert_allclose(D.h, 0.5 * SIGMA_X, atol=1e-15)
        assert_allclose(D.ls[0], E01, atol=1e-15)

    def test_phase_factor(self):
        D = two_level(TwoLevelParams(1.3, 0.0, 1.0, np.pi))
        assert_allclose(D.ls[0], -1.3 * E01, atol=1e-12)

    def test_auxiliary_perturbation(self):
        p0 = TwoLevelParams(1.0, 0.2, 0.9, 0.0)
        p = TwoLevelParams(1.0, 0.2, 0.9, 0.0, v=(0.1, 0.0, 0.0))
        D0, D = two_level(p0), two_level(p)
        assert_allclose(D.h - D0.h, np.diag([0.0, 0.05]), atol=1e-15)
        assert_allclose(D.ls[0] - D0.ls[0], 0.1j * E01, atol=1e-15)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            TwoLevelParams(-1.0, 0.0, 1.0)


class TestReferenceValues:
    def test_preset_spot_values(self, preset_point):
        p, _, _ = preset_point
        ref = two_level_reference(p)
        assert ref.gamma == pytest.approx(3.0)
        assert ref.xi == pytest.approx(1j)
        assert_allclose(ref.rho_ss, [[2 / 3, 1j / 3], [-1j / 3, 1 / 3]], atol=1e-15)
        assert_allclose(ref.fisher, [2 / 9, 1.0, 1 / 3, 1 / 9], atol=1e-14)
        assert_allclose(ref.symplectic_f, [1 / 3, 3.0, 2 / 3, 1.5], atol=1e-14)

    def test_alpha_connection_component_is_zero(self):
        ref = two_level_reference(random_two_level_params(rng))
        assert np.max(np.abs(ref.connection_components[2].k)) == 0.0
        assert ref.connection_components[2].r == 0.0

    def test_stationary_state_matches(self):
        for _ in range(20):
            p = random_two_level_params(rng)
            rep = stationary_state(two_level(p))
            assert rep.ergodic
            assert np.max(np.abs(rep.stationary - two_level_reference(p).rho_ss)) < 1e-10

    def test_fisher_matches_covariance_machinery(self):
        for _ in range(20):
            p = random_two_level_params(rng)
            D = two_level(p)
            ref = two_level_reference(p)
            qfi = qfi_rate(D, two_level_tangents(p).physical, "metric")
            assert_allclose(np.diagonal(qfi.matrix), ref.fisher, rtol=1e-8)

    def test_connection_components_match(self):
        for _ in range(20):
            p = random_two_level_params(rng)
            D = two_level(p)
            ref = two_level_reference(p)
            rep = stationary_state(D)
            for dD, comp in zip(two_level_tangents(p).physical, ref.connection_components):
                om = connection_form(D, dD)
                assert np.max(np.abs(om.k - comp.k)) < 1e-8
                assert om.r == pytest.approx(comp.r, abs=1e-8)

    def test_symplectic_basis_gram(self):
        for _ in range(20):
            p = random_two_level_params(rng)
            D = two_level(p)
            ref = two_level_reference(p)
            model = symplectic_basis(D, two_level_symplectic_basis(p), "metric")
            scale = max(1.0, float(ref.symplectic_f.max()))
            assert np.max(np.abs(np.diagonal(model.f) - ref.symplectic_f)) < 1e-8 * scale

    def test_qfi_cross_terms_match_f_sandwich(self):
        # the full rate matrix, cross terms included, equals
        # coords(P dD_a)^T diag(F) coords(P dD_b) in the canonical basis
        for _ in range(5):
            p = random_two_level_params(rng)
            D = two_level(p)
            ref = two_level_reference(p)
            qfi = qfi_rate(D, two_level_tangents(p).physical, "metric")
            sandwich = ref.projection_coords.T @ np.diag(ref.symplectic_f) @ ref.projection_coords
            assert np.max(np.abs(qfi.matrix - sandwich)) < 1e-8 * max(1, np.max(np.abs(sandwich)))

    def test_projection_coordinates_match(self):
        for _ in range(20):
            p = random_two_level_params(rng)
            D = two_level(p)
            ref = two_level_reference(p)
            rep = stationary_state(D)
            basis = two_level_symplectic_basis(p)
            F = ref.symplectic_f
            for a, dD in enumerate(two_level_tangents(p).physical):
                proj = horizontal_projection(D, dD)
                coords = np.array(
                    [tangent_covariance(D, basis[j], proj).real / F[j] for j in range(4)]
                )
                scale = max(1.0, np.max(np.abs(ref.projection_coords[:, a])))
                assert np.max(np.abs(coords - ref.projection_coords[:, a])) < 1e-8 * scale


class TestTangentSets:
    def test_physical_directions(self, preset_point):
        p, _, _ = preset_point
        tans = two_level_tangents(p)
        assert_allclose(tans.physical[0].dh, 0.5 * SIGMA_Z, atol=1e-15)
        assert_allclose(tans.physical[1].dh, 0.5 * SIGMA_X, atol=1e-15)
        assert_allclose(tans.physical[2].dls[0], E01, atol=1e-15)
        assert_allclose(tans.physical[3].dls[0], 1j * E01, atol=1e-15)

    def test_vertical_phase_direction(self):
        tans = two_level_tangents(random_two_level_params(rng))
        assert_allclose(tans.vertical[3].dh, I2, atol=1e-15)
        assert np.max(np.abs(tans.vertical[3].dls[0])) == 0.0

    def test_auxiliary_are_identifiable(self):
        for _ in range(5):
            p = random_two_level_params(rng)
            D = two_level(p)
            for dD in two_level_tangents(p).auxiliary:
                assert np.max(np.abs(e_map(D, dD))) < 1e-12

    def test_vertical_are_gauge_directions(self):
        p = random_two_level_params(rng)
        D = two_level(p)
        rep = stationary_state(D)
        for dD in two_level_tangents(p).vertical:
            assert horizontal_projection(D, dD).norm() < 1e-9 * (1 + dD.norm())

    def test_symplectic_basis_identifiable(self):
        p = random_two_level_params(rng)
        D = two_level(p)
        for v in two_level_symplectic_basis(p):
            assert np.max(np.abs(e_map(D, v))) < 1e-10 * (1 + v.norm())


class TestOneParamPresets:
    def test_tangents(self, preset_point):
        _, D, _ = preset_point
        phase, coupling, hamiltonian = one_param_presets(D.h, D.ls[0])
        assert_allclose(phase.tangent.dls[0], 1j * D.ls[0], atol=1e-15)
        assert_allclose(coupling.tangent.dls[0], D.ls[0], atol=1e-15)
        assert_allclose(hamiltonian.tangent.dh, D.h, atol=1e-15)

    def test_families(self, preset_point):
        _, D, _ = preset_point
        phase, coupling, hamiltonian = one_param_presets(D.h, D.ls[0])
        assert_allclose(phase.family(0.0).ls[0], D.ls[0], atol=1e-15)
        assert_allclose(phase.family(0.5).ls[0], np.exp(-0.5j) * D.ls[0], atol=1e-14)
        assert_allclose(coupling.family(2.0).ls[0], 2 * D.ls[0], atol=1e-15)
        assert_allclose(hamiltonian.family(3.0).h, 3 * D.h, atol=1e-15)

    def test_coupling_reference_value(self, preset_point):
        _, D, rep = preset_point
        _, coupling, _ = one_param_presets(D.h, D.ls[0])
        expected = np.trace(rep.stationary @ D.ls[0].conj().T @ D.ls[0]).real
        assert coupling.reference_qfi == pytest.approx(expected, abs=1e-12)
        assert coupling.reference_qfi == pytest.approx(1 / 3, abs=1e-12)

    def test_reference_matches_qfi_rate(self):
        for _ in range(5):
            D, _ = random_ergodic(rng, 2, 1)
            for record in one_param_presets(D.h, D.ls[0]):
                qfi = qfi_rate(D, [record.tangent], "metric")
                assert qfi.matrix[0, 0] == pytest.approx(record.reference_qfi, abs=1e-9 * (1 + record.reference_qfi))

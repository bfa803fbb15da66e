import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsysid import (
    DynamicalParams,
    GaussianLimitModel,
    TangentVector,
    coherent_overlap,
    complex_structure,
    e_map,
    horizontal_projection,
    phase_matrix,
    phase_matrix_from_chart,
    symplectic_basis,
    symplectic_form,
    tangent_covariance,
    two_level,
    two_level_reference,
    two_level_symplectic_basis,
    two_level_tangents,
    x_map,
)
from qsysid.models import SIGMA_Z

from conftest import random_ergodic, random_tangent, random_two_level_params

rng = np.random.default_rng(505)


def random_identifiable(rng, D, rep=None):
    return horizontal_projection(D, random_tangent(rng, D.dim, D.n_channels))


class TestComplexStructure:
    def test_squares_to_minus_identity(self):
        D, _ = random_ergodic(rng, 2, 1)
        for _ in range(10):
            v = random_identifiable(rng, D)
            assert (complex_structure(D, complex_structure(D, v)) + v).norm() < 1e-10 * (1 + v.norm())

    def test_intertwines_x_map(self):
        D, _ = random_ergodic(rng, 2, 1)
        for _ in range(10):
            v = random_identifiable(rng, D)
            X, XJ = x_map(D, v), x_map(D, complex_structure(D, v))
            assert np.max(np.abs(XJ.x0 - 1j * X.x0)) < 1e-12 * (1 + v.norm())
            assert np.max(np.abs(XJ.xs[0] - 1j * X.xs[0])) < 1e-12 * (1 + v.norm())

    def test_coupling_direction(self):
        D, _ = random_ergodic(rng, 2, 1)
        L = D.ls[0]
        v = TangentVector(np.zeros((2, 2)), [L])
        Jv = complex_structure(D, v)
        assert_allclose(Jv.dh, 0.5 * (L.conj().T @ L + L.conj().T @ L), atol=1e-13)
        assert_allclose(Jv.dls[0], 1j * L, atol=1e-14)
        assert np.max(np.abs(e_map(D, Jv))) < 1e-12

    def test_preserves_metric(self):
        D, rep = random_ergodic(rng, 2, 1)
        v, w = random_identifiable(rng, D), random_identifiable(rng, D)
        lhs = tangent_covariance(D, complex_structure(D, v), complex_structure(D, w)).real
        rhs = tangent_covariance(D, v, w).real
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))

    def test_rejects_non_identifiable(self):
        D, _ = random_ergodic(rng, 2, 1)
        bad = TangentVector(np.eye(2), [np.zeros((2, 2))])
        with pytest.raises(ValueError, match="identifiable"):
            complex_structure(D, bad)


class TestSymplecticForm:
    def test_antisymmetry(self):
        D, _ = random_ergodic(rng, 2, 1)
        v, w = random_identifiable(rng, D), random_identifiable(rng, D)
        assert symplectic_form(D, v, w) == pytest.approx(-symplectic_form(D, w, v), abs=1e-12)
        assert symplectic_form(D, v, v) == pytest.approx(0.0, abs=1e-12)

    def test_canonical_pair_value(self, preset_point):
        p, D, _ = preset_point
        q1, p1, _, _ = two_level_symplectic_basis(p)
        assert symplectic_form(D, q1, p1) == pytest.approx(-1.0, abs=1e-12)
        assert symplectic_form(D, p1, q1) == pytest.approx(1.0, abs=1e-12)

    def test_relation_to_complex_structure(self):
        D, _ = random_ergodic(rng, 2, 1)
        v = random_identifiable(rng, D)
        # sigma(v, Jv) = Im (v, Jv) = Im i (v, v) = Re (v, v)
        lhs = symplectic_form(D, v, complex_structure(D, v))
        rhs = tangent_covariance(D, v, v).real
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


class TestSymplecticBasis:
    def test_reference_basis_recognised(self):
        for _ in range(5):
            p = random_two_level_params(rng)
            D = two_level(p)
            ref = two_level_reference(p)
            model = symplectic_basis(D, two_level_symplectic_basis(p), "metric")
            assert model.dim_id == 4
            assert_allclose(np.diagonal(model.f), ref.symplectic_f, atol=1e-8 * max(1, ref.symplectic_f.max()))
            assert np.max(np.abs(model.f - np.diag(np.diagonal(model.f)))) < 1e-8
            target = np.zeros((4, 4))
            target[0, 1] = target[2, 3] = -1
            target[1, 0] = target[3, 2] = 1
            assert np.max(np.abs(model.sigma - target)) < 1e-8

    def test_block_products_are_unity(self, preset_point):
        p, D, _ = preset_point
        model = symplectic_basis(D, two_level_symplectic_basis(p), "metric")
        f = np.diagonal(model.f)
        assert f[0] * f[1] == pytest.approx(1.0, abs=1e-8)
        assert f[2] * f[3] == pytest.approx(1.0, abs=1e-8)

    def test_single_mode_completion(self, preset_point):
        p, D, _ = preset_point
        d_alpha = two_level_tangents(p).physical[2]
        model = symplectic_basis(D, [d_alpha], "metric", complete_with_j=True)
        assert model.dim_id == 2
        assert_allclose(model.sigma, [[0, -1], [1, 0]], atol=1e-10)
        assert_allclose(model.f, np.eye(2), atol=1e-10)

    def test_explicit_pair_span(self, preset_point):
        p, D, _ = preset_point
        v = two_level_tangents(p).physical[2]
        model = symplectic_basis(D, [v, complex_structure(D, v)], "metric")
        assert model.dim_id == 2
        assert_allclose(model.sigma, [[0, -1], [1, 0]], atol=1e-10)

    def test_four_x_scaling(self, preset_point):
        p, D, _ = preset_point
        basis = two_level_symplectic_basis(p)
        f1 = symplectic_basis(D, basis, "metric").f
        f4 = symplectic_basis(D, basis, "four_x").f
        assert_allclose(f4, 4 * f1, atol=1e-12)

    def test_unclosed_span_needs_flag(self, preset_point):
        p, D, _ = preset_point
        v = two_level_tangents(p).physical[2]
        with pytest.raises(ValueError, match="complex structure"):
            symplectic_basis(D, [v], "metric")

    def test_degenerate_span_reports_rank(self, preset_point):
        p, D, _ = preset_point
        v = two_level_tangents(p).physical[2]
        with pytest.raises(ValueError, match="rank 1"):
            symplectic_basis(D, [v, 2.0 * v], "metric")

    def test_general_span_orthonormalised(self):
        D, rep = random_ergodic(rng, 2, 1)
        vs = [random_identifiable(rng, D) for _ in range(2)]
        model = symplectic_basis(D, vs, "metric", complete_with_j=True)
        assert model.dim_id in (2, 4)
        assert np.isfinite(model.change_of_basis_cond)
        m = model.dim_id
        target = np.zeros((m, m))
        for j in range(0, m, 2):
            target[j, j + 1] = -1
            target[j + 1, j] = 1
        assert np.max(np.abs(model.sigma - target)) < 1e-8
        assert_allclose(model.f, np.eye(m), atol=1e-8)


class TestCoherentOverlap:
    def _model(self, f, sigma):
        m = len(f)
        dummy = tuple(TangentVector(np.zeros((2, 2)), [np.zeros((2, 2))]) for _ in range(m))
        return GaussianLimitModel(
            dim_id=m, basis=dummy, f=np.asarray(f, float), sigma=np.asarray(sigma, float),
            convention="four_x",
        )

    def test_same_point(self):
        model = self._model(2 * np.eye(2), [[0, -1], [1, 0]])
        assert coherent_overlap(model, [0.3, -0.7], [0.3, -0.7]) == pytest.approx(1.0)

    def test_modulus_formula(self):
        model = self._model(np.diag([1.5, 0.5]), [[0, -1], [1, 0]])
        u = np.array([0.8, -0.2])
        val = coherent_overlap(model, u, [0.0, 0.0])
        assert abs(val) == pytest.approx(np.exp(-u @ model.f @ u / 8), abs=1e-14)
        assert abs(val) <= 1.0

    def test_spot_value(self):
        # f = 2 id, canonical sigma, u = (1,0), u' = (0,1):
        # exp(-(1/8) * (1,-1) f (1,-1)^T) * exp(i u sigma u') = e^{-1/2} e^{-i}
        model = self._model(2 * np.eye(2), [[0, -1], [1, 0]])
        val = coherent_overlap(model, [1.0, 0.0], [0.0, 1.0])
        assert val == pytest.approx(np.exp(-0.5) * np.exp(-1j), abs=1e-14)

    def test_length_mismatch(self):
        model = self._model(np.eye(2), [[0, -1], [1, 0]])
        with pytest.raises(ValueError, match="length"):
            coherent_overlap(model, [1.0], [0.0, 0.0])

    def test_gram_matrix_positive(self, preset_point):
        p, D, _ = preset_point
        model = symplectic_basis(D, two_level_symplectic_basis(p), "four_x")
        pts = rng.normal(size=(5, 4))
        G = np.array([[coherent_overlap(model, u, v) for v in pts] for u in pts])
        assert np.min(np.linalg.eigvalsh(0.5 * (G + G.conj().T))) > 0


class TestPhaseMatrix:
    def test_linear_chart_is_zero(self, preset_point):
        _, D, _ = preset_point
        zero = TangentVector(np.zeros((2, 2)), [np.zeros((2, 2))])
        S = phase_matrix(D, ((zero, zero), (zero, zero)))
        assert_allclose(S, 0, atol=1e-14)

    def test_single_curvature_term(self, preset_point):
        _, D, rep = preset_point
        dd = TangentVector(SIGMA_Z, [np.zeros((2, 2))])
        S = phase_matrix(D, ((dd,),))
        expected = 0.5 * np.trace(rep.stationary @ SIGMA_Z).real
        assert S[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_finite_difference_matches_analytic(self, preset_point):
        p, D, _ = preset_point
        tans = two_level_tangents(p)
        dirs = [horizontal_projection(D, t) for t in tans.physical[:2]]
        curv = [
            [TangentVector(SIGMA_Z, [np.zeros((2, 2))]), TangentVector(0.3 * SIGMA_Z, [np.zeros((2, 2))])],
            [TangentVector(0.3 * SIGMA_Z, [np.zeros((2, 2))]), TangentVector(np.zeros((2, 2)), [0.2 * D.ls[0]])],
        ]

        def chart_fn(u):
            h = D.h + sum(float(ua) * v.dh for ua, v in zip(u, dirs))
            ell = D.ls[0] + sum(float(ua) * v.dls[0] for ua, v in zip(u, dirs))
            for a in range(2):
                for b in range(2):
                    h = h + 0.5 * u[a] * u[b] * curv[a][b].dh
                    ell = ell + 0.5 * u[a] * u[b] * curv[a][b].dls[0]
            return DynamicalParams(h, [ell])

        S_analytic = phase_matrix(D, curv)
        S_fd = phase_matrix_from_chart(chart_fn, 2, step=1e-4)
        assert np.max(np.abs(S_fd - S_analytic)) < 1e-6

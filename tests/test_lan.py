from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qsysid.lan
import qsysid.lindblad
from qsysid import (
    GaugeElement,
    GaussianLimitModel,
    LocalChart,
    TangentVector,
    coherent_overlap,
    finite_overlap,
    gauge_apply,
    heisenberg_generator,
    horizontal_projection,
    lan_convergence,
    limit_overlap,
    output_overlap_trace,
    two_level,
    two_level_tangents,
)
from qsysid.covariance import tangent_gram
from qsysid.lindblad import NonErgodicError, offdiag_generator
from qsysid.models import SIGMA_Z, TwoLevelParams
from qsysid.opspace import apply, expm

from conftest import I2, random_ergodic

rng = np.random.default_rng(606)


@pytest.fixture(scope="module")
def preset_chart(preset_point):
    p, D, rep = preset_point
    dirs = [horizontal_projection(D, t) for t in two_level_tangents(p).physical]
    return LocalChart(D, dirs), rep


class TestOffdiagGenerator:
    def test_coincidence_with_lindblad(self):
        D, _ = random_ergodic(rng, 3, 2)
        assert_allclose(offdiag_generator(D, D), heisenberg_generator(D), atol=1e-12)

    def test_pure_phase_shift(self):
        D, rep = random_ergodic(rng, 2, 1)
        a = 0.37
        D2 = gauge_apply(GaugeElement(I2, a), D)
        W12 = offdiag_generator(D, D2)
        assert_allclose(apply(W12, I2), -1j * a * I2, atol=1e-12)
        t = 5.0
        vals, vecs = np.linalg.eigh(rep.stationary)
        phi = vecs[:, np.argmax(vals)]
        ov = phi.conj() @ apply(expm(W12, t), I2) @ phi
        assert abs(ov) == pytest.approx(1.0, abs=1e-9)
        assert ov == pytest.approx(np.exp(-1j * a * t), abs=1e-9)

    def test_contractive_spectrum(self):
        D, _ = random_ergodic(rng, 2, 1)
        D2, _ = random_ergodic(rng, 2, 1)
        vals = np.linalg.eigvals(offdiag_generator(D, D2))
        assert np.max(vals.real) < 1e-9
        # generically inequivalent: strictly negative
        assert np.max(vals.real) < -1e-6

    def test_dimension_mismatch(self):
        D2, _ = random_ergodic(rng, 2, 1)
        D3, _ = random_ergodic(rng, 3, 1)
        with pytest.raises(ValueError):
            offdiag_generator(D2, D3)


class TestLocalChart:
    def test_rejects_vertical_direction(self, preset_point):
        _, D, _ = preset_point
        with pytest.raises(ValueError, match="horizontal"):
            LocalChart(D, [TangentVector(I2, [np.zeros((2, 2))])])

    def test_rejects_non_ergodic_base(self):
        D_free = two_level(TwoLevelParams(1.0, 0.0, 1.0, 0.0))
        from qsysid import DynamicalParams

        with pytest.raises(NonErgodicError):
            LocalChart(DynamicalParams(D_free.h, []), [])

    def test_evaluation_is_affine(self, preset_chart):
        chart, _ = preset_chart
        u = np.array([0.2, -0.1, 0.3, 0.05])
        Du = chart.at(u)
        expected_h = chart.base.h + sum(ua * d.dh for ua, d in zip(u, chart.directions))
        assert_allclose(Du.h, expected_h, atol=1e-13)

    def test_base_point_not_rediagnosed(self, preset_chart):
        chart, _ = preset_chart
        assert chart.at_checked(np.zeros(chart.n_params), t=3.0) is chart.base

    def test_ergodicity_guard_names_point(self, preset_chart):
        chart, _ = preset_chart
        # leaving the ergodic region: drive the coupling to zero
        alpha_dir = chart.directions[2]
        big = -1.0 / alpha_dir.dls[0][0, 1].real if abs(alpha_dir.dls[0][0, 1]) > 0.5 else -1.0
        u = np.zeros(4)
        u[2] = big
        with pytest.raises(NonErgodicError, match="ergodic"):
            chart.at_checked(u, t=1.0)


class TestFiniteOverlap:
    def test_equal_points_give_unity(self, preset_chart):
        chart, _ = preset_chart
        u = np.array([0.7, -0.4, 0.2, 0.9])
        for t in (3.0, 40.0):
            assert finite_overlap(chart, u, u, t) == pytest.approx(1.0, abs=1e-10)

    def test_modulus_bounded(self, preset_chart):
        chart, _ = preset_chart
        for _ in range(5):
            u, u2 = rng.normal(size=4), rng.normal(size=4)
            t = float(rng.uniform(5, 200))
            assert abs(finite_overlap(chart, u, u2, t)) <= 1 + 1e-9

    def test_short_time_continuity(self, preset_chart):
        chart, _ = preset_chart
        u = np.array([0.3, 0.0, 0.0, 0.0])
        val = finite_overlap(chart, u, np.zeros(4), 1.0)
        assert abs(val) > 0.9

    def test_phi_independence_of_limit(self, preset_chart):
        chart, rep = preset_chart
        u, u0 = np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4)
        t = 400.0 / rep.spectral_gap
        vals = []
        for _ in range(3):
            phi = rng.normal(size=2) + 1j * rng.normal(size=2)
            vals.append(finite_overlap(chart, u, u0, t, phi=phi))
        assert max(abs(v - vals[0]) for v in vals) < 1e-2


class TestLimitOverlap:
    def test_same_point(self, preset_chart):
        chart, _ = preset_chart
        u = rng.normal(size=4)
        assert limit_overlap(chart, u, u) == pytest.approx(1.0, abs=1e-14)

    def test_zero_direction_chart(self, preset_point):
        _, D, _ = preset_point
        assert limit_overlap(LocalChart(D, []), [], []) == 1.0

    def test_linear_chart_matches_coherent_overlap(self, preset_chart):
        chart, _ = preset_chart
        M = tangent_gram(chart.base, chart.directions)
        model = GaussianLimitModel(
            dim_id=4, basis=tuple(chart.directions), f=4 * M.real, sigma=M.imag, convention="four_x",
        )
        for _ in range(5):
            u, u2 = rng.normal(size=4), rng.normal(size=4)
            assert limit_overlap(chart, u, u2) == pytest.approx(
                coherent_overlap(model, u, u2), abs=1e-12
            )

    def test_single_direction_modulus(self, preset_point):
        # chart along the flat coupling direction: |limit| = exp(-(u-u')^2 f_alpha / 2)
        p, D, _ = preset_point
        d_alpha = two_level_tangents(p).physical[2]
        chart = LocalChart(D, [d_alpha])
        u, u2 = np.array([1.3]), np.array([-0.2])
        f_alpha = 1 / 3
        expected = np.exp(-0.125 * (u[0] - u2[0]) ** 2 * 4 * f_alpha)
        assert abs(limit_overlap(chart, u, u2)) == pytest.approx(expected, abs=1e-12)


class TestLanConvergence:
    def test_two_level_scan(self, preset_chart):
        chart, rep = preset_chart
        gap = rep.spectral_gap
        u = np.array([1.0, 0.0, 0.0, 0.0])
        report = lan_convergence(chart, u, np.zeros(4), [tg / gap for tg in (50, 100, 200, 400)])
        assert report.errors[-1] < 0.02
        assert report.errors[0] > report.errors[1] > report.errors[2] > report.errors[3]
        assert all(abs(z) <= 1 + 1e-9 for z in report.finite_overlaps)
        assert report.max_abs_error == report.errors[-1]

    def test_one_diagnosis_per_t_point(self, preset_chart):
        chart, rep = preset_chart
        t_values = [tg / rep.spectral_gap for tg in (50, 100, 200, 400)]
        with mock.patch.object(
            qsysid.lan, "stationary_state", wraps=qsysid.lan.stationary_state
        ) as chart_checks, mock.patch.object(
            qsysid.lindblad, "stationary_state", wraps=qsysid.lindblad.stationary_state
        ) as other_checks:
            lan_convergence(chart, np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4), t_values)
        # u' = 0 is the base point, so only the u/sqrt(t) point is diagnosed
        assert chart_checks.call_count + other_checks.call_count == len(t_values)

    def test_equal_points_all_errors_vanish(self, preset_chart):
        chart, rep = preset_chart
        u = np.array([0.5, 0.1, -0.3, 0.2])
        report = lan_convergence(chart, u, u, [10.0, 30.0])
        assert all(e < 1e-10 for e in report.errors)

    def test_quadratic_chart_phase(self, preset_point):
        # a curved chart acquires the quadratic phase u^T S u - u'^T S u'
        p, D, rep = preset_point
        dirs = [horizontal_projection(D, t) for t in two_level_tangents(p).physical[:1]]
        zero = TangentVector(np.zeros((2, 2)), [np.zeros((2, 2))])
        curv = ((TangentVector(2.0 * SIGMA_Z, [np.zeros((2, 2))]),),)
        flat_chart = LocalChart(D, dirs)
        curved_chart = LocalChart(D, dirs, second_derivs=curv)
        u, u0 = np.array([1.0]), np.array([0.0])
        t = 300.0 / rep.spectral_gap
        fo = finite_overlap(curved_chart, u, u0, t)
        with_s = limit_overlap(curved_chart, u, u0)
        without_s = limit_overlap(flat_chart, u, u0)
        assert abs(with_s - without_s) > 0.05  # the phase actually matters here
        assert abs(fo - with_s) < 0.02
        assert abs(fo - with_s) < abs(fo - without_s)

    def test_phase_matrix_reported(self, preset_chart):
        chart, _ = preset_chart
        report = lan_convergence(chart, np.zeros(4), np.zeros(4), [5.0])
        assert_allclose(report.phase_matrix_used, 0, atol=1e-14)


class TestOutputOverlapTrace:
    def test_vacuum_at_time_zero(self, preset_point):
        _, D, _ = preset_point
        assert output_overlap_trace(D, D, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_equal_dynamics_purity_limit(self, preset_point):
        _, D, rep = preset_point
        lam = np.linalg.eigvalsh(rep.stationary)
        expected = float(np.sum(lam**2) ** 2)
        # frozen arithmetic: eigenvalues (1 +- sqrt(5)/3)/2, sum of squares 7/9
        assert expected == pytest.approx(49 / 81, abs=1e-12)
        val = output_overlap_trace(D, D, 200.0 / rep.spectral_gap)
        assert val == pytest.approx(expected, rel=1e-3)

    def test_inequivalent_dynamics_decay(self, preset_point):
        _, D, rep = preset_point
        D2 = two_level(TwoLevelParams(1.2, -0.5, 0.8, 0.9))
        t_vals = [tg / rep.spectral_gap for tg in (25, 50, 100)]
        vals = [output_overlap_trace(D, D2, t) for t in t_vals]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_dimension_mismatch(self, preset_point):
        _, D, _ = preset_point
        D3, _ = random_ergodic(rng, 3, 1)
        with pytest.raises(ValueError):
            output_overlap_trace(D, D3, 1.0)

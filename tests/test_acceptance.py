"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; the per-criterion lines are written through pytest's
terminal reporter (bypassing capture) so the acceptance record is always
visible in the run log.
"""
from contextlib import contextmanager

import numpy as np
import pytest

from qsysid import (
    GaugeElement,
    LieAlgebraElement,
    LocalChart,
    OperatorTuple,
    TangentVector,
    centering,
    coherent_overlap,
    complex_structure,
    connection_form,
    e_map,
    find_gauge_equivalence,
    finite_overlap,
    finite_time_covariance,
    gauge_apply,
    gauge_pushforward,
    heisenberg_generator,
    horizontal_projection,
    lan_convergence,
    lie_pushforward,
    limit_overlap,
    markov_covariance,
    one_param_presets,
    output_overlap_trace,
    qfi_rate,
    r_projection,
    stationary_state,
    symplectic_basis,
    tangent_covariance,
    two_level,
    two_level_reference,
    two_level_symplectic_basis,
    two_level_tangents,
    vertical_basis,
    x_map,
)
from qsysid.geometry import _hermitian_traceless_basis
from qsysid.models import TwoLevelParams
from qsysid.opspace import apply

from conftest import (
    random_ergodic,
    random_hermitian,
    random_matrix,
    random_tangent,
    random_two_level_params,
    random_unitary,
)

rng = np.random.default_rng(20260808)


@pytest.fixture
def criterion(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(line):
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    @contextmanager
    def _criterion(num, title):
        try:
            yield
        except Exception:
            emit(f"ACCEPTANCE {num:02d} FAIL  {title}")
            raise
        emit(f"ACCEPTANCE {num:02d} PASS  {title}")

    return _criterion


@pytest.fixture(scope="module")
def preset():
    p = TwoLevelParams(1.0, 0.0, 1.0, 0.0)
    D = two_level(p)
    rep = stationary_state(D)
    return p, D, rep


@pytest.fixture(scope="module")
def random_points():
    return [random_two_level_params(rng) for _ in range(20)]


def tangent_real_basis(d, k):
    """A real basis of the tangent space: Hermitian dH, complex dL entries."""
    herm = _hermitian_traceless_basis(d) + [np.eye(d, dtype=complex)]
    zero = np.zeros((d, d), dtype=complex)
    out = [TangentVector(B, (zero,) * k) for B in herm]
    for ch in range(k):
        for i in range(d):
            for j in range(d):
                for unit in (1.0, 1j):
                    M = np.zeros((d, d), dtype=complex)
                    M[i, j] = unit
                    dls = [zero] * k
                    dls[ch] = M
                    out.append(TangentVector(zero, dls))
    return out


def flatten_tangent(v):
    parts = [v.dh.reshape(-1)] + [dL.reshape(-1) for dL in v.dls]
    z = np.concatenate(parts)
    return np.concatenate([z.real, z.imag])


def test_criterion_01_stationary_state(criterion, preset, random_points):
    with criterion(1, "two-level stationary state matches the closed form"):
        _, D, rep = preset
        assert np.max(np.abs(rep.stationary - np.array([[2 / 3, 1j / 3], [-1j / 3, 1 / 3]]))) < 1e-10
        for p in random_points:
            got = stationary_state(two_level(p))
            assert got.ergodic
            assert np.max(np.abs(got.stationary - two_level_reference(p).rho_ss)) < 1e-10


def test_criterion_02_fisher_closed_forms(criterion, preset, random_points):
    with criterion(2, "two-level Fisher informations match the closed forms (metric)"):
        p0, D, _ = preset
        diag = np.diagonal(qfi_rate(D, two_level_tangents(p0).physical, "metric").matrix)
        assert np.allclose(diag, [2 / 9, 1.0, 1 / 3, 1 / 9], atol=1e-10)
        for p in random_points:
            Dp = two_level(p)
            ref = two_level_reference(p).fisher
            diag = np.diagonal(qfi_rate(Dp, two_level_tangents(p).physical, "metric").matrix)
            assert np.max(np.abs(diag - ref) / ref) < 1e-8


def test_criterion_03_connection_components(criterion, random_points):
    with criterion(3, "connection components of the physical directions match"):
        for p in random_points:
            D = two_level(p)
            rep = stationary_state(D)
            ref = two_level_reference(p)
            tans = two_level_tangents(p).physical
            for dD, comp in zip(tans, ref.connection_components):
                om = connection_form(D, dD)
                assert np.max(np.abs(om.k - comp.k)) < 1e-8
                assert abs(om.r - comp.r) < 1e-8
            flat = connection_form(D, tans[2])
            assert np.max(np.abs(flat.k)) < 1e-8 and abs(flat.r) < 1e-8


def test_criterion_04_symplectic_basis(criterion, preset, random_points):
    with criterion(4, "canonical basis gives diagonal F, canonical Sigma, unit block products"):
        target = np.zeros((4, 4))
        target[0, 1] = target[2, 3] = -1.0
        target[1, 0] = target[3, 2] = 1.0
        for p in [preset[0]] + random_points[:5]:
            D = two_level(p)
            ref = two_level_reference(p)
            model = symplectic_basis(D, two_level_symplectic_basis(p), "metric")
            scale = max(1.0, float(ref.symplectic_f.max()))
            assert np.max(np.abs(model.f - np.diag(ref.symplectic_f))) < 1e-8 * scale
            assert np.max(np.abs(model.sigma - target)) < 1e-8
            f = np.diagonal(model.f)
            assert abs(f[0] * f[1] - 1) < 1e-8
            assert abs(f[2] * f[3] - 1) < 1e-8


def test_criterion_05_projection_algebra(criterion):
    with criterion(5, "R and P are projections with the stated kernel/range, dim ker P = d^2"):
        combos = [(2, 1), (2, 2), (3, 1), (3, 2)]
        for trial in range(50):
            d, k = combos[trial % 4]
            D, rep = random_ergodic(rng, d, k)
            zero = np.zeros((d, d), dtype=complex)

            X = OperatorTuple(random_matrix(rng, d), [random_matrix(rng, d) for _ in range(k)])
            RX = r_projection(D, X)
            RRX = r_projection(D, RX)
            scale = 1 + X.norm()
            assert np.max(np.abs(RRX.x0 - RX.x0)) < 1e-9 * scale
            assert all(np.max(np.abs(a - b)) < 1e-9 * scale for a, b in zip(RRX.xs, RX.xs))
            assert np.max(np.abs(RX.x0)) < 1e-9 * scale

            Y = OperatorTuple(zero, [random_matrix(rng, d) for _ in range(k)])
            RY = r_projection(D, Y)
            assert all(np.max(np.abs(a - b)) < 1e-9 for a, b in zip(RY.xs, Y.xs))

            K = random_matrix(rng, d)
            r = complex(rng.normal(), rng.normal())
            ker = OperatorTuple(
                apply(heisenberg_generator(D), K) + r * np.eye(d),
                [1j * (L @ K - K @ L) for L in D.ls],
            )
            assert r_projection(D, ker).norm() < 1e-9 * (1 + ker.norm())

            dD = random_tangent(rng, d, k)
            P1 = horizontal_projection(D, dD)
            P2 = horizontal_projection(D, P1)
            assert (P2 - P1).norm() < 1e-9 * (1 + dD.norm())

            vert = vertical_basis(D)
            assert len(vert) == d * d
            for v in vert:
                assert horizontal_projection(D, v).norm() < 1e-9 * (1 + v.norm())

            # dim ker P = d^2: rank of Id - P over a real tangent basis
            basis = tangent_real_basis(d, k)
            cols = np.stack(
                [flatten_tangent(e - horizontal_projection(D, e)) for e in basis]
            )
            svals = np.linalg.svd(cols, compute_uv=False)
            rank = int(np.count_nonzero(svals > 1e-7 * svals[0]))
            assert rank == d * d


def test_criterion_06_ito_correction_of_gauge_directions(criterion):
    with criterion(6, "E(push(-iK, r)) = r id + W(K) on random gauge generators"):
        for trial in range(50):
            d, k = [(2, 1), (3, 2)][trial % 2]
            D, rep = random_ergodic(rng, d, k)
            X = LieAlgebraElement.with_zero_mean(random_hermitian(rng, d), rng.normal(), rep.stationary)
            lhs = e_map(D, lie_pushforward(D, X))
            rhs = X.r * np.eye(d) + apply(heisenberg_generator(D), X.k)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.linalg.norm(rhs))


def test_criterion_07_gauge_invariance(criterion):
    with criterion(7, "gauge directions carry no information; covariance and state are G-covariant"):
        for _ in range(10):
            D, rep = random_ergodic(rng, 2, 1)
            X = LieAlgebraElement.with_zero_mean(random_hermitian(rng, 2), rng.normal(), rep.stationary)
            tangents = [random_tangent(rng, 2, 1), lie_pushforward(D, X), random_tangent(rng, 2, 1)]
            qfi = qfi_rate(D, tangents, "metric")
            assert np.max(np.abs(qfi.matrix[1, :])) < 1e-10
            assert np.max(np.abs(qfi.matrix[:, 1])) < 1e-10

            g = GaugeElement(random_unitary(rng, 2), float(rng.normal()))
            Dg = gauge_apply(g, D)
            rep_g = stationary_state(Dg)
            assert np.max(np.abs(rep_g.stationary - g.w.conj().T @ rep.stationary @ g.w)) < 1e-9

            va = horizontal_projection(D, tangents[0])
            vb = horizontal_projection(D, tangents[2])
            lhs = tangent_covariance(D, va, vb)
            rhs = tangent_covariance(Dg, gauge_pushforward(g, va), gauge_pushforward(g, vb))
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_criterion_08_one_parameter_models(criterion):
    with criterion(8, "one-parameter closed-form rates match the covariance machinery"):
        for _ in range(10):
            D, _ = random_ergodic(rng, 2, 1)
            for record in one_param_presets(D.h, D.ls[0]):
                got = qfi_rate(D, [record.tangent], "metric").matrix[0, 0]
                assert abs(got - record.reference_qfi) < 1e-9 * (1 + abs(record.reference_qfi))


def test_criterion_09_covariance_convergence(criterion, preset):
    with criterion(9, "finite-time covariance converges at rate >= 0.99 with small final error"):
        _, D, rep = preset
        gap = rep.spectral_gap
        t_grid = np.array([25.0, 50.0, 100.0, 200.0]) / gap
        for _ in range(5):
            proj = horizontal_projection(D, random_tangent(rng, 2, 1))
            raw = x_map(D, proj)
            X = OperatorTuple(centering(D, raw.x0), raw.xs)
            limit = markov_covariance(D, X, X)
            assert abs(limit) > 1e-6
            errs = np.array(
                [abs(finite_time_covariance(D, X, X, t) - limit) for t in t_grid]
            )
            exponent = -np.polyfit(np.log(t_grid), np.log(errs), 1)[0]
            assert exponent >= 0.99
            assert errs[-1] < 1e-2 * abs(limit)
            vals = [
                finite_time_covariance(
                    D, X, X, t_grid[-1],
                    phi=rng.normal(size=2) + 1j * rng.normal(size=2),
                )
                for _ in range(3)
            ]
            assert max(abs(v - vals[0]) for v in vals) < 1e-2 * (1 + abs(limit))


def test_criterion_10_equivalence_detection(criterion, preset):
    with criterion(10, "gauge-equivalent pairs are detected with witness, inequivalent rejected"):
        _, D, _ = preset
        for trial in range(20):
            base = two_level(random_two_level_params(rng)) if trial % 2 else D
            g = GaugeElement(random_unitary(rng, 2), float(rng.normal()))
            wit = find_gauge_equivalence(base, gauge_apply(g, base))
            assert wit.found
            z = np.trace(wit.w.conj().T @ g.w)
            assert np.max(np.abs(wit.w * (z / abs(z)) - g.w)) < 1e-7
            assert abs(wit.r - (-g.a)) < 1e-8
        for trial in range(20):
            if trial % 2:
                D1, _ = random_ergodic(rng, 2, 1)
                D2, _ = random_ergodic(rng, 2, 1)
            else:
                D1 = two_level(random_two_level_params(rng))
                D2 = two_level(random_two_level_params(rng))
            wit = find_gauge_equivalence(D1, D2)
            assert not wit.found
            assert wit.eigen_real_part < -1e-6


def test_criterion_11_output_distinguishability(criterion, preset):
    with criterion(11, "output trace overlap decays for inequivalent pairs, purity limit for equal"):
        _, D, rep = preset
        gap = rep.spectral_gap
        D2 = two_level(TwoLevelParams(1.2, -0.5, 0.8, 0.9))
        assert output_overlap_trace(D, D2, 200.0 / gap) < 1e-4
        lam = np.linalg.eigvalsh(rep.stationary)
        expected = float(np.sum(lam**2) ** 2)
        got = output_overlap_trace(D, D, 200.0 / gap)
        assert abs(got - expected) < 1e-3 * expected


def test_criterion_12_weak_lan(criterion, preset):
    with criterion(12, "system-output overlaps converge to the Gaussian coherent overlap"):
        p, D, rep = preset
        gap = rep.spectral_gap
        dirs = [horizontal_projection(D, t) for t in two_level_tangents(p).physical]
        chart = LocalChart(D, dirs)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        u0 = np.zeros(4)
        report = lan_convergence(chart, u, u0, [tg / gap for tg in (50, 100, 200, 400)])
        assert report.errors[0] > report.errors[1] > report.errors[2] > report.errors[3]
        assert report.max_abs_error < 0.02
        assert all(abs(z) <= 1 + 1e-9 for z in report.finite_overlaps)
        assert finite_overlap(chart, u, u, 100.0 / gap) == pytest.approx(1.0, abs=1e-10)
        assert limit_overlap(chart, u, u) == pytest.approx(1.0, abs=1e-12)


def test_criterion_13_complex_structure(criterion, preset):
    with criterion(13, "J^2 = -Id, x o J = i x, and coherent Gram matrices are positive"):
        count = 0
        while count < 50:
            D, rep = random_ergodic(rng, 2, 1)
            for _ in range(5):
                v = horizontal_projection(D, random_tangent(rng, 2, 1))
                Jv = complex_structure(D, v)
                assert (complex_structure(D, Jv) + v).norm() < 1e-10 * (1 + v.norm())
                Xv, XJv = x_map(D, v), x_map(D, Jv)
                assert np.max(np.abs(XJv.x0 - 1j * Xv.x0)) < 1e-10 * (1 + v.norm())
                for a, b in zip(XJv.xs, Xv.xs):
                    assert np.max(np.abs(a - 1j * b)) < 1e-10 * (1 + v.norm())
                count += 1
        p, D, _ = preset
        model = symplectic_basis(D, two_level_symplectic_basis(p), "four_x")
        pts = rng.normal(size=(5, 4))
        G = np.array([[coherent_overlap(model, a, b) for b in pts] for a in pts])
        assert np.min(np.linalg.eigvalsh(0.5 * (G + G.conj().T))) > 0

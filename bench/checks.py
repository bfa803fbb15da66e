"""Reference checks of CLI reports, run outside the timed window.

``verify(job, text)`` parses the JSON report text the CLI produced for a
generated job and returns a list of problems, empty when the report passes.
References come from ``dense`` (independent dense evaluations) and from the
construction of the job itself.
"""
from __future__ import annotations

import json

import numpy as np

from dense import Dynamics, comm, dag, finite_overlap, trace_overlap

# Tolerances, each relative to max(1, size of the reference value).
TOL = {
    "dense": 1e-8,  # values both sides get from a few dense solves / one expm
    "spectral": 1e-6,  # gap, eigenvector-derived values (non-normal eigensolves)
    "finite_time": 1e-6,  # finite-time covariance against the exact block exponential
    "witness": 1e-6,  # a gauge-equivalence witness maps D onto D'
}


def _dec(M):
    a = np.asarray(M, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _z(pair):
    return complex(pair[0], pair[1])


def _close(got, want, tol, what, problems):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} != reference {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    if not err <= tol * scale:
        problems.append(f"{what}: |report - reference| = {err:.3e} > {tol * scale:.3e}")


def verify(job, text: str) -> list:
    """Problems found in the report ``text`` of ``job``; empty when it passes."""
    try:
        report = json.loads(text)
        result = report["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems: list = []
    try:
        CHECKS[report["command"]](job.truth, result, problems)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed result: {exc!r}")
    return problems


def _check_info(truth, result, problems):
    D = Dynamics(truth["h"], truth["ls"])
    if result["ergodic"] is not True or result["zero_eigen_count"] != 1:
        problems.append("info: ergodic dynamics not reported ergodic")
    _close(_dec(result["stationary"]), D.rho, TOL["dense"], "info.stationary", problems)
    _close(result["spectral_gap"], D.erg.gap, TOL["spectral"], "info.spectral_gap", problems)
    _close(result["min_stationary_eigenvalue"], D.erg.min_eig, TOL["spectral"], "info.min_eig", problems)


def _check_qfi(truth, result, problems):
    D = Dynamics(truth["h"], truth["ls"])
    ref = D.tangent_gram(truth["tangents"]).real
    if truth["options"]["convention"] == "four_x":
        ref = 4.0 * ref
    _close(np.asarray(result["matrix"]), ref, TOL["dense"], "qfi.matrix", problems)


def _check_decompose(truth, result, problems):
    D = Dynamics(truth["h"], truth["ls"])
    entries = result["components"]
    if len(entries) != len(truth["tangents"]):
        problems.append("decompose: wrong number of components")
        return
    for j, ((dh, dls), entry) in enumerate(zip(truth["tangents"], entries)):
        K, r, _ = D.connection(dh, dls)
        k_rep = _dec(entry["k"])
        _close(k_rep, K, TOL["dense"], f"decompose[{j}].k", problems)
        _close(entry["r"], r, TOL["dense"], f"decompose[{j}].r", problems)
        hor_h = _dec(entry["horizontal"]["dh"])
        hor_ls = [_dec(L) for L in entry["horizontal"]["dls"]]
        # E(horizontal) = 0, and dD - horizontal is the pushforward of the reported (K, r)
        scale = 1.0 + np.sqrt(np.linalg.norm(dh) ** 2 + sum(np.linalg.norm(L) ** 2 for L in dls))
        _close(D.e_map(hor_h, hor_ls) / scale, 0 * hor_h, TOL["dense"], f"decompose[{j}].E(horizontal)", problems)
        _close(dh - hor_h, 1j * comm(D.h, k_rep) + entry["r"] * np.eye(D.d), TOL["dense"], f"decompose[{j}].push.dh", problems)
        for i, (dL, L, hL) in enumerate(zip(dls, D.ls, hor_ls)):
            _close(dL - hL, 1j * comm(L, k_rep), TOL["dense"], f"decompose[{j}].push.dls[{i}]", problems)


def _check_symplectic(truth, result, problems):
    D = Dynamics(truth["h"], truth["ls"])
    basis = [(_dec(v["dh"]), [_dec(L) for L in v["dls"]]) for v in result["basis"]]
    m = len(basis)
    if result["dim_id"] != 2 * len(truth["tangents"]) or m != result["dim_id"]:
        problems.append(f"symplectic: dim_id {result['dim_id']} with {m} basis vectors, expected {2 * len(truth['tangents'])}")
        return
    f = np.asarray(result["f"])
    sigma = np.asarray(result["sigma"])
    canonical = np.kron(np.eye(m // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    _close(sigma, canonical, TOL["dense"], "symplectic.sigma (canonical form)", problems)
    _close(f, np.diag(np.diagonal(f)), TOL["dense"], "symplectic.f (diagonal)", problems)
    if not np.all(np.diagonal(f) > 0):
        problems.append("symplectic.f: non-positive diagonal")
    M = D.tangent_gram(basis)
    scale = 4.0 if truth["options"].get("convention") == "four_x" else 1.0
    _close(f, scale * M.real, TOL["dense"], "symplectic.f (basis Gram)", problems)
    _close(sigma, M.imag, TOL["dense"], "symplectic.sigma (basis Gram)", problems)
    for j, (dh, dls) in enumerate(basis):
        _close(D.e_map(dh, dls), 0 * dh, TOL["dense"], f"symplectic.basis[{j}] identifiable", problems)


def _check_equiv(truth, result, problems):
    if result["found"] != truth["equivalent"]:
        problems.append(f"equiv-check: found = {result['found']}, constructed equivalent = {truth['equivalent']}")
        return
    if not truth["equivalent"]:
        if not result["eigen_real_part"] < 0:
            problems.append("equiv-check: inequivalent pair without a negative spectral margin")
        return
    w = _dec(result["w"])
    d = w.shape[0]
    _close(dag(w) @ w, np.eye(d), TOL["witness"], "equiv-check.w unitary", problems)
    for i, (L, L2) in enumerate(zip(truth["ls"], truth["ls2"])):
        _close(dag(w) @ L @ w, L2, TOL["witness"], f"equiv-check.w maps L[{i}]", problems)
    diff = dag(w) @ truth["h"] @ w - truth["h2"]
    shift = np.trace(diff) / d
    _close(diff, shift * np.eye(d), TOL["witness"], "equiv-check.w maps H up to a shift", problems)


def _check_lan(truth, result, problems):
    D = Dynamics(truth["h"], truth["ls"])
    dirs = [D.connection(dh, dls)[2] for dh, dls in truth["tangents"]]
    u = np.asarray(result["u"])
    u2 = np.asarray(result["u_prime"])
    t_values = [tg / D.erg.gap for tg in result["t_grid_gap_units"]]
    _close(result["t_values"], t_values, TOL["spectral"], "lan-check.t_values", problems)
    finite = [finite_overlap(D, dirs, u, u2, t) for t in result["t_values"]]
    _close([_z(z) for z in result["finite_overlaps"]], finite, TOL["dense"], "lan-check.finite_overlaps", problems)
    M = D.tangent_gram(dirs)
    du = u - u2
    limit = np.exp(-0.5 * du @ M.real @ du + 1j * (u @ M.imag @ u2))
    _close(_z(result["limit_value"]), limit, TOL["dense"], "lan-check.limit_value", problems)


def _check_cov(truth, result, problems):
    D = Dynamics(truth["h"], truth["ls"])
    t_values = [tg / D.erg.gap for tg in result["t_grid_gap_units"]]
    _close(result["t_values"], t_values, TOL["spectral"], "cov-converge.t_values", problems)
    for j, ((dh, dls), entry) in enumerate(zip(truth["tangents"], result["series"])):
        x0 = D.centre(D.e_map(dh, dls))
        limit = D.gram([(x0, dls)])[0, 0]
        _close(_z(entry["limit"]), limit, TOL["dense"], f"cov-converge[{j}].limit", problems)
        exact = [D.finite_time_covariance(x0, dls, t) for t in result["t_values"]]
        _close([_z(z) for z in entry["finite"]], exact, TOL["finite_time"], f"cov-converge[{j}].finite", problems)


def _check_overlap(truth, result, problems):
    D1 = Dynamics(truth["h"], truth["ls"])
    D2 = Dynamics(truth["h2"], truth["ls2"])
    t_values = [tg / D1.erg.gap for tg in result["t_grid_gap_units"]]
    _close(result["t_values"], t_values, TOL["spectral"], "output-overlap.t_values", problems)
    ref = [trace_overlap(D1, D2, t) for t in result["t_values"]]
    _close(result["values"], ref, TOL["dense"], "output-overlap.values", problems)


CHECKS = {
    "info": _check_info,
    "qfi": _check_qfi,
    "decompose": _check_decompose,
    "symplectic": _check_symplectic,
    "equiv-check": _check_equiv,
    "lan-check": _check_lan,
    "cov-converge": _check_cov,
    "output-overlap": _check_overlap,
}

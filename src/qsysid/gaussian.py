"""Complex structure, symplectic normal form and the Gaussian limit model.

On the identifiable subspace {dD : E(dD) = 0} the map

    J(dH, dL^1, ..., dL^k) = (sum_i Re dL^i* L^i, i dL^1, ..., i dL^k)

squares to -Id and intertwines x_map with multiplication by i, so the
Markov covariance becomes a complex inner product.  Its real part is the
Fisher metric, its imaginary part a symplectic form; a canonical basis
{q_1, p_1, q_2, p_2, ...} diagonalises the metric and puts the symplectic
form into blocks [[0, -1], [1, 0]].  Coherent states of the limit model
built on this data have overlaps

    <u|u'> = exp(-(1/8) (u - u')^T f (u - u') + i u^T sigma u'),

with f the Fisher-rate matrix in the generator-variance ("four_x") scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import CONVENTIONS, tangent_covariance, tangent_gram
from .geometry import TangentVector, e_map
from .lindblad import DynamicalParams, require_ergodic
from .opspace import dag, re_part

IDENTIFIABLE_TOL = 1e-8


def _require_identifiable(D: DynamicalParams, dD: TangentVector, tol: float = IDENTIFIABLE_TOL):
    err = np.max(np.abs(e_map(D, dD)))
    if err > tol * (1.0 + dD.norm()):
        raise ValueError(f"tangent vector is not identifiable: ||E(dD)|| = {err:.3e}")


def complex_structure(D: DynamicalParams, dD: TangentVector) -> TangentVector:
    """Apply J to an identifiable tangent vector; J^2 = -Id on that subspace."""
    _require_identifiable(D, dD)
    acc = np.zeros((D.dim, D.dim), dtype=complex)
    for dL, L in zip(dD.dls, D.ls):
        acc = acc + dag(dL) @ L
    return TangentVector(re_part(acc), tuple(1j * dL for dL in dD.dls))


def symplectic_form(D: DynamicalParams, dDa: TangentVector, dDb: TangentVector) -> float:
    """sigma(dD, dD') = Im (dD, dD'): antisymmetric on identifiable vectors."""
    _require_identifiable(D, dDa)
    _require_identifiable(D, dDb)
    return float(tangent_covariance(D, dDa, dDb).imag)


@dataclass(frozen=True)
class GaussianLimitModel:
    """Canonical data of the Gaussian limit on a spanned identifiable subspace.

    basis is ordered [q_1, p_1, q_2, p_2, ...]; f is the (diagonal) metric in
    that basis in the stamped convention, sigma the symplectic form.
    """

    dim_id: int
    basis: tuple
    f: np.ndarray
    sigma: np.ndarray
    convention: str
    change_of_basis_cond: float = field(default=float("nan"))


def _complex_scale(c: complex, v: TangentVector, D: DynamicalParams) -> TangentVector:
    """Multiply by a complex scalar using J as the imaginary unit."""
    out = float(c.real) * v
    if c.imag != 0.0:
        out = out + float(c.imag) * complex_structure(D, v)
    return out


def _is_canonical(M: np.ndarray, tol: float) -> bool:
    m = M.shape[0]
    if m % 2:
        return False
    F = M.real
    Sig = M.imag
    if np.max(np.abs(F - np.diag(np.diagonal(F)))) > tol:
        return False
    if np.any(np.diagonal(F) <= 0):
        return False
    target = np.zeros((m, m))
    for j in range(0, m, 2):
        target[j, j + 1] = -1.0
        target[j + 1, j] = 1.0
    return np.max(np.abs(Sig - target)) <= tol


def symplectic_basis(
    D: DynamicalParams,
    spanning,
    convention: str,
    *,
    complete_with_j: bool = False,
) -> GaussianLimitModel:
    """Construct a canonical symplectic basis of the identifiable span.

    A spanning set whose covariance Gram matrix is already in normal form
    (diagonal real part, canonical imaginary part) is returned unchanged
    with its metric read off the Gram matrix.  Otherwise the span is
    orthonormalised in the complex structure: Gram-Schmidt with complex
    coefficients realised through J, each resulting mode e contributing the
    pair (q, p) = (e, -J(e)).  Spans that are not closed under J are only
    completed with J-partners when complete_with_j is set.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    require_ergodic(D)  # non-ergodic dynamics fails before the span is inspected
    spanning = list(spanning)
    if not spanning:
        raise ValueError("empty spanning set")
    for v in spanning:
        _require_identifiable(D, v)

    M_in = tangent_gram(D, spanning)
    scale = max(1.0, float(np.max(np.abs(M_in))))

    # real-linear independence of the inputs under the metric
    gram_real = M_in.real
    eigs = np.linalg.eigvalsh(0.5 * (gram_real + gram_real.T))
    achieved_rank = int(np.count_nonzero(eigs > 1e-9 * max(1.0, eigs.max(initial=0.0))))
    if achieved_rank < len(spanning):
        raise ValueError(
            f"degenerate span: metric rank {achieved_rank} < {len(spanning)} spanning vectors"
        )

    if _is_canonical(M_in, 1e-8 * scale):
        F = np.diag(np.diagonal(M_in.real))
        Sig = M_in.imag.copy()
        f_out = 4.0 * F if convention == "four_x" else F
        return GaussianLimitModel(
            dim_id=len(spanning),
            basis=tuple(spanning),
            f=f_out,
            sigma=Sig,
            convention=convention,
            change_of_basis_cond=1.0,
        )

    candidates = list(spanning)
    if complete_with_j:
        candidates += [complex_structure(D, v) for v in spanning]

    # Gram-Schmidt over the complex structure
    modes = []
    drop_tol = 1e-10 * scale
    for v in candidates:
        w = v
        for e in modes:
            w = w - _complex_scale(tangent_covariance(D, e, w), e, D)
        nrm2 = tangent_covariance(D, w, w).real
        if nrm2 <= drop_tol:
            continue
        modes.append((1.0 / np.sqrt(nrm2)) * w)

    if not complete_with_j and 2 * len(modes) != len(spanning):
        raise ValueError(
            "span is not closed under the complex structure; "
            "pass complete_with_j=True to add J-partners"
        )

    basis = []
    for e in modes:
        basis.append(e)
        basis.append(-1.0 * complex_structure(D, e))

    M = tangent_gram(D, basis)
    if not _is_canonical(M, 1e-8 * max(1.0, float(np.max(np.abs(M))))):
        raise ArithmeticError("orthonormalisation failed to reach canonical form")
    F = np.diag(np.diagonal(M.real))

    # condition number of the change of basis from the candidate set
    def flat(v: TangentVector) -> np.ndarray:
        parts = [v.dh.reshape(-1)] + [dL.reshape(-1) for dL in v.dls]
        z = np.concatenate(parts)
        return np.concatenate([z.real, z.imag])

    A_cand = np.stack([flat(v) for v in candidates], axis=1)
    A_out = np.stack([flat(v) for v in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(A_cand, A_out, rcond=None)
    cond = float(np.linalg.cond(coeffs))

    f_out = 4.0 * F if convention == "four_x" else F
    return GaussianLimitModel(
        dim_id=len(basis),
        basis=tuple(basis),
        f=f_out,
        sigma=M.imag.copy(),
        convention=convention,
        change_of_basis_cond=cond,
    )


def coherent_overlap(model: GaussianLimitModel, u, u2) -> complex:
    """Overlap <u|u'> = exp(-(1/8) du^T f du + i u^T sigma u') of coherent states.

    f is taken directly from the model in its stamped convention; overlaps
    of the Gaussian limit of output states require the "four_x" scale.
    """
    u = np.asarray(u, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    m = len(model.basis)
    if u.shape != (m,) or u2.shape != (m,):
        raise ValueError(f"coordinate vectors must have length {m}")
    du = u - u2
    return complex(np.exp(-0.125 * du @ model.f @ du + 1j * (u @ model.sigma @ u2)))


def phase_matrix(D: DynamicalParams, second_derivs) -> np.ndarray:
    """Quadratic phase matrix of a chart: S_aa' = (1/2) tr[rho_ss E(ddD_aa')].

    second_derivs is an m x m symmetric array of second-derivative tuples
    (ddH_aa', ddL^i_aa'), given as TangentVector instances.  Linear charts
    (all second derivatives zero) give S = 0.
    """
    rho = require_ergodic(D).stationary
    m = len(second_derivs)
    S = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            S[a, b] = 0.5 * np.trace(rho @ e_map(D, second_derivs[a][b])).real
    if np.max(np.abs(S - S.T)) > 1e-8 * (1.0 + np.max(np.abs(S))):
        raise ValueError("second derivatives are not symmetric in the chart indices")
    return 0.5 * (S + S.T)


def phase_matrix_from_chart(chart_fn, m: int, *, step: float = 1e-4) -> np.ndarray:
    """Finite-difference the chart u -> D(u) to get S without analytic derivatives.

    Uses second-order central differences with the given step on every
    component of (H(u), L^i(u)).
    """
    D0 = chart_fn(np.zeros(m))

    def tuples_at(u):
        Du = chart_fn(np.asarray(u, dtype=float))
        return (Du.h,) + Du.ls

    base = tuples_at(np.zeros(m))
    second = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            ea = np.zeros(m)
            ea[a] = step
            eb = np.zeros(m)
            eb[b] = step
            if a == b:
                plus = tuples_at(ea)
                minus = tuples_at(-ea)
                dd = [(p - 2 * z + q) / step**2 for p, z, q in zip(plus, base, minus)]
            else:
                pp = tuples_at(ea + eb)
                pm = tuples_at(ea - eb)
                mp = tuples_at(-ea + eb)
                mm = tuples_at(-ea - eb)
                dd = [(a1 - a2 - a3 + a4) / (4 * step**2) for a1, a2, a3, a4 in zip(pp, pm, mp, mm)]
            ddh = 0.5 * (dd[0] + dag(dd[0]))  # kill round-off anti-Hermitian noise
            tv = TangentVector(ddh, tuple(dd[1:]))
            second[a][b] = tv
            second[b][a] = tv
    return phase_matrix(D0, second)

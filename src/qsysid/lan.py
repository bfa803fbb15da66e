"""Local asymptotic normality of the stationary output model.

Overlaps of system-output vectors for two dynamics are generated in system
space by the two-parameter semigroup,

    <Psi_D(t) | Psi_D'(t)> = <phi| exp(t W_{D,D'})(id) |phi>,

so a local chart u -> D(u) around an ergodic base point can be probed at
parameters u/sqrt(t).  For horizontal charts the overlaps converge to

    exp( -(1/8) du^T f du + i u^T sigma u' + i (u^T S u - u'^T S u') ),

with f = 4 Re M and sigma = Im M the Gram data of the chart directions
under the Markov covariance, and S the quadratic phase of the chart (zero
for linear charts).  The module also provides the trace overlap
tr[rho_1^out(t) rho_2^out(t)] of stationary output states, which decays to
zero for inequivalent dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import default_phi, tangent_gram
from .gaussian import phase_matrix
from .geometry import TangentVector, e_map
from .lindblad import (
    DynamicalParams,
    NonErgodicError,
    offdiag_generator,
    require_ergodic,
    stationary_state,
)
from .opspace import apply, dag, expm

HORIZONTAL_TOL = 1e-8


@dataclass(frozen=True)
class LocalChart:
    """A chart u -> D(u) = base + sum_a u_a dir_a (+ optional quadratic part).

    Directions must be horizontal at the base point (E(dir) = 0); attempting
    to build a chart with a non-horizontal direction fails.  second_derivs,
    when given, is an m x m symmetric nested sequence of TangentVector
    curvature tuples, and D(u) gains (1/2) sum u_a u_b second_derivs[a][b].
    """

    base: DynamicalParams
    directions: tuple
    second_derivs: tuple | None = None

    def __init__(self, base, directions, second_derivs=None):
        directions = tuple(directions)
        require_ergodic(base)
        for j, dD in enumerate(directions):
            err = np.max(np.abs(e_map(base, dD)))
            if err > HORIZONTAL_TOL * (1.0 + dD.norm()):
                raise ValueError(
                    f"chart direction {j} is not horizontal: ||E(dir)|| = {err:.3e}"
                )
        if second_derivs is not None:
            second_derivs = tuple(tuple(row) for row in second_derivs)
            m = len(directions)
            if len(second_derivs) != m or any(len(row) != m for row in second_derivs):
                raise ValueError("second_derivs must be an m x m array of tangent tuples")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "second_derivs", second_derivs)

    @property
    def n_params(self) -> int:
        return len(self.directions)

    def at(self, u) -> DynamicalParams:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_params,):
            raise ValueError(f"coordinate vector must have length {self.n_params}")
        h = self.base.h.copy()
        ls = [L.copy() for L in self.base.ls]
        for ua, dD in zip(u, self.directions):
            h = h + ua * dD.dh
            for i in range(len(ls)):
                ls[i] = ls[i] + ua * dD.dls[i]
        if self.second_derivs is not None:
            for a in range(self.n_params):
                for b in range(self.n_params):
                    dd = self.second_derivs[a][b]
                    c = 0.5 * u[a] * u[b]
                    h = h + c * dd.dh
                    for i in range(len(ls)):
                        ls[i] = ls[i] + c * dd.dls[i]
        return DynamicalParams(h, ls)

    def at_checked(self, u, t: float) -> DynamicalParams:
        """Evaluate at u and insist on ergodicity, naming the offending point;
        u = 0 gives the base point, diagnosed when the chart was built."""
        D = self.at(u)
        if not np.any(u):
            return self.base
        if not stationary_state(D).ergodic:
            raise NonErgodicError(
                f"chart point u = {np.asarray(u)} (t = {t}) left the ergodic region"
            )
        return D


@dataclass(frozen=True)
class LanReport:
    """Finite-time versus limit overlaps along a t-grid."""

    t_values: tuple
    finite_overlaps: tuple
    limit_value: complex
    phase_matrix_used: np.ndarray
    errors: tuple
    max_abs_error: float


def finite_overlap(chart: LocalChart, u, u2, t: float, phi=None) -> complex:
    """<Psi_{u/sqrt(t)}(t) | Psi_{u'/sqrt(t)}(t)> = <phi| e^{t W_{D,D'}}(id) |phi>."""
    if t <= 0:
        raise ValueError("finite_overlap requires t > 0")
    s = 1.0 / np.sqrt(t)
    D1 = chart.at_checked(s * np.asarray(u, dtype=float), t)
    D2 = chart.at_checked(s * np.asarray(u2, dtype=float), t)
    if phi is None:
        phi = default_phi(chart.base)
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    W12 = offdiag_generator(D1, D2)
    ident = np.eye(chart.base.dim, dtype=complex)
    evolved = apply(expm(W12, t), ident)
    return complex(phi.conj() @ evolved @ phi)


def chart_phase_matrix(chart: LocalChart) -> np.ndarray:
    if chart.second_derivs is None:
        m = chart.n_params
        return np.zeros((m, m))
    return phase_matrix(chart.base, chart.second_derivs)


def limit_overlap(chart: LocalChart, u, u2) -> complex:
    """The Gaussian limit of finite_overlap for t -> infinity.

    exp(-(1/8) du^T (4 Re M) du + i u^T (Im M) u' + i (u^T S u - u'^T S u'));
    for linear charts S = 0 and this is the bare coherent-state overlap.
    """
    u = np.asarray(u, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    M = tangent_gram(chart.base, chart.directions)
    S = chart_phase_matrix(chart)
    du = u - u2
    val = -0.125 * du @ (4.0 * M.real) @ du
    val = val + 1j * (u @ M.imag @ u2)
    val = val + 1j * (u @ S @ u - u2 @ S @ u2)
    return complex(np.exp(val))


def lan_convergence(chart: LocalChart, u, u2, t_values, phi=None) -> LanReport:
    """Scan finite-time overlaps over a t-grid against the Gaussian limit."""
    t_values = tuple(float(t) for t in t_values)
    if phi is None:
        phi = default_phi(chart.base)
    limit = limit_overlap(chart, u, u2)
    finite = tuple(finite_overlap(chart, u, u2, t, phi) for t in t_values)
    errors = tuple(abs(f - limit) for f in finite)
    return LanReport(
        t_values=t_values,
        finite_overlaps=finite,
        limit_value=limit,
        phase_matrix_used=chart_phase_matrix(chart),
        errors=errors,
        max_abs_error=errors[int(np.argmax(t_values))],
    )


def output_overlap_trace(D1: DynamicalParams, D2: DynamicalParams, t: float) -> float:
    """tr[rho_1^out(t) rho_2^out(t)] of the stationary output states.

    Expanded over the eigenbases of the two stationary states,

        sum Lambda_{1,n} Lambda_{2,n'} |<e_{1,n}| e^{t W_{D1,D2}}(|e_{1,m}><e_{2,m'}|) |e_{2,n'}>|^2.

    Equals 1 at t = 0; converges to (sum_n Lambda_n^2)^2 when D1 = D2 and to
    zero for inequivalent dynamics.
    """
    if D1.dim != D2.dim:
        raise ValueError("output_overlap_trace needs equal system dimensions")
    if t < 0:
        raise ValueError("t must be nonnegative")
    rep1 = require_ergodic(D1)
    rep2 = require_ergodic(D2)
    lam1, U1 = np.linalg.eigh(rep1.stationary)
    lam2, U2 = np.linalg.eigh(rep2.stationary)
    # column m' d + m of B is vec(|e_{1,m}><e_{2,m'}|), and row n' d + n of
    # B^H vec(Z) is <e_{1,n}| Z |e_{2,n'}>
    B = np.kron(U2.conj(), U1)
    T = dag(B) @ expm(offdiag_generator(D1, D2), t) @ B
    return float(np.kron(lam2, lam1) @ np.sum(np.abs(T) ** 2, axis=1))

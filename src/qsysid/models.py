"""Preset parametrised families with closed-form reference values.

The main preset is the off-resonant driven two-level system with detuning
Delta, Rabi frequency Omega, emission rate alpha^2 and an output phase
shift theta, extended by three auxiliary parameters v that span the extra
identifiable directions needed to express the horizontal projections:

    H = (1/2) [[Delta, Omega + v1 - i v2], [Omega + v1 + i v2, -Delta + v0]],
    L = alpha e^{i theta} [[(i v1 - v2)/alpha^2, 1 + i v0/alpha^2],
                           [0, (-i v1 + v2)/alpha^2]].

At v = 0 the dynamics is ergodic away from special points, with

    rho_ss = (Omega/gamma) [[gamma/Omega - Omega, xi], [conj(xi), Omega]],
    gamma = alpha^4 + 4 Delta^2 + 2 Omega^2,  xi = 2 Delta + i alpha^2,

and every geometric object of interest (connection components, symplectic
basis, Fisher informations of the physical parameters) has a closed form.
These closed forms act as oracles for the numerical machinery.  Three
one-parameter families (output phase shift, coupling constant, Hamiltonian
multiplier) with closed-form information rates are also provided.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import LieAlgebraElement, TangentVector
from .lindblad import DynamicalParams, require_ergodic, restricted_inverse
from .opspace import dag

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

PRESET_NAMES = ("two-level", "phase", "coupling", "hamiltonian")


@dataclass(frozen=True)
class TwoLevelParams:
    alpha: float
    delta: float
    omega: float
    theta: float = 0.0
    v: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.v) != 3:
            raise ValueError("v must have three components")


@dataclass(frozen=True)
class TwoLevelReference:
    """Closed-form reference values at a two-level parameter point (v = 0)."""

    gamma: float
    xi: complex
    rho_ss: np.ndarray
    fisher: np.ndarray               # (f_Delta, f_Omega, f_alpha, f_theta), metric scale
    connection_components: tuple     # omega(dD) for (Delta, Omega, alpha, theta)
    symplectic_f: np.ndarray         # diagonal of the metric in the canonical basis
    projection_coords: np.ndarray    # columns: P(dD) coordinates in the canonical basis


@dataclass(frozen=True)
class TwoLevelTangents:
    physical: tuple    # (Delta, Omega, alpha, theta) coordinate directions
    vertical: tuple    # pushforwards of the x, y, z rotations and the phase shift
    auxiliary: tuple   # identifiable directions spanned by the v parameters (+ alpha)


@dataclass(frozen=True)
class OneParamModel:
    name: str
    family: Callable[[float], DynamicalParams]
    tangent: TangentVector
    reference_qfi: float


def two_level(p: TwoLevelParams) -> DynamicalParams:
    v0, v1, v2 = p.v
    a2 = p.alpha**2
    h = 0.5 * np.array(
        [
            [p.delta, p.omega + v1 - 1j * v2],
            [p.omega + v1 + 1j * v2, -p.delta + v0],
        ],
        dtype=complex,
    )
    ell = (
        p.alpha
        * np.exp(1j * p.theta)
        * np.array(
            [
                [(1j * v1 - v2) / a2, 1.0 + 1j * v0 / a2],
                [0.0, (-1j * v1 + v2) / a2],
            ],
            dtype=complex,
        )
    )
    return DynamicalParams(h, (ell,))


def two_level_tangents(p: TwoLevelParams) -> TwoLevelTangents:
    """Coordinate tangent vectors of the physical manifold at v = 0."""
    a, dl, om, th = p.alpha, p.delta, p.omega, p.theta
    eth = np.exp(1j * th)
    physical = (
        TangentVector(0.5 * SIGMA_Z, (_Z2,)),            # Delta
        TangentVector(0.5 * SIGMA_X, (_Z2,)),            # Omega
        TangentVector(_Z2, (eth * E01,)),                # alpha
        TangentVector(_Z2, (a * 1j * eth * E01,)),       # theta
    )
    vertical = (
        TangentVector(-dl * SIGMA_Y, (1j * a * eth * SIGMA_Z,)),
        TangentVector(dl * SIGMA_X - om * SIGMA_Z, (-a * eth * SIGMA_Z,)),
        TangentVector(om * SIGMA_Y, (-2j * a * eth * E01,)),
        TangentVector(I2, (_Z2,)),
    )
    auxiliary = (
        TangentVector(E11, (1j * eth * E01 / a,)),
        TangentVector(0.5 * SIGMA_X, (1j * eth * SIGMA_Z / a,)),
        TangentVector(0.5 * SIGMA_Y, (-eth * SIGMA_Z / a,)),
        TangentVector(_Z2, (eth * E01 / a,)),
    )
    return TwoLevelTangents(physical=physical, vertical=vertical, auxiliary=auxiliary)


def two_level_symplectic_basis(p: TwoLevelParams) -> list:
    """Canonical basis [q1, p1, q2, p2] of the span relevant to the physical model.

    In this basis the covariance Gram matrix is F + i Sigma with F the
    diagonal matrix returned by two_level_reference and Sigma the canonical
    symplectic form.
    """
    a, dl, om, th = p.alpha, p.delta, p.omega, p.theta
    gamma = a**4 + 4 * dl**2 + 2 * om**2
    xi = 2 * dl + 1j * a**2
    eth = np.exp(1j * th)
    b = np.array([[-om, xi], [0.0, om]], dtype=complex)
    q1 = TangentVector(_Z2, (eth * E01 / a,))
    p1 = TangentVector(
        (a**2 * gamma / om**2) * (-E11),
        ((a**2 * gamma / om**2) * (-1j) * eth * E01 / a,),
    )
    q2 = TangentVector(
        np.array([[0.0, -0.5j * om], [0.5j * om, a**2]], dtype=complex),
        (eth * b / a,),
    )
    p2 = TangentVector(
        (a**2 * gamma / (2 * om**4)) * np.array([[0.0, 0.5 * om], [0.5 * om, -2 * dl]], dtype=complex),
        ((a**2 * gamma / (2 * om**4)) * (-1j) * eth * b / a,),
    )
    return [q1, p1, q2, p2]


def _zero_mean_gauge(w: np.ndarray, gamma, alpha, delta, omega) -> np.ndarray:
    """K = f(w) id + w . sigma with the identity part fixing tr[rho_ss K] = 0."""
    f = -(
        4 * delta * (w[0] * omega + delta * w[2])
        - 2 * alpha**2 * w[1] * omega
        + alpha**4 * w[2]
    ) / gamma
    return f * I2 + w[0] * SIGMA_X + w[1] * SIGMA_Y + w[2] * SIGMA_Z


def two_level_reference(p: TwoLevelParams) -> TwoLevelReference:
    a, dl, om = p.alpha, p.delta, p.omega
    gamma = a**4 + 4 * dl**2 + 2 * om**2
    xi = 2 * dl + 1j * a**2
    xi2 = abs(xi) ** 2
    rho_ss = (om / gamma) * np.array(
        [[gamma / om - om, xi], [np.conj(xi), om]], dtype=complex
    )
    fisher = np.array(
        [
            2 * om**2 * xi2 * (2 * a**4 + om**2) / (a**2 * gamma**3),
            (
                a**12
                + a**8 * (8 * dl**2 + 6 * om**2)
                + 4 * a**4 * (4 * dl**4 - 2 * dl**2 * om**2 + 3 * om**4)
                + 8 * om**6
            )
            / (a**2 * gamma**3),
            om**2 / gamma,
            a**2 * om**2 * (-2 * om**2 * (a**4 - 12 * dl**2) + xi2**2 + 4 * om**4) / gamma**3,
        ]
    )

    # gauge components of the coordinate directions, in the zero-mean gauge;
    # the K parts carry a factor 1/2 relative to the bare Pauli-vector data
    def comp(scale, w, r):
        K = 0.5 * scale * _zero_mean_gauge(np.asarray(w, dtype=float), gamma, a, dl, om)
        return LieAlgebraElement(K, scale * r)

    conn = (
        comp(1.0 / gamma, (-4 * dl * om / a**2, -2 * om, -xi2 / a**2), xi2 / 2),
        comp(2.0 / gamma, (-(a**4 + 2 * om**2) / a**2, 2 * dl, -2 * dl * om / a**2), dl * om),
        LieAlgebraElement(_Z2, 0.0),
        comp(-1.0 / gamma, (4 * dl * om, 2 * a**2 * om, xi2), a**2 * om**2),
    )
    # note the r parts above do not carry the 1/2: comp halves K only
    symplectic_f = np.array(
        [om**2 / (a**2 * gamma), a**2 * gamma / om**2, 2 * om**4 / (a**2 * gamma), a**2 * gamma / (2 * om**4)]
    )
    proj = np.array(
        [
            [-4 * a**4 * gamma * dl, 2 * a**4 * om**2, a**4 * gamma, 4 * dl * om**4],
            [
                -(a**4) * gamma * (gamma - 8 * dl**2) / om,
                -4 * a**4 * dl * om,
                -2 * a**4 * dl * gamma / om,
                2 * om**3 * (a**4 + 2 * om**2),
            ],
            [a * (gamma * a) ** 2, 0.0, 0.0, 0.0],
            [
                -4 * gamma * a**4 * dl * a**2,
                om**2 * (2 * a**4 - gamma) * a**2,
                a**4 * gamma * a**2,
                4 * dl * om**4 * a**2,
            ],
        ]
    ).T / (gamma * a) ** 2
    return TwoLevelReference(
        gamma=float(gamma),
        xi=complex(xi),
        rho_ss=rho_ss,
        fisher=fisher,
        connection_components=conn,
        symplectic_f=symplectic_f,
        projection_coords=proj,
    )


def _comm(A, B):
    return A @ B - B @ A


def one_param_presets(h, ell) -> tuple:
    """Three one-parameter families on the base dynamics (H, L).

    Each record carries the family, the tangent vector at the base point and
    the closed-form information rate (metric scale):

      phase:       theta -> (H, e^{-i theta} L), tangent (0, i L),
                   f = tr[rho_ss M* M], M = L + [L, W^{-1}(L*L - <L*L> id)];
      coupling:    theta -> (H, theta L), tangent (0, L), f = tr[rho_ss L*L];
      hamiltonian: theta -> (theta H, L), tangent (H, 0),
                   f = tr[rho_ss [L, Z]* [L, Z]], Z = W^{-1}(H - <H> id).
    """
    h = np.asarray(h, dtype=complex)
    ell = np.asarray(ell, dtype=complex)
    base = DynamicalParams(h, (ell,))
    rep = require_ergodic(base)
    rho = rep.stationary
    d = base.dim

    ldl = dag(ell) @ ell
    z_phase = restricted_inverse(base, ldl - np.trace(rho @ ldl) * np.eye(d))
    m_phase = ell + _comm(ell, z_phase)
    f_phase = float(np.trace(rho @ dag(m_phase) @ m_phase).real)

    f_coupling = float(np.trace(rho @ ldl).real)

    z_ham = restricted_inverse(base, h - np.trace(rho @ h) * np.eye(d))
    m_ham = _comm(ell, z_ham)
    f_ham = float(np.trace(rho @ dag(m_ham) @ m_ham).real)

    zero = np.zeros_like(h)
    return (
        OneParamModel(
            name="phase",
            family=lambda th: DynamicalParams(h, (np.exp(-1j * th) * ell,)),
            tangent=TangentVector(zero, (1j * ell,)),
            reference_qfi=f_phase,
        ),
        OneParamModel(
            name="coupling",
            family=lambda th: DynamicalParams(h, (th * ell,)),
            tangent=TangentVector(zero, (ell,)),
            reference_qfi=f_coupling,
        ),
        OneParamModel(
            name="hamiltonian",
            family=lambda th: DynamicalParams(th * h, (ell,)),
            tangent=TangentVector(h, (zero,)),
            reference_qfi=f_ham,
        ),
    )

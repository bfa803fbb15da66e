"""Markov covariance of output fluctuations and the Fisher information rate.

For a tuple X = (X^0, X^1, ..., X^k) of system operators, the long-time
covariance of the associated output fluctuation integrals defines a positive
sesquilinear form.  With Z_X = W^{-1}(X^0 - tr[rho_ss X^0] id), it evaluates
in closed form as

    (X, Y) = sum_i tr[ rho_ss (X^i - i[L^i, Z_X])* (Y^i - i[L^i, Z_Y]) ],

equivalently (X, Y) = sum_i tr[rho_ss R(X)^i* R(Y)^i] where

    R(X) = (C(X^0), X^1, ..., X^k) - Lcal(W^{-1} C(X^0)),
    Lcal(K) = (W(K), i[L^1, K], ..., i[L^k, K]),
    C(X) = X - tr[rho_ss X] id.

R is a projection onto tuples with vanishing first component, and its kernel
(the degenerate directions of the form) is exactly the image of Lcal plus
identity shifts.  Tangent vectors enter through

    x_map(dD) = (E(dD), dL^1, ..., dL^k),

and the Fisher information rate of the stationary output is the real part
of the form on such images (times 4 in the generator-variance convention).

The exact finite-time covariance, from one block matrix exponential, is
provided as a numerical oracle for the limit formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TangentVector, e_map
from .lindblad import DynamicalParams, heisenberg_generator, require_ergodic, restricted_inverse
from .opspace import apply, dag, devectorize, expm, frozen_operators, left_right_superop, vectorize

CONVENTIONS = ("four_x", "metric")


@dataclass(frozen=True)
class OperatorTuple:
    """An element X = (X^0, X^1, ..., X^k) of M(C^d)^{k+1}."""

    x0: np.ndarray
    xs: tuple

    def __init__(self, x0, xs):
        x0, xs = frozen_operators("operator tuple", x0, xs)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xs", xs)

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.xs)

    def norm(self) -> float:
        return float(np.sqrt(np.linalg.norm(self.x0) ** 2 + sum(np.linalg.norm(X) ** 2 for X in self.xs)))


@dataclass(frozen=True)
class QfiMatrix:
    """Real symmetric Fisher-rate matrix together with its scale convention."""

    matrix: np.ndarray
    convention: str


def centering(D: DynamicalParams, X0) -> np.ndarray:
    """C(X) = X - tr[rho_ss X] id."""
    X0 = np.asarray(X0, dtype=complex)
    return X0 - np.trace(require_ergodic(D).stationary @ X0) * np.eye(D.dim)


def x_map(D: DynamicalParams, dD: TangentVector) -> OperatorTuple:
    """Tangent vector to operator tuple: (E(dD), dL^1, ..., dL^k)."""
    return OperatorTuple(e_map(D, dD), dD.dls)


def l_map(D: DynamicalParams, K) -> OperatorTuple:
    """The degenerate-direction map Lcal(K) = (W(K), i[L^1, K], ..., i[L^k, K])."""
    K = np.asarray(K, dtype=complex)
    W = heisenberg_generator(D)
    return OperatorTuple(apply(W, K), tuple(1j * (L @ K - K @ L) for L in D.ls))


def r_projection(D: DynamicalParams, X: OperatorTuple) -> OperatorTuple:
    """The projection R onto tuples of the form (0, Y^1, ..., Y^k)."""
    W = require_ergodic(D).generator
    x0c = centering(D, X.x0)
    Z = restricted_inverse(D, x0c)
    return OperatorTuple(
        x0c - apply(W, Z),
        tuple(Xi - 1j * (L @ Z - Z @ L) for Xi, L in zip(X.xs, D.ls)),
    )


def markov_covariance(D: DynamicalParams, X: OperatorTuple, Y: OperatorTuple) -> complex:
    """The limit covariance (X, Y) = sum_i tr[rho_ss R(X)^i* R(Y)^i]."""
    rho = require_ergodic(D).stationary
    RX = r_projection(D, X)
    RY = r_projection(D, Y)
    return complex(sum(np.trace(rho @ dag(Xi) @ Yi) for Xi, Yi in zip(RX.xs, RY.xs)))


def markov_covariance_expanded(D: DynamicalParams, X: OperatorTuple, Y: OperatorTuple) -> complex:
    """Second route to the covariance, from the Ito expansion before the
    dissipation identity is applied:

        (X, Y) = tr[rho (sum_i X^i* Y^i - X^0* W^-1(Y^0) - W^-1(X^0*) Y^0
                  - i sum_i X^i* [L^i, W^-1(Y^0)] + i sum_i [W^-1(X^0*), L^i*] Y^i)]

    with X^0, Y^0 replaced by their centred versions.
    """
    rho = require_ergodic(D).stationary
    x0c = centering(D, X.x0)
    y0c = centering(D, Y.x0)
    Zy, Zxd = restricted_inverse(D, np.stack([y0c, dag(x0c)]))
    acc = -dag(x0c) @ Zy - Zxd @ y0c
    for Xi, Yi, L in zip(X.xs, Y.xs, D.ls):
        acc = acc + dag(Xi) @ Yi
        acc = acc - 1j * dag(Xi) @ (L @ Zy - Zy @ L)
        acc = acc + 1j * (Zxd @ dag(L) - dag(L) @ Zxd) @ Yi
    return complex(np.trace(rho @ acc))


def tangent_covariance(D: DynamicalParams, dDa: TangentVector, dDb: TangentVector) -> complex:
    """Covariance pulled back to tangent vectors via x_map."""
    return markov_covariance(D, x_map(D, dDa), x_map(D, dDb))


def tangent_gram(D: DynamicalParams, tangents) -> np.ndarray:
    """Complex Gram matrix M_ab = (x_map(dD_a), x_map(dD_b)) of tangent vectors.

    The R-projections of all tangents come from one stacked restricted
    solve.  M is Hermitian: its real part is the Fisher metric, its
    imaginary part the symplectic form.
    """
    rho = require_ergodic(D).stationary
    tangents = list(tangents)
    m, d = len(tangents), D.dim
    if not m:
        return np.zeros((0, 0), dtype=complex)
    E0 = np.stack([centering(D, e_map(D, dD)) for dD in tangents])
    Z = restricted_inverse(D, E0)[:, None]  # (m, 1, d, d): broadcast over the channels
    # reshape keeps the k = 0 case a (m, 0, d, d) stack
    Ls = np.array(D.ls, dtype=complex).reshape(-1, d, d)
    dLs = np.array([dD.dls for dD in tangents], dtype=complex).reshape(m, -1, d, d)
    Y = dLs - 1j * (Ls @ Z - Z @ Ls)
    # tr[rho A* B] = <A, B rho> in the Frobenius pairing
    M = Y.reshape(m, -1).conj() @ (Y @ rho).reshape(m, -1).T
    return 0.5 * (M + dag(M))


def qfi_rate(D: DynamicalParams, tangents, convention: str) -> QfiMatrix:
    """Fisher information rate matrix of the stationary output.

    convention must be chosen explicitly: "metric" returns
    Re (x_map(dD_a), x_map(dD_b)); "four_x" returns 4 times that, the scale
    carried by the generator-variance form of the rate.  Gauge directions
    produce exactly vanishing rows and columns.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    G = tangent_gram(D, tangents).real
    if convention == "four_x":
        G = 4.0 * G
    return QfiMatrix(matrix=G, convention=convention)


def default_phi(D: DynamicalParams) -> np.ndarray:
    """The eigenvector of rho_ss with the largest eigenvalue, the default initial system vector."""
    vals, vecs = np.linalg.eigh(require_ergodic(D).stationary)
    return vecs[:, int(np.argmax(vals))]


def finite_time_covariance(
    D: DynamicalParams,
    X: OperatorTuple,
    Y: OperatorTuple,
    t: float,
    *,
    phi: np.ndarray | None = None,
) -> complex:
    """Exact finite-time fluctuation covariance <F_t(X)* F_t(Y)>.

    The vacuum expectation splits into an Ito term and two cross terms,

        (1/t) <phi| J_t(sum_i X^i* Y^i) |phi>
      + (1/t) int_0^t <phi| J_{t-s}( Phi_X( T_s(Y^0) ) ) |phi> ds
      + conj{ same with X and Y swapped },

    where J_tau = int_0^tau T_q dq and Phi_U(B) = U^0* B - i sum_i U^i* [B, L^i].
    Both integrals are blocks of one matrix exponential per tuple U,

        exp(t [[0, I, 0], [0, W, Phi_U], [0, 0, W]]),

    whose block (0, 1) is J_t and block (0, 2) is int_0^t J_{t-s} Phi_U T_s ds
    (Van Loan, IEEE TAC 23(3), 1978).  X^0 and Y^0 must be centred.  phi
    defaults to :func:`default_phi`.  Converges to markov_covariance as t
    grows, at rate O(1/t).
    """
    if t <= 0:
        raise ValueError("finite_time_covariance requires t > 0")
    rep = require_ergodic(D)
    rho = rep.stationary
    d = D.dim
    for name, X0 in (("X", X.x0), ("Y", Y.x0)):
        mean = np.trace(rho @ X0)
        if abs(mean) > 1e-9 * (1.0 + np.linalg.norm(X0)):
            raise ValueError(f"{name}^0 is not centred: tr[rho_ss {name}^0] = {mean:.3e}")
    phi = default_phi(D) if phi is None else np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)

    W = rep.generator
    n = d * d
    ident = np.eye(d, dtype=complex)

    def integrals(U: OperatorTuple) -> tuple[np.ndarray, np.ndarray]:
        phi_u = left_right_superop(dag(U.x0), ident)
        for Ui, L in zip(U.xs, D.ls):
            phi_u = phi_u - 1j * (left_right_superop(dag(Ui), L) - left_right_superop(dag(Ui) @ L, ident))
        blk = np.zeros((3 * n, 3 * n), dtype=complex)
        blk[:n, n : 2 * n] = np.eye(n)
        blk[n : 2 * n, n : 2 * n] = W
        blk[n : 2 * n, 2 * n :] = phi_u
        blk[2 * n :, 2 * n :] = W
        E = expm(blk, t)
        return E[:n, n : 2 * n], E[:n, 2 * n :]

    def expect(v: np.ndarray) -> complex:
        return phi.conj() @ devectorize(v, d) @ phi

    J, cross_x = integrals(X)
    cross_y = cross_x if Y is X else integrals(Y)[1]
    ito_op = sum(dag(Xi) @ Yi for Xi, Yi in zip(X.xs, Y.xs))
    total = expect(J @ vectorize(ito_op)) + expect(cross_x @ vectorize(Y.x0))
    total = total + np.conj(expect(cross_y @ vectorize(X.x0)))
    return complex(total / t)

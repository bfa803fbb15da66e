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

A finite-time evaluation of the covariance by deterministic quadrature is
provided as a numerical oracle for the limit formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import TangentVector, e_map
from .lindblad import DynamicalParams, heisenberg_generator, require_ergodic, restricted_inverse
from .opspace import dag, devectorize, vectorize

CONVENTIONS = ("four_x", "metric")


@dataclass(frozen=True)
class OperatorTuple:
    """An element X = (X^0, X^1, ..., X^k) of M(C^d)^{k+1}."""

    x0: np.ndarray
    xs: tuple

    def __init__(self, x0, xs):
        x0 = np.asarray(x0, dtype=complex)
        xs = tuple(np.asarray(X, dtype=complex) for X in xs)
        d = x0.shape[0]
        if x0.shape != (d, d) or any(X.shape != (d, d) for X in xs):
            raise ValueError("tuple components must be square matrices of equal dimension")
        mats = (x0,) + xs
        if not all(np.all(np.isfinite(m)) for m in mats):
            raise ValueError("non-finite entries in operator tuple")
        x0 = x0.copy()
        x0.setflags(write=False)
        xs = tuple(X.copy() for X in xs)
        for X in xs:
            X.setflags(write=False)
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
    return OperatorTuple(W(K), tuple(1j * (L @ K - K @ L) for L in D.ls))


def r_projection(D: DynamicalParams, X: OperatorTuple) -> OperatorTuple:
    """The projection R onto tuples of the form (0, Y^1, ..., Y^k)."""
    W = require_ergodic(D).generator
    x0c = centering(D, X.x0)
    Z = restricted_inverse(D, x0c)
    return OperatorTuple(
        x0c - W(Z),
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


def finite_time_covariance(
    D: DynamicalParams,
    X: OperatorTuple,
    Y: OperatorTuple,
    t: float,
    quad_steps: int,
    *,
    phi: np.ndarray | None = None,
) -> complex:
    """Finite-time fluctuation covariance <F_t(X)* F_t(Y)> by quadrature.

    The vacuum expectation splits into an Ito term and two cross terms,

        (1/t) int_0^t <phi| T_s(sum_i X^i* Y^i) |phi> ds
      + (1/t) int_0^t <phi| J_{t-s}( Phi_X( T_s(Y^0) ) ) |phi> ds
      + conj{ same with X and Y swapped },

    where J_tau = int_0^tau T_q dq and Phi_X(B) = X^0* B - i sum_i X^i* [B, L^i].
    Semigroup and integrated-semigroup values at the quadrature nodes are
    accumulated exactly from one block matrix exponential of step size t/N;
    only the outer integrals use composite Simpson.  X^0 and Y^0 must be
    centred.  Converges to markov_covariance as t grows, at rate O(1/t).
    """
    if t <= 0:
        raise ValueError("finite_time_covariance requires t > 0")
    if quad_steps < 4:
        raise ValueError("quad_steps must be at least 4")
    N = int(quad_steps)
    if N % 2:
        N += 1
    rep = require_ergodic(D)
    rho = rep.stationary
    d = D.dim
    for name, X0 in (("X", X.x0), ("Y", Y.x0)):
        mean = np.trace(rho @ X0)
        if abs(mean) > 1e-9 * (1.0 + np.linalg.norm(X0)):
            raise ValueError(f"{name}^0 is not centred: tr[rho_ss {name}^0] = {mean:.3e}")
    if phi is None:
        vals, vecs = np.linalg.eigh(rho)
        phi = vecs[:, int(np.argmax(vals))]
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)

    W = rep.generator.matrix
    n = d * d
    h = t / N
    # block exponential gives the step propagator and its exact integral
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[:n, :n] = W
    blk[:n, n:] = np.eye(n)
    eb = scipy.linalg.expm(h * blk)
    Mh, Qh = eb[:n, :n], eb[:n, n:]
    E = np.empty((N + 1, n, n), dtype=complex)
    J = np.empty((N + 1, n, n), dtype=complex)
    E[0] = np.eye(n)
    J[0] = 0.0
    for k in range(N):
        J[k + 1] = J[k] + Qh @ E[k]
        E[k + 1] = Mh @ E[k]

    def expect(mat: np.ndarray) -> complex:
        return phi.conj() @ mat @ phi

    def phi_map(U: OperatorTuple, B: np.ndarray) -> np.ndarray:
        out = dag(U.x0) @ B
        for Ui, L in zip(U.xs, D.ls):
            out = out - 1j * dag(Ui) @ (B @ L - L @ B)
        return out

    weights = np.ones(N + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0

    ito_op = sum(dag(Xi) @ Yi for Xi, Yi in zip(X.xs, Y.xs))
    total = expect(devectorize(J[N] @ vectorize(ito_op), d)) / t

    def cross(U: OperatorTuple, V0: np.ndarray) -> complex:
        vals = np.empty(N + 1, dtype=complex)
        v0 = vectorize(V0)
        for k in range(N + 1):
            TsV = devectorize(E[k] @ v0, d)
            vals[k] = expect(devectorize(J[N - k] @ vectorize(phi_map(U, TsV)), d))
        return (weights @ vals) / t

    total = total + cross(X, Y.x0) + np.conj(cross(Y, X.x0))
    return complex(total)

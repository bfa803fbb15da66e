"""Gauge group action, connection one-form and the identifiable/gauge split.

Two ergodic dynamics produce identical stationary outputs exactly when they
are related by a unitary conjugation of all operators together with a real
shift of the Hamiltonian.  These transformations form the gauge group
G = PU(d) x R acting by

    (W, a) . (H, L^1, ...) = (W* H W + a id, W* L^1 W, ...).

Differentiating the action gives the pushforward of a Lie algebra element
(-iK, r) (K Hermitian, fixed to zero mean against rho_ss):

    (i[H, K], i[L^1, K], ...) + r (id, 0, ...),

whose images span the gauge (non-identifiable) tangent directions.  The map

    E(dD) = dH + Im sum_i dL^i* L^i

is the quantum-Ito correction appearing in the output generators; tangent
vectors with E(dD) = 0 are the identifiable directions.  The connection
one-form

    omega(dD) = (K, r) with K = W^{-1}(E(dD) - tr[rho_ss E(dD)] id),
                             r = tr[rho_ss E(dD)]

inverts the pushforward on gauge directions, and P = Id - push o omega is
the horizontal projection onto the identifiable subspace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import DynamicalParams, offdiag_generator, require_ergodic, restricted_inverse
from .opspace import dag, devectorize, frozen_operators, im_part

EQ_TOL_SCALE = 1e-8
WITNESS_PROPORTIONALITY_TOL = 1e-6


@dataclass(frozen=True)
class TangentVector:
    """A perturbation dD = (dH, dL^1, ..., dL^k) of a dynamical parameter."""

    dh: np.ndarray
    dls: tuple

    def __init__(self, dh, dls):
        dh, dls = frozen_operators("tangent vector", dh, dls, hermitian="dH")
        object.__setattr__(self, "dh", dh)
        object.__setattr__(self, "dls", dls)

    @property
    def dim(self) -> int:
        return self.dh.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.dls)

    @classmethod
    def zero(cls, dim: int, n_channels: int) -> "TangentVector":
        z = np.zeros((dim, dim), dtype=complex)
        return cls(z, (z,) * n_channels)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.dh + other.dh, tuple(a + b for a, b in zip(self.dls, other.dls)))

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.dh - other.dh, tuple(a - b for a, b in zip(self.dls, other.dls)))

    def __rmul__(self, c: float) -> "TangentVector":
        # real scalars only: the tangent space is a real linear space
        return TangentVector(float(c) * self.dh, tuple(float(c) * dL for dL in self.dls))

    def __neg__(self) -> "TangentVector":
        return -1.0 * self

    def norm(self) -> float:
        return float(np.sqrt(np.linalg.norm(self.dh) ** 2 + sum(np.linalg.norm(dL) ** 2 for dL in self.dls)))


@dataclass(frozen=True)
class GaugeElement:
    """Group element (W, a): conjugation by the unitary W plus Hamiltonian shift a."""

    w: np.ndarray
    a: float = 0.0

    def __init__(self, w, a: float = 0.0):
        w = np.asarray(w, dtype=complex)
        d = w.shape[0]
        err = np.max(np.abs(dag(w) @ w - np.eye(d)))
        if err > 1e-10:
            raise ValueError(f"W is not unitary: ||W*W - id|| = {err:.3e}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", float(a))

    def canonical(self) -> "GaugeElement":
        """Fix the projective phase: largest-modulus diagonal entry real positive."""
        diag = np.diagonal(self.w)
        k = int(np.argmax(np.abs(diag)))
        pivot = diag[k]
        if abs(pivot) < 1e-12:
            # vanishing diagonal (e.g. permutation-like W): pivot on the
            # largest entry instead, which is >= 1/sqrt(d) for a unitary
            pivot = self.w.flat[int(np.argmax(np.abs(self.w)))]
        return GaugeElement(self.w * (abs(pivot) / pivot), self.a)


def gauge_compose(g1: GaugeElement, g2: GaugeElement) -> GaugeElement:
    """The element g with gauge_apply(g, D) = gauge_apply(g1, gauge_apply(g2, D)).

    Conjugations H -> W* H W compose as (W1, a1) o (W2, a2) = (W2 W1, a1 + a2).
    """
    return GaugeElement(g2.w @ g1.w, g1.a + g2.a)


@dataclass(frozen=True)
class LieAlgebraElement:
    """Lie algebra element (-iK, r) with K Hermitian, conventionally of zero
    mean against the stationary state (the identity part of K acts trivially)."""

    k: np.ndarray
    r: float

    def __init__(self, k, r: float):
        k, _ = frozen_operators("Lie algebra element", k, hermitian="K", herm_tol=1e-10)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", float(r))

    @classmethod
    def with_zero_mean(cls, k, r: float, rho: np.ndarray) -> "LieAlgebraElement":
        """Shift the identity component of K so that tr[rho K] = 0."""
        k = np.asarray(k, dtype=complex)
        return cls(k - np.trace(rho @ k) * np.eye(k.shape[0]), r)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Outcome of the constructive output-equivalence test."""

    found: bool
    w: np.ndarray | None
    r: float | None
    eigen_real_part: float


def gauge_apply(g: GaugeElement, D: DynamicalParams) -> DynamicalParams:
    """Act on a dynamical parameter: (W* H W + a id, W* L^i W)."""
    if g.w.shape[0] != D.dim:
        raise ValueError("dimension mismatch between gauge element and parameters")
    w = g.w
    return DynamicalParams(
        dag(w) @ D.h @ w + g.a * np.eye(D.dim),
        tuple(dag(w) @ L @ w for L in D.ls),
    )


def gauge_pushforward(g: GaugeElement, dD: TangentVector) -> TangentVector:
    """Differential of the action at fixed g: conjugate every component."""
    w = g.w
    return TangentVector(dag(w) @ dD.dh @ w, tuple(dag(w) @ dL @ w for dL in dD.dls))


def lie_pushforward(D: DynamicalParams, X: LieAlgebraElement) -> TangentVector:
    """Tangent vector generated by the infinitesimal gauge transformation X = (-iK, r)."""
    K = X.k
    dh = 1j * (D.h @ K - K @ D.h) + X.r * np.eye(D.dim)
    dls = tuple(1j * (L @ K - K @ L) for L in D.ls)
    return TangentVector(dh, dls)


def e_map(D: DynamicalParams, dD: TangentVector) -> np.ndarray:
    """The Ito-correction map E(dD) = dH + Im sum_i dL^i* L^i (Hermitian)."""
    if dD.dim != D.dim or dD.n_channels != D.n_channels:
        raise ValueError("tangent vector does not match parameter dimensions")
    acc = np.zeros((D.dim, D.dim), dtype=complex)
    for dL, L in zip(dD.dls, D.ls):
        acc = acc + dag(dL) @ L
    return dD.dh + im_part(acc)


def e0_map(D: DynamicalParams, dD: TangentVector) -> np.ndarray:
    """Centred Ito correction E(dD) - tr[rho_ss E(dD)] id."""
    E = e_map(D, dD)
    return E - np.trace(require_ergodic(D).stationary @ E) * np.eye(D.dim)


def connection_form(D: DynamicalParams, dD: TangentVector) -> LieAlgebraElement:
    """Connection one-form omega(dD) = (W^{-1}(E^0(dD)), tr[rho_ss E(dD)]).

    Returns the unique Lie algebra element whose pushforward reproduces the
    gauge part of dD; the K component is zero-mean by construction.
    """
    rho = require_ergodic(D).stationary
    E = e_map(D, dD)
    r = np.trace(rho @ E).real
    E0 = E - r * np.eye(D.dim)
    K = restricted_inverse(D, E0)
    K = 0.5 * (K + dag(K))
    return LieAlgebraElement(K, r)


def horizontal_projection(D: DynamicalParams, dD: TangentVector) -> TangentVector:
    """P(dD) = dD - push(omega(dD)); the identifiable part of dD (E(P dD) = 0)."""
    om = connection_form(D, dD)
    return dD - lie_pushforward(D, om)


def _hermitian_traceless_basis(d: int):
    """Generalised Gell-Mann basis of traceless Hermitian d x d matrices."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            M = np.zeros((d, d), dtype=complex)
            M[i, j] = M[j, i] = 1.0
            out.append(M)
            M = np.zeros((d, d), dtype=complex)
            M[i, j] = -1j
            M[j, i] = 1j
            out.append(M)
    for m in range(1, d):
        M = np.zeros((d, d), dtype=complex)
        M[:m, :m] = np.eye(m)
        M[m, m] = -m
        out.append(M * np.sqrt(2.0 / (m * (m + 1))))
    return out


def vertical_basis(D: DynamicalParams) -> list:
    """Pushforwards of a Lie algebra basis: d^2 spanning gauge directions.

    The first d^2 - 1 come from zero-mean Hermitian generators, the last is
    the Hamiltonian-shift direction (id, 0, ..., 0).
    """
    rho = require_ergodic(D).stationary
    basis = [
        lie_pushforward(D, LieAlgebraElement.with_zero_mean(B, 0.0, rho))
        for B in _hermitian_traceless_basis(D.dim)
    ]
    basis.append(lie_pushforward(D, LieAlgebraElement(np.zeros((D.dim, D.dim)), 1.0)))
    return basis


def find_gauge_equivalence(
    D: DynamicalParams, D2: DynamicalParams, *, eq_tol_scale: float = EQ_TOL_SCALE
) -> EquivalenceWitness:
    """Decide output equivalence of two ergodic dynamics, constructively.

    The two-parameter generator W_{D,D'} has a purely imaginary eigenvalue
    i r exactly when the dynamics are gauge equivalent, and the associated
    eigenmatrix F satisfies F*F = ||F*F|| id; then U = F / ||F*F||^{1/2} is
    the conjugating unitary and H' = U* H U - r id.  Inequivalent pairs are
    reported with the largest real part of the spectrum (strictly negative,
    the margin of the decision).
    """
    require_ergodic(D)
    require_ergodic(D2)
    W12 = offdiag_generator(D, D2)
    vals, vecs = np.linalg.eig(W12)
    eq_tol = eq_tol_scale * (1.0 + np.linalg.norm(W12))
    max_re = float(np.max(vals.real))

    order = np.argsort(-vals.real)
    for idx in order:
        lam = vals[idx]
        if abs(lam.real) >= eq_tol:
            break
        F = devectorize(vecs[:, idx], D.dim)
        FdF = dag(F) @ F
        scale = np.trace(FdF).real / D.dim
        if scale <= 0 or np.max(np.abs(FdF - scale * np.eye(D.dim))) > WITNESS_PROPORTIONALITY_TOL * scale:
            # an almost-imaginary eigenvalue without a unitary eigenmatrix is
            # a numerical artefact, not an equivalence
            continue
        # snap F / sqrt(scale) to the nearest unitary (polar factor), so the
        # witness stays valid for borderline eigenmatrices inside the guard
        u_svd, _, vh_svd = np.linalg.svd(F)
        g = GaugeElement(u_svd @ vh_svd, 0.0).canonical()
        return EquivalenceWitness(found=True, w=g.w, r=float(lam.imag), eigen_real_part=float(lam.real))

    return EquivalenceWitness(found=False, w=None, r=None, eigen_real_part=max_re)

"""Lindblad generators, stationary states and ergodicity diagnostics.

A continuous-time quantum Markov process on C^d is specified by the tuple
D = (H, L^1, ..., L^k) of a Hermitian Hamiltonian and k jump operators.
The Heisenberg-picture generator is

    W(X) = -i X H_eff + i H_eff* X + sum_i L^i* X L^i,
    H_eff = H - (i/2) sum_i L^i* L^i,

whose semigroup T_t = exp(t W) is unital and completely positive.  The
process is ergodic when the trace-dual W_* has a unique, full-rank fixed
state rho_ss; in that case T_t converges to tr[rho_ss (.)] id and W is
invertible on the zero-mean subspace B_0 = {X : tr[rho_ss X] = 0}.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .opspace import apply, dag, devectorize, expm, frozen_operators, left_right_superop, vectorize

RANK_TOL_SCALE = 1e-9
FULL_RANK_TOL = 1e-10
CENTERED_TOL = 1e-10


class NonErgodicError(ValueError):
    """Raised when an operation requires ergodic dynamics but got none."""


@dataclass(frozen=True)
class DynamicalParams:
    """The dynamical parameter D = (H, L^1, ..., L^k).

    Instances are immutable (their arrays are read-only copies), so the
    ergodicity diagnosis and the group inverse of W are
    computed at most once per instance and shared by every function that
    needs them; see :func:`require_ergodic`.
    """

    h: np.ndarray
    ls: tuple

    def __init__(self, h, ls):
        h, ls = frozen_operators("dynamical parameters", h, ls, hermitian="H")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "ls", ls)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.ls)

    def effective_hamiltonian(self) -> np.ndarray:
        """H_eff = H - (i/2) sum_i L^i* L^i (non-Hermitian)."""
        acc = np.zeros_like(self.h)
        for L in self.ls:
            acc = acc + dag(L) @ L
        return self.h - 0.5j * acc

    @cached_property
    def _ergodic_context(self) -> ErgodicityReport:
        # a failed diagnosis raises, and cached_property stores nothing then
        rep = stationary_state(self)
        if not rep.ergodic:
            raise NonErgodicError(
                f"dynamics is not ergodic: {rep.zero_eigen_count} near-zero eigenvalues, "
                f"min stationary eigenvalue {rep.min_stationary_eigenvalue:.3e}"
            )
        # [[W, vec(id)], [vec(rho)^H, 0]] is nonsingular for ergodic W, and since
        # W(id) = 0, tr[rho W(.)] = 0 and tr rho = 1 the top-left (d^2, d^2)
        # block of its inverse is the group inverse W^# (Meyer, SIAM Review 17, 1975)
        n = self.dim**2
        border = np.zeros((n + 1, n + 1), dtype=complex)
        border[:n, :n] = rep.generator
        border[:n, n] = vectorize(np.eye(self.dim))
        border[n, :n] = vectorize(rep.stationary).conj()
        return replace(rep, group_inverse=frozen_operators("group inverse", np.linalg.inv(border)[:n, :n])[0])


@dataclass(frozen=True)
class ErgodicityReport:
    """Spectral diagnosis of a generator: unique full-rank fixed state or not.

    generator is the W that was diagnosed, a read-only (d^2, d^2) array.
    group_inverse, the group inverse W^# as a read-only (d^2, d^2) array,
    is set only on the report that :func:`require_ergodic` returns.
    """

    ergodic: bool
    stationary: np.ndarray | None
    zero_eigen_count: int
    min_stationary_eigenvalue: float
    spectral_gap: float
    generator: np.ndarray | None = field(default=None, repr=False)
    group_inverse: np.ndarray | None = field(default=None, repr=False)


def heisenberg_generator(D: DynamicalParams) -> np.ndarray:
    """The Heisenberg-picture generator W as a d^2 x d^2 matrix."""
    return offdiag_generator(D, D)


def schrodinger_generator(D: DynamicalParams) -> np.ndarray:
    """Trace-dual generator W_*, evolving states: W_*(rho) = -i[H, rho] + dissipator."""
    ident = np.eye(D.dim, dtype=complex)
    W = -1j * (left_right_superop(D.h, ident) - left_right_superop(ident, D.h))
    for L in D.ls:
        ldl = dag(L) @ L
        W = W + left_right_superop(L, dag(L))
        W = W - 0.5 * (left_right_superop(ldl, ident) + left_right_superop(ident, ldl))
    return W


def offdiag_generator(D: DynamicalParams, D2: DynamicalParams) -> np.ndarray:
    """Two-parameter generator W_{D,D'}(X) = -i X H'_eff + i H_eff* X + sum_i L^i* X L'^i.

    Generates the contraction semigroup whose action on the identity gives
    the overlap of system-output vectors for the two dynamics; it reduces
    to the ordinary generator when D' = D.
    """
    if D.dim != D2.dim or D.n_channels != D2.n_channels:
        raise ValueError("off-diagonal generator needs equal dimensions and channel counts")
    ident = np.eye(D.dim, dtype=complex)
    W = -1j * left_right_superop(ident, D2.effective_hamiltonian())
    W = W + 1j * left_right_superop(dag(D.effective_hamiltonian()), ident)
    for L1, L2 in zip(D.ls, D2.ls):
        W = W + left_right_superop(dag(L1), L2)
    return W


def stationary_state(D: DynamicalParams, rank_tol_scale: float = RANK_TOL_SCALE) -> ErgodicityReport:
    """Diagnose ergodicity and return the stationary state when it exists.

    The candidate state is the null vector of W_* (eigenvector with
    eigenvalue nearest zero), trace-normalised and Hermitised. Ergodicity
    requires exactly one eigenvalue of W inside
    |lam| < rank_tol_scale (1 + ||W||) and a strictly positive candidate
    (min eigenvalue > 1e-10).
    """
    d = D.dim
    W = heisenberg_generator(D)
    W.setflags(write=False)
    # left eigenvectors of W are the eigenvectors of W_* = W^H, whose eigenvalues are
    # conjugate to those of W: equal in modulus and real part, all that is read below
    vals, left = np.linalg.eig(dag(W))
    rank_tol = rank_tol_scale * (1.0 + np.linalg.norm(W))
    near_zero = np.abs(vals) < rank_tol
    zero_count = int(np.count_nonzero(near_zero))
    nonzero = vals[~near_zero]
    gap = float(-np.max(nonzero.real)) if nonzero.size else 0.0

    rho = devectorize(left[:, np.argmin(np.abs(vals))], d)
    tr = np.trace(rho)
    if abs(tr) < 1e-14:
        min_eig = -np.inf
        rho = None
    else:
        rho = rho / tr
        rho = 0.5 * (rho + dag(rho))
        min_eig = float(np.min(np.linalg.eigvalsh(rho)))

    ergodic = zero_count == 1 and min_eig > FULL_RANK_TOL
    # rho is kept in the report even when not ergodic: it is the candidate
    # fixed state and useful for diagnosis (e.g. rank-deficient absorbers).
    return ErgodicityReport(
        ergodic=ergodic,
        stationary=rho,
        zero_eigen_count=zero_count,
        min_stationary_eigenvalue=min_eig,
        spectral_gap=gap,
        generator=W,
    )


def require_ergodic(D: DynamicalParams) -> ErgodicityReport:
    """The diagnosis of D, with its group inverse, computed once per D.

    Raises NonErgodicError (on every call) when D is not ergodic.
    """
    return D._ergodic_context


def restricted_inverse(D: DynamicalParams, X) -> np.ndarray:
    """Inverse of W on the zero-mean subspace B_0.

    X is one operator or a (..., d, d) stack of them, solved together.  The
    input must satisfy tr[rho_ss X] = 0 (within 1e-10 of its scale);
    off-subspace inputs are rejected rather than silently centred.
    """
    rep = require_ergodic(D)
    X = np.asarray(X, dtype=complex)
    d = D.dim
    if X.ndim < 2 or X.shape[-2:] != (d, d):
        raise ValueError(f"expected a ({d}, {d}) operator or a stack of them, got shape {X.shape}")
    means = np.einsum("ij,...ji->...", rep.stationary, X)
    scales = CENTERED_TOL * (1.0 + np.linalg.norm(X, axis=(-2, -1)))
    if np.any(np.abs(means) > scales):
        worst = np.max(np.abs(means))
        raise ValueError(f"input is not in B_0: tr[rho_ss X] = {worst:.3e}; centre it first")
    # column-stacked vec(X) of every operator, as the columns of one product
    cols = np.swapaxes(X, -1, -2).reshape(-1, d * d).T
    sol = rep.group_inverse @ cols
    return np.swapaxes(sol.T.reshape(X.shape[:-2] + (d, d)), -1, -2)


def semigroup_apply(D: DynamicalParams, t: float, X) -> np.ndarray:
    """Heisenberg evolution T_t(X) = exp(t W)(X)."""
    if t < 0:
        raise ValueError("semigroup_apply requires t >= 0")
    return apply(expm(heisenberg_generator(D), t), X)

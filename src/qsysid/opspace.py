"""Operator-space linear algebra kernel.

Operators on the d-dimensional system are plain complex (d, d) ndarrays.
Linear maps on operator space ("superoperators") are stored as dense
(d^2, d^2) complex matrices acting on column-stacked operators, so that

    vec(A X B) = (B^T kron A) vec(X).

Everything here is dense; at desk scale (d <= 8, superoperators <= 64x64)
there is nothing to gain from sparsity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-10


def _as_square(X) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix has non-finite entries")
    return X


def frozen_operators(label: str, head, tail=(), *, hermitian: str | None = None, herm_tol: float = 1e-12):
    """Read-only complex copies of the components (head, *tail) of an operator container.

    Every component must be a finite square matrix of the same shape; when
    hermitian names the head, ||head - head*|| may not exceed
    herm_tol (1 + ||head||).  Errors name the container by label.
    """
    mats = [np.array(X, dtype=complex) for X in (head, *tail)]
    shapes = [X.shape for X in mats]
    if mats[0].ndim != 2 or shapes[0][0] != shapes[0][1] or any(s != shapes[0] for s in shapes):
        raise ValueError(f"{label}: components must be square matrices of equal dimension, got shapes {shapes}")
    if not all(np.all(np.isfinite(X)) for X in mats):
        raise ValueError(f"{label}: non-finite entries")
    if hermitian is not None:
        err = np.max(np.abs(mats[0] - dag(mats[0])))
        if err > herm_tol * (1.0 + np.linalg.norm(mats[0])):
            raise ValueError(f"{hermitian} is not Hermitian: ||{hermitian} - {hermitian}*|| = {err:.3e}")
    for X in mats:
        X.setflags(write=False)
    return mats[0], tuple(mats[1:])


def dag(X) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(X).conj().T


def re_part(X) -> np.ndarray:
    """Hermitian part (X + X*)/2."""
    X = np.asarray(X)
    return 0.5 * (X + dag(X))


def im_part(X) -> np.ndarray:
    """Anti-Hermitian part divided by i: (X - X*)/(2i). Hermitian output."""
    X = np.asarray(X)
    return (X - dag(X)) / 2j


def vectorize(X) -> np.ndarray:
    """Column-stack a (d, d) matrix: entry (i, j) lands at index j*d + i."""
    return _as_square(X).reshape(-1, order="F")


def devectorize(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size))) if dim is None else dim
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape(d, d, order="F")


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt pairing tr[A* B]; conjugate-linear in A."""
    A = _as_square(A)
    B = _as_square(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return complex(np.trace(dag(A) @ B))


@dataclass(frozen=True)
class Superoperator:
    """A linear map on (d, d) matrices, stored as a (d^2, d^2) matrix."""

    dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise ValueError(f"superoperator matrix has shape {m.shape}, expected {(self.dim**2,) * 2}")
        if not np.all(np.isfinite(m)):
            raise ValueError("superoperator has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(dim, np.eye(dim**2, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "Superoperator":
        return cls(dim, np.zeros((dim**2, dim**2), dtype=complex))

    def __call__(self, X) -> np.ndarray:
        """Apply the map to an operator."""
        return devectorize(self.matrix @ vectorize(X), self.dim)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in composition")
        return Superoperator(self.dim, self.matrix @ other.matrix)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.dim, self.matrix + other.matrix)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.dim, self.matrix - other.matrix)

    def __rmul__(self, c: complex) -> "Superoperator":
        return Superoperator(self.dim, c * self.matrix)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def left_right_superop(A, B) -> Superoperator:
    """The map X -> A X B as a superoperator."""
    A = _as_square(A)
    B = _as_square(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return Superoperator(A.shape[0], np.kron(B.T, A))


def expm(S: Superoperator, t: float) -> Superoperator:
    """exp(t S), computed by scaling-and-squaring Pade (dense)."""
    if t < 0:
        raise ValueError("expm requires t >= 0")
    return Superoperator(S.dim, scipy.linalg.expm(t * S.matrix))


def eig(S: Superoperator, residual_tol: float = DEFAULT_TOL):
    """Eigenvalues and eigenmatrices of a (generally non-normal) superoperator.

    Returns a list of (eigenvalue, eigenmatrix) pairs with eigenmatrices
    normalised to unit Hilbert-Schmidt norm. Residuals ||S(V) - lam V|| are
    checked against residual_tol * (1 + ||S||); failures indicate that the
    dense eigensolver did not converge for this matrix.
    """
    vals, vecs = scipy.linalg.eig(S.matrix)
    scale = 1.0 + np.linalg.norm(S.matrix)
    out = []
    for k in range(vals.size):
        v = vecs[:, k]
        resid = np.linalg.norm(S.matrix @ v - vals[k] * v)
        if resid > residual_tol * scale:
            raise ArithmeticError(
                f"eigenpair {k} residual {resid:.3e} exceeds {residual_tol * scale:.3e}"
            )
        out.append((complex(vals[k]), devectorize(v / np.linalg.norm(v), S.dim)))
    return out

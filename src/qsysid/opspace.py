"""Operator-space linear algebra kernel.

Operators on the d-dimensional system are plain complex (d, d) ndarrays.
Linear maps on operator space ("superoperators"), such as the generators
W and W_{D,D'}, are plain dense complex (d^2, d^2) ndarrays acting on
column-stacked operators, so that

    vec(A X B) = (B^T kron A) vec(X).

apply(S, X) evaluates S on an operator, and expm(S, t) is the library's
one dense exponential.

Everything here is dense; at desk scale (d <= 8, superoperators <= 64x64)
there is nothing to gain from sparsity.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


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


def apply(S, X) -> np.ndarray:
    """The superoperator S applied to the operator X: devectorize(S vec(X))."""
    return devectorize(S @ vectorize(X))


def left_right_superop(A, B) -> np.ndarray:
    """The map X -> A X B as a superoperator."""
    A = _as_square(A)
    B = _as_square(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return np.kron(B.T, A)


def expm(S, t: float) -> np.ndarray:
    """exp(t S), computed by scaling-and-squaring Pade (dense)."""
    if t < 0:
        raise ValueError("expm requires t >= 0")
    E = scipy.linalg.expm(t * S)
    if not np.all(np.isfinite(E)):
        raise ValueError("superoperator has non-finite entries")
    return E

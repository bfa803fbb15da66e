"""Operator-space linear algebra kernel.

Operators on the d-dimensional system are plain complex (d, d) ndarrays.
Linear maps on operator space ("superoperators"), such as the generators
W and W_{D,D'}, are plain dense complex (d^2, d^2) ndarrays acting on
column-stacked operators, so that

    vec(A X B) = (B^T kron A) vec(X).

apply(S, X) evaluates S on an operator, and expm(S, t) is the library's one
dense exponential, by Pade-13 scaling and squaring (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31(3), 2009).

Everything here is dense; at desk scale (d <= 8, superoperators <= 64x64)
there is nothing to gain from sparsity.
"""
from __future__ import annotations

import numpy as np

# [13/13] Pade coefficients b_0..b_13 (Higham 2005), and the largest scaled norm bound theta_13 at which
# r_13 has a backward error below unit roundoff
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
        10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
_C27_INV = 113250775606021113483283660800000000.0  # 1 / |c_27| = 26! 27! / (13!)^2


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
    """exp(t S) by Pade-13 scaling and squaring (Al-Mohy & Higham 2009, Algorithm 5.1 at m = 13)."""
    if t < 0:
        raise ValueError("expm requires t >= 0")
    A = t * _as_square(S)
    n = A.shape[0]
    if not A.any():
        return np.eye(n, dtype=A.dtype)  # exactly: the solve below divides by b_0 through its reciprocal
    b = _B13
    with np.errstate(all="ignore"):  # overflow surfaces as the ValueError below, not as warnings
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        # s puts max(d_8, min(d_6, d_10)), d_p = ||A^p||_1^(1/p) from exact powers, below theta_13; the ell
        # correction then halves until |c_27| ||a^27||_1 / ||a||_1, a = |2^-s A|, reaches unit roundoff
        d6 = np.linalg.norm(A6, 1) ** (1 / 6)
        d8 = np.linalg.norm(A4 @ A4, 1) ** (1 / 8)
        d10 = np.linalg.norm(A4 @ A6, 1) ** (1 / 10)
        if not np.isfinite(d6 + d8 + d10):  # the powers overflowed
            raise ValueError("superoperator has non-finite entries")
        eta = max(d8, min(d6, d10))
        s = int(np.ceil(np.log2(eta / _THETA13))) if eta > _THETA13 else 0
        a = np.abs(A) * 2.0**-s
        v = np.ones(n)
        for _ in range(27):
            v = v @ a
        alpha = v.max() / (a.sum(axis=0).max() * _C27_INV)  # 0 when |A| is nilpotent
        s += int(max(np.ceil(np.log2(alpha / 2.0**-53) / 26), 0))  # each halving divides alpha by 2^26
        for P, p in ((A, 1), (A2, 2), (A4, 4), (A6, 6)):
            P *= 2.0 ** (-p * s)
        U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
        U.flat[:: n + 1] += b[1]
        U = A @ U
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
        V.flat[:: n + 1] += b[0]
        del A, A2, A4, A6, a  # fewer live (n, n) arrays during the solve
        E = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise ValueError("superoperator has non-finite entries")
    return E

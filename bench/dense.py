"""Independent dense evaluations the benchmark checks reports against.

Everything is written from the formulas, with column-stacked operators,
vec(A X B) = (B^T kron A) vec(X), and shares no code with the library.
A restricted inverse of W on B_0 = {X : tr[rho X] = 0} is one solve of the
bordered matrix [[W, vec(id)], [vec(rho)^H, 0]], which is nonsingular for
ergodic dynamics.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

RANK_TOL_SCALE = 1e-9
FULL_RANK_TOL = 1e-10


def vec(X):
    return np.asarray(X).reshape(-1, order="F")


def unvec(v, d):
    return np.asarray(v).reshape(d, d, order="F")


def dag(X):
    return np.asarray(X).conj().T


def comm(A, B):
    return A @ B - B @ A


def heff(h, ls):
    return h - 0.5j * sum(dag(L) @ L for L in ls)


def generator(h, ls, h2=None, ls2=None):
    """W_{D,D'}(X) = -i X H'_eff + i H_eff* X + sum_i L^i* X L'^i; D' = D gives W."""
    if h2 is None:
        h2, ls2 = h, ls
    eye = np.eye(h.shape[0])
    W = -1j * np.kron(heff(h2, ls2).T, eye) + 1j * np.kron(eye, dag(heff(h, ls)))
    for L, L2 in zip(ls, ls2):
        W = W + np.kron(L2.T, dag(L))
    return W


class Ergodicity(NamedTuple):
    ergodic: bool
    gap: float
    min_eig: float
    rho: np.ndarray
    W: np.ndarray


def ergodicity(h, ls) -> Ergodicity:
    """Unique full-rank fixed state of the trace dual, by the library's documented rule."""
    d = h.shape[0]
    W = generator(h, ls)
    vals = np.linalg.eigvals(W)
    near_zero = np.abs(vals) < RANK_TOL_SCALE * (1.0 + np.linalg.norm(W))
    zero_count = int(np.count_nonzero(near_zero))
    gap = float(-np.max(vals[~near_zero].real))
    # the null vector of W^* is the last right singular vector of W^*
    rho = unvec(np.linalg.svd(dag(W))[2][-1].conj(), d)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + dag(rho))
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    return Ergodicity(zero_count == 1 and min_eig > FULL_RANK_TOL, gap, min_eig, rho, W)


class Dynamics:
    """One ergodic dynamics with its generator, stationary state and bordered solver."""

    def __init__(self, h, ls):
        self.h = np.asarray(h, dtype=complex)
        self.ls = [np.asarray(L, dtype=complex) for L in ls]
        self.d = self.h.shape[0]
        self.erg = ergodicity(self.h, self.ls)
        if not self.erg.ergodic:
            raise ValueError("reference dynamics is not ergodic")
        self.rho = self.erg.rho
        n = self.d * self.d
        border = np.zeros((n + 1, n + 1), dtype=complex)
        border[:n, :n] = self.erg.W
        border[:n, n] = vec(np.eye(self.d))
        border[n, :n] = vec(self.rho).conj()
        self._lu = scipy.linalg.lu_factor(border)

    def centre(self, X):
        return X - np.trace(self.rho @ X) * np.eye(self.d)

    def solve(self, X):
        """K with W(K) = X and tr[rho K] = 0, for X in B_0."""
        return unvec(scipy.linalg.lu_solve(self._lu, np.append(vec(X), 0.0))[:-1], self.d)

    def e_map(self, dh, dls):
        acc = sum(dag(dL) @ L for dL, L in zip(dls, self.ls))
        return dh + (acc - dag(acc)) / 2j

    def r_projection(self, x0, xs):
        """The Y^i components of R(X^0, X^1, ...): X^i - i[L^i, W^-1 C(X^0)]."""
        Z = self.solve(self.centre(x0))
        return [Xi - 1j * comm(L, Z) for Xi, L in zip(xs, self.ls)]

    def gram(self, tuples):
        """Complex covariance Gram M_ab = sum_i tr[rho R(X_a)^i* R(X_b)^i] of operator tuples."""
        R = [self.r_projection(x0, xs) for x0, xs in tuples]
        return np.array([[sum(np.trace(self.rho @ dag(A) @ B) for A, B in zip(Ra, Rb)) for Rb in R] for Ra in R])

    def tangent_gram(self, tangents):
        return self.gram([(self.e_map(dh, dls), dls) for dh, dls in tangents])

    def connection(self, dh, dls):
        """(K, r) of the connection form, and the horizontal part of the tangent."""
        E = self.e_map(dh, dls)
        r = float(np.trace(self.rho @ E).real)
        K = self.solve(E - r * np.eye(self.d))
        K = 0.5 * (K + dag(K))
        hor = (dh - 1j * comm(self.h, K) - r * np.eye(self.d), [dL - 1j * comm(L, K) for dL, L in zip(dls, self.ls)])
        return K, r, hor

    def top_state(self):
        vals, vecs = np.linalg.eigh(self.rho)
        return vecs[:, int(np.argmax(vals))]

    def finite_time_covariance(self, x0, xs, t):
        """Exact <F_t(X)* F_t(X)> for centred X^0, by block exponentials (Van Loan 1978).

        exp(t [[0, I, 0], [0, W, Phi_X], [0, 0, W]]) holds J_t = int_0^t T_s ds in
        block (0, 1) and the cross integral int_0^t J_{t-s} Phi_X T_s ds in block (0, 2).
        """
        d, n = self.d, self.d * self.d
        eye_d, eye_n = np.eye(d), np.eye(n)
        phi_x = np.kron(eye_d, dag(x0))
        for Xi, L in zip(xs, self.ls):
            phi_x = phi_x - 1j * (np.kron(L.T, dag(Xi)) - np.kron(eye_d, dag(Xi) @ L))
        blk = np.zeros((3 * n, 3 * n), dtype=complex)
        blk[:n, n : 2 * n] = eye_n
        blk[n : 2 * n, n : 2 * n] = self.erg.W
        blk[n : 2 * n, 2 * n :] = phi_x
        blk[2 * n :, 2 * n :] = self.erg.W
        E = scipy.linalg.expm(t * blk)
        J, C = E[:n, n : 2 * n], E[:n, 2 * n :]
        phi = self.top_state()

        def expect(v):
            return phi.conj() @ unvec(v, d) @ phi

        ito = expect(J @ vec(sum(dag(Xi) @ Xi for Xi in xs)))
        cross = expect(C @ vec(x0))
        return complex((ito + 2.0 * cross.real) / t)


def finite_overlap(base: Dynamics, dirs, u, u2, t):
    """<phi| exp(t W_{D(u/sqrt t), D(u'/sqrt t)})(id) |phi> along a linear chart."""
    s = 1.0 / np.sqrt(t)

    def at(coords):
        h = base.h + s * sum(c * dh for c, (dh, _) in zip(coords, dirs))
        ls = [L + s * sum(c * dls[i] for c, (_, dls) in zip(coords, dirs)) for i, L in enumerate(base.ls)]
        return h, ls

    h1, ls1 = at(u)
    h2, ls2 = at(u2)
    evolved = unvec(scipy.linalg.expm(t * generator(h1, ls1, h2, ls2)) @ vec(np.eye(base.d)), base.d)
    phi = base.top_state()
    return complex(phi.conj() @ evolved @ phi)


def trace_overlap(D1: Dynamics, D2: Dynamics, t):
    """sum Lambda_{1,n} Lambda_{2,n'} |<e_{1,n}| e^{t W_{D1,D2}}(|e_{1,m}><e_{2,m'}|) |e_{2,n'}>|^2."""
    lam1, U1 = np.linalg.eigh(D1.rho)
    lam2, U2 = np.linalg.eigh(D2.rho)
    B = np.kron(U2.conj(), U1)  # column m' d + m is vec(|e_{1,m}><e_{2,m'}|)
    T = dag(B) @ scipy.linalg.expm(t * generator(D1.h, D1.ls, D2.h, D2.ls)) @ B
    return float(np.kron(lam2, lam1) @ np.sum(np.abs(T) ** 2, axis=1))

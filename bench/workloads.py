"""Seeded job generator for the three benchmark workloads.

A job is the JSON config text of one ``qsysid`` CLI invocation.  Job ``i``
of a workload is drawn from its own random stream, seeded by
``(seed, workload, i)``, so jobs can be generated lazily, one at a time,
and regenerated identically.  Nothing here imports the library: the
library only ever receives the config texts.

Each job also carries the ground truth the benchmark checks the report
against (the drawn matrices, and for equivalence pairs whether the pair
was built gauge-equivalent).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from dense import ergodicity

# Acceptance rule of tests/conftest.py::random_ergodic.
MIN_GAP = 0.05
MIN_STATIONARY_EIGENVALUE = 1e-4
MAX_DRAWS = 50

# Relative Hamiltonian perturbation that makes half of the equiv-check
# partners inequivalent.  The decision margin of find_gauge_equivalence
# scales as eps^2: at eps = 1e-3 a scratch prototype reported 23 of 30
# inequivalent pairs as equivalent, against 0 of 30 at 1e-2 and 1e-1.
# That near-threshold regime is a robustness question, not this benchmark's.
INEQUIVALENT_EPS = 1e-1

# Scale of the random lan-check tangents, so that the chart points
# base + u/sqrt(t) dir stay well inside the ergodic region.
LAN_TANGENT_SCALE = 0.1


@dataclass
class Job:
    """One generated CLI job: its config text and the truth it is checked against."""

    kind: str
    text: str
    truth: dict = field(repr=False)
    rejected_draws: int = 0


@dataclass(frozen=True)
class JobKind:
    command: str
    d: int
    k: int
    m: int = 0
    options: tuple = ()
    identifiable: bool = False
    equivalent: bool | None = None

    @property
    def name(self) -> str:
        label = f"{self.command}-d{self.d}k{self.k}"
        if self.m:
            label += f"m{self.m}"
        if self.equivalent is not None:
            label += "-eq" if self.equivalent else "-neq"
        return label


_T_SHORT = ("t_grid", [1, 5, 25, 125])
_T_LAN = ("t_grid", [50, 100, 200, 400])
_METRIC = ("convention", "metric")

# Job kinds of each workload, run in this order, cyclically.
ROTATIONS = {
    "fisher-d8": (
        JobKind("qfi", 8, 2, 20, (_METRIC,)),
        JobKind("decompose", 8, 2, 20),
        JobKind("symplectic", 8, 2, 4, (_METRIC, ("complete_with_j", True)), identifiable=True),
    ),
    "semigroup-d4-d8": (
        JobKind("lan-check", 4, 1, 4, (_METRIC, _T_LAN)),
        JobKind("lan-check", 8, 2, 4, (_METRIC, _T_LAN)),
        JobKind("cov-converge", 4, 1, 2),
        JobKind("cov-converge", 8, 1, 1),
        JobKind("output-overlap", 4, 1, 0, (_T_SHORT,)),
        JobKind("output-overlap", 8, 2, 0, (_T_SHORT,)),
    ),
    "screen-mixed": tuple(
        kind
        for equivalent in (True, False)
        for kind in (
            JobKind("info", 2, 1),
            JobKind("info", 8, 2),
            JobKind("equiv-check", 2, 1, equivalent=equivalent),
            JobKind("equiv-check", 8, 2, equivalent=equivalent),
            JobKind("qfi", 2, 1, 4, (_METRIC,)),
            JobKind("decompose", 3, 1, 4),
        )
    ),
}
WORKLOADS = tuple(ROTATIONS)


def _hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (A + A.conj().T)


def _matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _unitary(rng, d):
    Q, R = np.linalg.qr(_matrix(rng, d))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def draw_ergodic(rng, d, k):
    """Draw (H, Ls) until ergodic with gap > MIN_GAP; return it and the rejection count."""
    for rejected in range(MAX_DRAWS):
        h = _hermitian(rng, d)
        ls = [_matrix(rng, d) for _ in range(k)]
        erg = ergodicity(h, ls)
        if erg.ergodic and erg.gap > MIN_GAP and erg.min_eig > MIN_STATIONARY_EIGENVALUE:
            return h, ls, rejected
    raise RuntimeError(f"no ergodic draw at d={d}, k={k} in {MAX_DRAWS} tries")


def _random_tangent(rng, d, k, scale=1.0):
    return scale * _hermitian(rng, d), [scale * _matrix(rng, d) for _ in range(k)]


def _identifiable_tangent(rng, ls):
    """A tangent with E(dD) = dH + Im sum dL^i* L^i = 0 by construction."""
    d = ls[0].shape[0]
    dls = [_matrix(rng, d) for _ in ls]
    acc = sum(dL.conj().T @ L for dL, L in zip(dls, ls))
    dh = -(acc - acc.conj().T) / 2j
    return 0.5 * (dh + dh.conj().T), dls


def _enc(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _model(h, ls):
    return {"matrices": {"h": _enc(h), "ls": [_enc(L) for L in ls]}}


def _tangent(dh, dls):
    return {"dh": _enc(dh), "dls": [_enc(dL) for dL in dls]}


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job ``index`` of ``workload`` under ``seed``; the same arguments give the same bytes."""
    rotation = ROTATIONS[workload]
    kind = rotation[index % len(rotation)]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    h, ls, rejected = draw_ergodic(rng, kind.d, kind.k)
    config = {"command": kind.command, "model": _model(h, ls)}
    truth = {"h": h, "ls": ls}

    if kind.command == "equiv-check":
        u = _unitary(rng, kind.d)
        shift = float(rng.uniform(-1.0, 1.0))
        h2 = h
        if not kind.equivalent:
            P = _hermitian(rng, kind.d)
            h2 = h + INEQUIVALENT_EPS * np.linalg.norm(h) / np.linalg.norm(P) * P
        h2 = u.conj().T @ h2 @ u + shift * np.eye(kind.d)
        h2 = 0.5 * (h2 + h2.conj().T)
        ls2 = [u.conj().T @ L @ u for L in ls]
        config["model2"] = _model(h2, ls2)
        truth.update(h2=h2, ls2=ls2, equivalent=kind.equivalent)
    elif kind.command == "output-overlap":
        h2, ls2, rejected2 = draw_ergodic(rng, kind.d, kind.k)
        rejected += rejected2
        config["model2"] = _model(h2, ls2)
        truth.update(h2=h2, ls2=ls2)
    elif kind.m:
        scale = LAN_TANGENT_SCALE if kind.command == "lan-check" else 1.0
        tangents = [
            _identifiable_tangent(rng, ls) if kind.identifiable else _random_tangent(rng, kind.d, kind.k, scale)
            for _ in range(kind.m)
        ]
        config["tangents"] = [_tangent(dh, dls) for dh, dls in tangents]
        truth["tangents"] = tangents

    options = dict(kind.options)
    if options:
        config["options"] = options
    truth["options"] = options
    return Job(kind.name, json.dumps(config), truth, rejected)

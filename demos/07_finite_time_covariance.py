#!/usr/bin/env python3
"""Finite-time fluctuation covariance against its long-time limit.

The Markov covariance is defined as a t -> infinity limit of fluctuation
second moments; its closed form only involves the stationary state and the
inverse of the generator on the zero-mean subspace.  As an independent
check, this script evaluates the covariance at finite t exactly, from one
block exponential of the semigroup integrals, and watches it approach the
closed form at the exact 1/t rate (t * error is constant), from several
initial system vectors.
"""
import numpy as np

from qsysid import (
    OperatorTuple,
    TangentVector,
    TwoLevelParams,
    centering,
    finite_time_covariance,
    horizontal_projection,
    markov_covariance,
    stationary_state,
    two_level,
    x_map,
)

p = TwoLevelParams(alpha=1.0, delta=0.0, omega=1.0, theta=0.0)
D = two_level(p)
rep = stationary_state(D)
gap = rep.spectral_gap

rng = np.random.default_rng(7)
dH = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
raw = TangentVector(0.5 * (dH + dH.conj().T), [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))])
proj = horizontal_projection(D, raw)
X = x_map(D, proj)
X = OperatorTuple(centering(D, X.x0), X.xs)

limit = markov_covariance(D, X, X)
print(f"limit covariance of a random identifiable tuple: {limit.real:.8f}")

print(f"\n  {'t*gap':>6}  {'finite-t value':>15}  {'error':>10}  {'t * error':>10}")
errs = []
ts = (25, 50, 100, 200)
for tg in ts:
    t = tg / gap
    val = finite_time_covariance(D, X, X, t)
    err = abs(val - limit)
    errs.append(err)
    print(f"  {tg:6d}  {val.real:15.8f}  {err:10.2e}  {err * tg:10.4f}")

slope = -np.polyfit(np.log(ts), np.log(errs), 1)[0]
print(f"\nfitted decay exponent: {slope:.3f} (1/t expected)")

print("\nthe limit does not depend on the initial system vector:")
t = 200 / gap
for k in range(3):
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    val = finite_time_covariance(D, X, X, t, phi=phi)
    print(f"  random phi #{k}: {val.real:.8f}")

#!/usr/bin/env python3
"""Splitting parameter changes into identifiable and gauge directions.

Conjugating (H, L^1, ...) by a unitary and shifting H by a multiple of the
identity leaves the stationary output unchanged, so those directions of
parameter space are invisible to any output measurement.  The connection
one-form omega assigns to a tangent vector dD the gauge generator (K, r)
producing its unobservable part, and P = Id - push o omega projects onto
the identifiable subspace {E(dD) = 0}.

The script decomposes the four physical coordinate directions of the
two-level model, prints their gauge components, and verifies

    dD = P(dD) + push(omega(dD)),   E(P(dD)) = 0,

together with the count of gauge directions (d^2 = 4 for a qubit).
"""
import numpy as np

from qsysid import (
    TwoLevelParams,
    connection_form,
    e_map,
    horizontal_projection,
    lie_pushforward,
    two_level,
    two_level_tangents,
    vertical_basis,
)

p = TwoLevelParams(alpha=1.0, delta=0.0, omega=1.0, theta=0.0)
D = two_level(p)
tans = two_level_tangents(p)

print("gauge components omega(dD) = (K, r) of the physical directions:\n")
for name, dD in zip(("Delta", "Omega", "alpha", "theta"), tans.physical):
    om = connection_form(D, dD)
    proj = horizontal_projection(D, dD)
    recomposed = proj + lie_pushforward(D, om)
    print(f"direction {name}:")
    print(f"  r = {om.r:+.6f},  ||K|| = {np.linalg.norm(om.k):.6f}")
    print(f"  ||E(P(dD))||            = {np.max(np.abs(e_map(D, proj))):.2e}")
    print(f"  ||P(dD) + push(omega) - dD|| = {(recomposed - dD).norm():.2e}")

print("\nthe alpha direction is already identifiable: omega(dD_alpha) = 0")

vert = vertical_basis(D)
residuals = [horizontal_projection(D, v).norm() for v in vert]
print(f"\ngauge directions at this point: {len(vert)} (= d^2)")
print(f"max |P(vertical)| over the basis: {max(residuals):.2e}")

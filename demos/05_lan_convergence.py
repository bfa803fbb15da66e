#!/usr/bin/env python3
"""Local asymptotic normality: output overlaps converge to Gaussian ones.

Around an ergodic base point we take a linear chart u -> D(u) along the
horizontal projections of the physical directions, rescale the local
parameter as u/sqrt(t), and compare the exact system-output overlaps

    <Psi_{u/sqrt(t)}(t) | Psi_{u'/sqrt(t)}(t)> = <phi| e^{t W_{D,D'}}(id) |phi>

with the coherent-state overlap of the limit Gaussian model.  The error
decays like 1/sqrt(t); the script prints the scan for the driven two-level
system.
"""
import numpy as np

from qsysid import (
    LocalChart,
    TwoLevelParams,
    finite_overlap,
    horizontal_projection,
    lan_convergence,
    stationary_state,
    two_level,
    two_level_tangents,
)

p = TwoLevelParams(alpha=1.0, delta=0.0, omega=1.0, theta=0.0)
D = two_level(p)
rep = stationary_state(D)
gap = rep.spectral_gap

dirs = [horizontal_projection(D, t) for t in two_level_tangents(p).physical]
chart = LocalChart(D, dirs)

u = np.array([1.0, 0.0, 0.0, 0.0])   # one unit along the (projected) Delta direction
u0 = np.zeros(4)
report = lan_convergence(chart, u, u0, [tg / gap for tg in (25, 50, 100, 200, 400)])

print(f"limit overlap <u|u'> = {report.limit_value:+.6f}")
print(f"\n  {'t*gap':>7}  {'finite overlap':>22}  {'|finite - limit|':>17}")
for t, z, e in zip(report.t_values, report.finite_overlaps, report.errors):
    print(f"  {t * gap:7.0f}  {z.real:+11.6f}{z.imag:+.6f}j  {e:17.6f}")

print(f"\nerror at the largest time: {report.max_abs_error:.5f}")
print(f"identical points stay exactly at 1: "
      f"{abs(finite_overlap(chart, u, u, 100.0 / gap) - 1):.2e}")

u2 = np.array([0.5, -0.7, 0.9, 0.3])
rep2 = lan_convergence(chart, u2, u, [tg / gap for tg in (50, 200, 400)])
print(f"\na generic pair of local parameters converges as well:")
for t, e in zip(rep2.t_values, rep2.errors):
    print(f"  t*gap = {t * gap:4.0f}   error {e:.5f}")

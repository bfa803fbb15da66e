"""Per-layer metrics from a cProfile run of CLI jobs.

The profiler is attached to the benchmark's own process; nothing in the
library is changed or patched.  Each profiled function belongs to the layer
of the module that defines it: one of the qsysid modules, or ``kernel`` for
the ``numpy.linalg`` / ``scipy.linalg`` functions.  From the pstats table:

- ``<layer>.self_s``: total self time of the layer's functions.  For
  ``kernel``, the inclusive time of kernel functions entered from qsysid
  (LAPACK work runs inside them).
- named ``*_s``: inclusive time of calls into the named functions from
  another module, summed over the pstats caller edges.
- counts: calls of the named functions (for ``kernel``, calls entered from
  qsysid).

Every value is divided by the number of jobs profiled.
"""
from __future__ import annotations

import cProfile
import os
import pstats
import time

QSYSID_LAYERS = ("cli", "lindblad", "opspace", "geometry", "covariance", "gaussian", "lan", "models")
KERNEL = "kernel"
_KERNEL_DIRS = (os.sep.join(("numpy", "linalg", "")), os.sep.join(("scipy", "linalg", "")))
_NUMPY_DIR = os.sep + os.sep.join(("numpy", ""))

# name: (callee layer, callee function names, caller layers or None for any caller,
#        caller function names or None for any)
COUNTS = {
    "lindblad.restricted_solves": ("lindblad", {"_restricted_inverse_mat"}, None, None),
    "lindblad.generator_builds": (
        "lindblad",
        {"heisenberg_generator", "offdiag_generator", "schrodinger_generator"},
        None,
        None,
    ),
    "lindblad.ergodicity_diagnoses": ("lindblad", {"stationary_state"}, None, None),
    "opspace.superop_constructs": ("opspace", {"__post_init__"}, None, None),
    "opspace.kron_builds": ("numpy", {"kron"}, QSYSID_LAYERS, None),
    "opspace.expm_calls": ("opspace", {"expm"}, None, None),
    "covariance.r_projections": ("covariance", {"r_projection"}, None, None),
    "gaussian.gram_entries": ("covariance", {"tangent_covariance"}, ("gaussian",), None),
    "geometry.connection_forms": ("geometry", {"connection_form"}, None, None),
    "lan.finite_overlaps": ("lan", {"finite_overlap"}, None, None),
    "lan.chart_ergodicity_checks": (
        "lindblad",
        {"stationary_state", "require_ergodic"},
        ("lan",),
        {"at_checked", "__init__"},
    ),
    "kernel.lstsq_calls": (KERNEL, {"lstsq"}, QSYSID_LAYERS, None),
    "kernel.expm_calls": (KERNEL, {"expm"}, QSYSID_LAYERS, None),
    "kernel.eig_calls": (KERNEL, {"eig", "eigvals", "eigh"}, QSYSID_LAYERS, None),
}

# name: (layer, function names); time of calls entering from another module
INCLUSIVE = {
    "lindblad.solve_s": ("lindblad", {"_restricted_inverse_mat", "restricted_inverse"}),
    "lindblad.diagnosis_s": ("lindblad", {"stationary_state", "require_ergodic"}),
    "covariance.qfi_s": ("covariance", {"qfi_rate"}),
    "covariance.finite_time_s": ("covariance", {"finite_time_covariance"}),
    "gaussian.symplectic_s": ("gaussian", {"symplectic_basis"}),
    "geometry.equivalence_s": ("geometry", {"find_gauge_equivalence"}),
    "lan.output_overlap_s": ("lan", {"output_overlap_trace"}),
    "opspace.expm_s": ("opspace", {"expm"}),
    "cli.parse_s": ("cli", {"parse_config"}),
    "cli.format_s": ("cli", {"format_report"}),
}

SELF = tuple(f"{layer}.self_s" for layer in QSYSID_LAYERS + (KERNEL,))
OVERHEAD = "trace.overhead_ratio"


UNITS = {
    **{name: "count/job" for name in COUNTS},
    **{name: "s/job" for name in (*INCLUSIVE, *SELF)},
    OVERHEAD: "ratio",
}


class LayerMap:
    """Maps pstats function keys (file, line, name) to layer names."""

    def __init__(self, package_dir: str):
        self._pkg = os.path.realpath(package_dir) + os.sep
        self._cache: dict = {}

    def __call__(self, key) -> str | None:
        filename = key[0]
        if filename not in self._cache:
            self._cache[filename] = self._classify(filename)
        return self._cache[filename]

    def _classify(self, filename: str) -> str | None:
        if filename.startswith(("~", "<")):
            return None
        path = os.path.realpath(filename)
        if path.startswith(self._pkg):
            return os.path.splitext(path[len(self._pkg) :])[0]
        if any(part in path for part in _KERNEL_DIRS):
            return KERNEL
        if _NUMPY_DIR in path:
            return "numpy"
        return None


def aggregate(stats: dict, layer_of: LayerMap, n_jobs: int) -> dict:
    """Per-job layer metrics from a pstats ``stats`` table."""
    out = {name: 0.0 for name in (*COUNTS, *INCLUSIVE, *SELF)}
    for callee, (_, nc, tt, _, callers) in stats.items():
        layer, fname = layer_of(callee), callee[2]
        if layer in QSYSID_LAYERS:
            out[f"{layer}.self_s"] += tt
        for name, (c_layer, c_names, from_layers, from_names) in COUNTS.items():
            if layer != c_layer or fname not in c_names:
                continue
            if from_layers is None and from_names is None:
                out[name] += nc
                continue
            for caller, (_, edge_nc, _, _) in callers.items():
                if (from_layers is None or layer_of(caller) in from_layers) and (
                    from_names is None or caller[2] in from_names
                ):
                    out[name] += edge_nc
        for name, (i_layer, i_names) in INCLUSIVE.items():
            if layer == i_layer and fname in i_names:
                out[name] += sum(e[3] for caller, e in callers.items() if layer_of(caller) != layer)
        if layer == KERNEL:
            out[f"{KERNEL}.self_s"] += sum(e[3] for caller, e in callers.items() if layer_of(caller) in QSYSID_LAYERS)
    return {name: value / n_jobs for name, value in out.items()}


def profile(execute, jobs):
    """Run ``execute(job)`` for each job under cProfile; return (pstats table, traced wall seconds)."""
    prof = cProfile.Profile()
    wall = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        prof.enable()
        try:
            execute(job)
        finally:
            prof.disable()
        wall += time.perf_counter() - t0
    return pstats.Stats(prof).stats, wall

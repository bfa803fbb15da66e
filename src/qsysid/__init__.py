"""Identifiability, information geometry and Gaussian limits of ergodic
quantum Markov dynamics (H, L^1, ..., L^k).

The top level exports the paper's objects only.  The operator-space kernel
(vectorize, apply, expm, ...) stays importable from qsysid.opspace.
"""

from .lindblad import (
    DynamicalParams,
    ErgodicityReport,
    NonErgodicError,
    heisenberg_generator,
    offdiag_generator,
    restricted_inverse,
    schrodinger_generator,
    semigroup_apply,
    stationary_state,
)
from .geometry import (
    EquivalenceWitness,
    GaugeElement,
    LieAlgebraElement,
    TangentVector,
    connection_form,
    e0_map,
    e_map,
    find_gauge_equivalence,
    gauge_apply,
    gauge_compose,
    gauge_pushforward,
    horizontal_projection,
    lie_pushforward,
    vertical_basis,
)
from .covariance import (
    OperatorTuple,
    QfiMatrix,
    centering,
    finite_time_covariance,
    l_map,
    markov_covariance,
    markov_covariance_expanded,
    qfi_rate,
    r_projection,
    tangent_covariance,
    tangent_gram,
    x_map,
)
from .gaussian import (
    GaussianLimitModel,
    coherent_overlap,
    complex_structure,
    phase_matrix,
    phase_matrix_from_chart,
    symplectic_basis,
    symplectic_form,
)
from .lan import (
    LanReport,
    LocalChart,
    finite_overlap,
    lan_convergence,
    limit_overlap,
    output_overlap_trace,
)
from .models import (
    OneParamModel,
    TwoLevelParams,
    TwoLevelReference,
    TwoLevelTangents,
    one_param_presets,
    two_level,
    two_level_reference,
    two_level_symplectic_basis,
    two_level_tangents,
)

__version__ = "0.1.0"

__all__ = [
    "DynamicalParams", "ErgodicityReport", "NonErgodicError",
    "heisenberg_generator", "offdiag_generator", "restricted_inverse",
    "schrodinger_generator", "semigroup_apply", "stationary_state",
    "EquivalenceWitness", "GaugeElement", "LieAlgebraElement", "TangentVector",
    "connection_form", "e0_map", "e_map", "find_gauge_equivalence", "gauge_apply",
    "gauge_compose", "gauge_pushforward", "horizontal_projection",
    "lie_pushforward", "vertical_basis",
    "OperatorTuple", "QfiMatrix", "centering", "finite_time_covariance", "l_map",
    "markov_covariance", "markov_covariance_expanded", "qfi_rate", "r_projection",
    "tangent_covariance", "tangent_gram", "x_map",
    "GaussianLimitModel", "coherent_overlap", "complex_structure", "phase_matrix",
    "phase_matrix_from_chart", "symplectic_basis", "symplectic_form",
    "LanReport", "LocalChart", "finite_overlap", "lan_convergence", "limit_overlap",
    "output_overlap_trace",
    "OneParamModel", "TwoLevelParams", "TwoLevelReference", "TwoLevelTangents",
    "one_param_presets", "two_level", "two_level_reference",
    "two_level_symplectic_basis", "two_level_tangents",
]

"""Heralded entangled-state preparation with a qudit-ancilla parity module."""

from .linalg import (
    Ket,
    Operator,
    fidelity,
    fourier_ket,
    hadamard,
    hamming_weights,
    pauli_x,
    pauli_z,
    plus_state,
    tensor,
)
from .module import (
    CouplingKind,
    ModuleConfig,
    OutcomeRecord,
    ProjectorSet,
    ResourceLimitError,
    build_projectors,
    outcome_distribution,
    projector_dim,
    run_module,
)
from .solver import (
    AmplitudeSolution,
    DegeneracyStructure,
    EigenphaseSpec,
    admissible_state,
    reconstruct_general,
    roots_of_unity_spec,
    solve_amplitudes,
)
from .states import (
    ClassificationResult,
    DickeDecomposition,
    ExpectationReport,
    Family,
    bitflip_all,
    classify,
    dicke,
    dicke_decompose,
    dicke_sum,
    expectations,
    g,
    g_general,
    ghz,
    predicted_branch,
    squared_weight_ratios,
    w,
)

__version__ = "0.1.0"

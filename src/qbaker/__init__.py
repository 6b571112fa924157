"""Qubit baker's map dynamics, coarse-grained histories, and their functionals."""

from .bakermap import (
    DENSE_LIMIT,
    analyze,
    apply_baker,
    baker_matrix,
    basis_state,
    bvs_reference_matrix,
    synthesize,
    transfer,
    transfer_kernel,
)
from .coarsegrain import (
    BlockInitialState,
    CoarseGraining,
    project,
    validate_run,
)
from .core import (
    MAX_QUBITS,
    SystemShape,
    binary_fraction,
    bits_to_index,
)
from .errors import InvariantError, ParameterError, ResourceLimitError
from .histories import (
    BranchEnsemble,
    HistoryDistribution,
    coarse_dfunc,
    entropy_bits,
    full_dfunc,
    history_distribution,
    ideal_coarse_value,
    ideal_full_value,
    offdiagonal_norm,
    propagate_branches,
)

__all__ = [
    "MAX_QUBITS",
    "DENSE_LIMIT",
    "SystemShape",
    "CoarseGraining",
    "BlockInitialState",
    "BranchEnsemble",
    "HistoryDistribution",
    "InvariantError",
    "ParameterError",
    "ResourceLimitError",
    "analyze",
    "apply_baker",
    "baker_matrix",
    "basis_state",
    "binary_fraction",
    "bits_to_index",
    "bvs_reference_matrix",
    "coarse_dfunc",
    "entropy_bits",
    "full_dfunc",
    "history_distribution",
    "ideal_coarse_value",
    "ideal_full_value",
    "offdiagonal_norm",
    "project",
    "propagate_branches",
    "synthesize",
    "transfer",
    "transfer_kernel",
    "validate_run",
]

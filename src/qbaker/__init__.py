"""Qubit baker's map dynamics, coarse-grained histories, and their functionals.

Each public name is imported from its submodule on first access, so
``import qbaker`` loads no numpy, and ``python -m qbaker`` can set the BLAS
thread variables in ``__main__`` before numpy reads them.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "bakermap": (
        "DENSE_LIMIT",
        "analyze",
        "apply_baker",
        "baker_matrix",
        "basis_state",
        "bvs_reference_matrix",
        "synthesize",
        "transfer",
        "transfer_kernel",
    ),
    "coarsegrain": ("BlockInitialState", "CoarseGraining", "project", "validate_run"),
    "core": ("MAX_QUBITS", "SystemShape", "binary_fraction", "bits_to_index"),
    "errors": ("InvariantError", "ParameterError", "ResourceLimitError"),
    "histories": (
        "BranchEnsemble",
        "HistoryDistribution",
        "coarse_dfunc",
        "entropy_bits",
        "full_dfunc",
        "history_distribution",
        "ideal_coarse_value",
        "ideal_full_value",
        "offdiagonal_norm",
        "propagate_branches",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

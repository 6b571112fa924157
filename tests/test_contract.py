"""The package's contract: its public names and one error type for a bad argument."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qbaker
from qbaker import (
    BlockInitialState,
    BranchEnsemble,
    CoarseGraining,
    ParameterError,
    ResourceLimitError,
    SystemShape,
    apply_baker,
    baker_matrix,
    basis_state,
    history_distribution,
    ideal_coarse_value,
    ideal_full_value,
    project,
    propagate_branches,
    synthesize,
    transfer_kernel,
)
from qbaker import bakermap, coarsegrain
from qbaker.bakermap import apply_columns, half_integer_fourier, kernel_columns
from qbaker.core import check_word

PUBLIC_NAMES = [
    "BlockInitialState",
    "BranchEnsemble",
    "CoarseGraining",
    "DENSE_LIMIT",
    "HistoryDistribution",
    "InvariantError",
    "MAX_QUBITS",
    "ParameterError",
    "ResourceLimitError",
    "SystemShape",
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


def test_public_names_are_pinned():
    assert sorted(qbaker.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qbaker, name) is not None
    namespace = {}
    exec("from qbaker import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)


def test_test_only_names_left_the_package():
    assert not hasattr(bakermap, "LocalizationWindow")
    assert not hasattr(bakermap, "localization_centers")
    assert not hasattr(coarsegrain, "enumerate_block")
    assert not hasattr(BlockInitialState, "labels")
    assert not hasattr(BlockInitialState, "weight")
    assert not hasattr(BranchEnsemble, "weight")
    # the dense reference map still builds on it, but it is not exported
    assert callable(bakermap.half_integer_fourier)
    assert "half_integer_fourier" not in qbaker.__all__


def _block():
    return BlockInitialState(CoarseGraining(SystemShape(8, 4), 2, 3), "010")


# (bad call, the message it raises); every argument check in the package
_BAD_CALLS = {
    "state shape": (
        lambda: synthesize(np.zeros(3), SystemShape(2, 0), 0),
        "state must have shape (4,), got (3,)",
    ),
    "fourier dim": (lambda: half_integer_fourier(0), "dim must be >= 1, got 0"),
    "fourier sign": (lambda: half_integer_fourier(2, 0), "sign must be +1 or -1, got 0"),
    "label width": (
        lambda: basis_state(SystemShape(3, 1), 1, "01"),
        "label must have 3 bits, got 2",
    ),
    "kernel columns": (
        lambda: kernel_columns(2, 3, 3),
        "need 0 <= start < stop <= 8, got start=3, stop=3",
    ),
    "applied columns": (
        lambda: apply_columns(np.ones((1, 2)), 0, [(1, None, None)]),
        "columns 1..2 outside 0..1",
    ),
    "kernel dot": (lambda: transfer_kernel(-1), "dot must be >= 0, got -1"),
    "dense buffer": (
        lambda: baker_matrix(SystemShape(2, 1), out=np.zeros((4, 4))),
        "out must be a (4, 4) complex128 array, got (4, 4) float64",
    ),
    "dense buffer layout": (
        lambda: baker_matrix(SystemShape(2, 1), out=np.zeros((4, 4), complex, order="F")),
        "out must be a writable C-contiguous array",
    ),
    "projected shape": (
        lambda: project(np.zeros(17), CoarseGraining(SystemShape(8, 4), 2, 3), "010"),
        "coefficients must have shape (256,), got (17,)",
    ),
    "free-width word": (
        lambda: check_word("012"),
        "bit string must contain only '0'/'1', got '012'",
    ),
    "propagation kind": (
        lambda: propagate_branches(_block(), 2, kind="both"),
        "kind must be 'full' or 'coarse', got 'both'",
    ),
    "distribution kind": (
        lambda: history_distribution(propagate_branches(_block(), 2), kind="both"),
        "kind must be 'full' or 'coarse', got 'both'",
    ),
    "core widths": (
        lambda: ideal_coarse_value("0", "01", 1),
        "cores must have equal length, got 1 and 2",
    ),
    "history lengths": (
        lambda: ideal_full_value("01", ["01"], []),
        "histories must have equal length, got 1 and 0",
    ),
    "window widths": (
        lambda: ideal_full_value("01", ["011"], ["011"]),
        "every window value must have the initial window's width 2",
    ),
    "terminal dot": (
        lambda: apply_baker(np.zeros(4), SystemShape(2, 2)),
        "need dot <= qubits - 1 to step the map, got dot=2, qubits=2",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_CALLS))
def test_every_argument_check_raises_parameter_error(case):
    call, message = _BAD_CALLS[case]
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "qubits,dot,need",
    [
        # 2**28 amplitudes take 4 GiB, twice the default budget
        (28, 14, "6442450944"),
        # 2 GiB of amplitudes, beside the 1 GiB half-size state of the last factor
        (27, 1, "3221225472"),
    ],
)
def test_basis_state_over_budget_raises_before_it_allocates(qubits, dot, need):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"basis state needs {need} bytes"):
            basis_state(SystemShape(qubits, dot), dot, "0" * qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code, **env):
    """Run code in a new interpreter with this package first on its path and
    the BLAS thread variables unset unless given; returns its stdout."""
    src = str(Path(bakermap.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**base, **env}
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_importing_the_package_loads_no_numpy():
    assert _fresh("import sys, qbaker; print('numpy' in sys.modules)") == ["False"]


def test_the_command_defaults_blas_to_one_thread():
    code = "import os, qbaker.__main__; print(*(os.environ[v] for v in %r))" % (_BLAS_VARS,)
    assert _fresh(code) == ["1", "1", "1"]


def test_the_command_sets_the_defaults_before_numpy_loads():
    # a meta-path probe reads the variable when numpy's import begins
    code = (
        "import os, sys\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "            sys.meta_path.remove(self)\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import qbaker.__main__\n"
    )
    assert _fresh(code) == ["1"]


def test_the_command_keeps_a_blas_thread_count_the_user_set():
    code = "import os, qbaker.__main__; print(*(os.environ[v] for v in %r))" % (_BLAS_VARS,)
    assert _fresh(code, OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


def test_star_import_binds_exactly_all_in_a_fresh_process():
    code = (
        "import qbaker\nns = {}\nexec('from qbaker import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(qbaker.__all__))"
    )
    assert _fresh(code) == ["True"]


def test_an_unknown_attribute_raises_attribute_error():
    code = (
        "import qbaker\ntry:\n    qbaker.no_such_name\nexcept AttributeError as e:\n"
        "    print(type(e).__name__, 'no_such_name' in str(e))"
    )
    assert _fresh(code) == ["AttributeError", "True"]

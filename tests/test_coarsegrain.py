"""Window projectors, block enumeration, and run-parameter validation."""

import numpy as np
import pytest

from qbaker import (
    BlockInitialState,
    CoarseGraining,
    ParameterError,
    SystemShape,
    analyze,
    basis_state,
    project,
    synthesize,
    validate_run,
)

from _dense_reference import (
    block_labels,
    block_weight,
    dense_block_matrix,
    enumerate_block,
    index_to_bits,
)


def test_graining_fields():
    g = CoarseGraining(SystemShape(8, 4), 2, 3)
    assert g.kept == 3


@pytest.mark.parametrize(
    "qubits,dot,left,right",
    [(8, 4, -1, 3), (8, 4, 2, -1), (8, 4, 5, 4), (8, 4, 4, 4)],
)
def test_graining_rejects_bad_splits(qubits, dot, left, right):
    with pytest.raises(ParameterError):
        CoarseGraining(SystemShape(qubits, dot), left, right)


def test_project_mask_example():
    # qubits=3, dot=1, left=0, right=1, window "10": survivors are the
    # labels whose first two bits read "10", i.e. indices 4 and 5
    g = CoarseGraining(SystemShape(3, 1), 0, 1)
    rng = np.random.default_rng(0)
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    out = project(c, g, "10")
    assert np.array_equal(out[4:6], c[4:6])
    assert np.array_equal(np.delete(out, [4, 5]), np.zeros(6))


def test_project_completeness_orthogonality_idempotence():
    g = CoarseGraining(SystemShape(8, 4), 2, 3)
    rng = np.random.default_rng(1)
    c = rng.normal(size=256) + 1j * rng.normal(size=256)
    total = np.zeros_like(c)
    for w in range(8):
        window = index_to_bits(w, 3)
        piece = project(c, g, window)
        # idempotence and mutual orthogonality are index masks: exact
        assert np.array_equal(project(piece, g, window), piece)
        other = index_to_bits((w + 1) % 8, 3)
        assert np.array_equal(project(piece, g, other), np.zeros_like(c))
        total += piece
    assert np.array_equal(total, c)


def test_project_validation():
    g = CoarseGraining(SystemShape(8, 4), 2, 3)
    with pytest.raises(ParameterError):
        project(np.zeros(256, dtype=complex), g, "0101")
    with pytest.raises(ValueError):
        project(np.zeros(17, dtype=complex), g, "010")


def test_project_dense_matrix_matches_outer_products():
    # the projector in computational coordinates equals the sum of outer
    # products of the block's basis states
    shape = SystemShape(6, 3)
    g = CoarseGraining(shape, 1, 2)
    window = "101"
    dense = np.zeros((64, 64), dtype=np.complex128)
    for j in range(64):
        e = np.zeros(64, dtype=np.complex128)
        e[j] = 1.0
        dense[:, j] = synthesize(project(analyze(e, shape, 3), g, window), shape, 3)
    direct = np.zeros_like(dense)
    for label in enumerate_block(g, window):
        vec = basis_state(shape, 3, label)
        direct += np.outer(vec, vec.conj())
    np.testing.assert_allclose(dense, direct, atol=1e-12)


def test_enumerate_block_example():
    g = CoarseGraining(SystemShape(3, 2), 1, 1)
    assert enumerate_block(g, "0") == ["000", "001", "100", "101"]


def test_enumerate_block_cardinality_and_order():
    g = CoarseGraining(SystemShape(7, 4), 3, 2)
    labels = enumerate_block(g, "01")
    assert len(labels) == 32
    assert labels == sorted(labels)
    assert all(lab[3:5] == "01" for lab in labels)


def test_enumerate_block_no_padding():
    g = CoarseGraining(SystemShape(3, 1), 0, 0)
    assert enumerate_block(g, "011") == ["011"]


def test_validate_run_messages():
    ok = CoarseGraining(SystemShape(12, 6), 5, 5)
    validate_run(ok, 2)
    with pytest.raises(ParameterError, match="left < dot"):
        validate_run(CoarseGraining(SystemShape(12, 6), 6, 5), 2)
    with pytest.raises(ParameterError, match="steps < right"):
        validate_run(ok, 5)
    with pytest.raises(ParameterError, match="steps < right"):
        validate_run(ok, 0)
    with pytest.raises(ParameterError, match="right < qubits - dot"):
        validate_run(CoarseGraining(SystemShape(12, 6), 5, 6), 2)


def test_block_initial_state():
    g = CoarseGraining(SystemShape(6, 3), 1, 2)
    block = BlockInitialState(g, "110")
    assert block_weight(block) == 0.125
    assert block_labels(block) == enumerate_block(g, "110")
    with pytest.raises(ParameterError):
        BlockInitialState(g, "11")


def test_block_dense_matrix_trace_and_rank():
    g = CoarseGraining(SystemShape(6, 3), 1, 2)
    block = BlockInitialState(g, "110")
    rho = dense_block_matrix(block)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-13)
    eigs = np.linalg.eigvalsh(rho)
    assert (eigs > 0.5 * block_weight(block)).sum() == 8
    np.testing.assert_allclose(
        eigs[eigs > 0.5 * block_weight(block)], block_weight(block), atol=1e-12
    )

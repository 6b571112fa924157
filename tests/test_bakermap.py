"""Localized bases, fast transforms, the dot-shift map, and its dense oracles."""

from typing import NamedTuple

import numpy as np
import pytest

from qbaker import (
    ParameterError,
    ResourceLimitError,
    SystemShape,
    analyze,
    apply_baker,
    baker_matrix,
    basis_state,
    binary_fraction,
    bits_to_index,
    bvs_reference_matrix,
    synthesize,
    transfer,
    transfer_kernel,
)
from qbaker.bakermap import apply_columns, basis_matrix, half_integer_fourier, kernel_columns

from _dense_reference import index_to_bits, kron_basis_state


class LocalizationWindow(NamedTuple):
    position: float
    momentum: float
    position_width: float
    momentum_width: float


def localization_centers(shape, dot, bits):
    """Phase-space window of a basis state: centers and widths in both directions.

    Position support is strict (amplitudes vanish outside the window);
    momentum localization is crude (the window only bounds the bulk).  The
    degenerate ends dot=0 and dot=qubits give a full-torus window on the
    crude side.  The basis-support oracle of the tests below.
    """
    SystemShape(shape.qubits, dot)  # checks 0 <= dot <= qubits
    assert len(bits) == shape.qubits
    return LocalizationWindow(
        position=binary_fraction(bits[dot:], append_one=True),
        momentum=binary_fraction(bits[:dot][::-1], append_one=True),
        position_width=2.0 ** -(shape.qubits - dot),
        momentum_width=2.0**-dot,
    )


def all_labels(qubits):
    return [index_to_bits(j, qubits) for j in range(1 << qubits)]


def test_basis_state_hand_values_dot0():
    state = basis_state(SystemShape(2, 0), 0, "00")
    np.testing.assert_allclose(state, [1j, 0, 0, 0], atol=1e-15)


def test_basis_state_hand_values_dot1():
    # label "01": phase exp(1j*pi/4), position bit 1, momentum factor (1, i)/sqrt(2)
    state = basis_state(SystemShape(2, 1), 1, "01")
    w = np.exp(1j * np.pi / 4) / np.sqrt(2)
    np.testing.assert_allclose(state, [0, 0, w, 1j * w], atol=1e-15)


def test_basis_gram_small_example():
    shape = SystemShape(3, 2)
    states = np.array([basis_state(shape, 2, s) for s in all_labels(3)])
    gram = states.conj() @ states.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("qubits", range(1, 9))
def test_basis_gram_identity_all_dots(qubits):
    shape = SystemShape(qubits, 0)
    for dot in range(qubits + 1):
        states = np.array([basis_state(shape, dot, s) for s in all_labels(qubits)])
        gram = states.conj() @ states.T
        np.testing.assert_allclose(gram, np.eye(1 << qubits), atol=1e-12)


def test_basis_state_validation():
    shape = SystemShape(3, 1)
    with pytest.raises(ValueError):
        basis_state(shape, 1, "01")
    with pytest.raises(ParameterError):
        basis_state(shape, 4, "010")


def test_localization_hand_values():
    shape = SystemShape(3, 1)
    win = localization_centers(shape, 1, "011")
    assert win.position == 0.875
    assert win.position_width == 0.25
    assert win.momentum == 0.25
    assert win.momentum_width == 0.5
    assert localization_centers(SystemShape(2, 1), 1, "00").momentum == 0.25


def test_strict_position_support():
    shape = SystemShape(6, 3)
    rng = np.random.default_rng(3)
    for j in rng.integers(0, 64, size=8):
        bits = index_to_bits(int(j), 6)
        state = basis_state(shape, 3, bits)
        win = localization_centers(shape, 3, bits)
        q = (np.arange(64) + 0.5) / 64.0
        outside = np.abs(q - win.position) > win.position_width / 2
        assert np.abs(state[outside]).max() < 1e-15


def test_phase_space_action_formulas():
    # advancing the dot stretches position by two (dropping the bit that
    # leaves the unit interval) and squeezes that bit into the momentum
    # fraction; both identities are exact on dyadic rationals
    shape = SystemShape(6, 0)
    for bits in ("010110", "111000", "000001"):
        for dot in range(1, 5):
            before = localization_centers(shape, dot, bits)
            after = localization_centers(shape, dot + 1, bits)
            digit = int(bits[dot])
            assert after.momentum == (digit + before.momentum) / 2
            assert after.position == 2 * before.position - digit
            assert after.position_width == 2 * before.position_width
            assert after.momentum_width == before.momentum_width / 2


@pytest.mark.parametrize("qubits", [1, 4, 8, 12])
def test_analyze_synthesize_inverse(qubits):
    shape = SystemShape(qubits, 0)
    rng = np.random.default_rng(qubits)
    for dot in sorted({0, 1, qubits // 2, qubits}):
        c = rng.normal(size=shape.dim) + 1j * rng.normal(size=shape.dim)
        psi = synthesize(c, shape, dot)
        np.testing.assert_allclose(analyze(psi, shape, dot), c, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(psi), np.linalg.norm(c), rtol=1e-12
        )
        psi2 = rng.normal(size=shape.dim) + 1j * rng.normal(size=shape.dim)
        np.testing.assert_allclose(
            synthesize(analyze(psi2, shape, dot), shape, dot), psi2, atol=1e-12
        )


def test_synthesize_linearity():
    shape = SystemShape(5, 0)
    rng = np.random.default_rng(5)
    c1 = rng.normal(size=32) + 1j * rng.normal(size=32)
    c2 = rng.normal(size=32) + 1j * rng.normal(size=32)
    a, b = 0.3 - 0.7j, -1.2 + 0.1j
    np.testing.assert_allclose(
        synthesize(a * c1 + b * c2, shape, 3),
        a * synthesize(c1, shape, 3) + b * synthesize(c2, shape, 3),
        atol=1e-12,
    )


@pytest.mark.parametrize("qubits", [2, 3, 5])
def test_synthesize_matches_basis_state(qubits):
    shape = SystemShape(qubits, 0)
    for dot in range(qubits + 1):
        for j in range(1 << qubits):
            bits = index_to_bits(j, qubits)
            e = np.zeros(shape.dim, dtype=np.complex128)
            e[j] = 1.0
            np.testing.assert_allclose(
                synthesize(e, shape, dot), basis_state(shape, dot, bits), atol=1e-12
            )
            np.testing.assert_allclose(
                analyze(basis_state(shape, dot, bits), shape, dot), e, atol=1e-12
            )


def test_apply_baker_hand_value():
    shape = SystemShape(2, 0)
    got = apply_baker(basis_state(shape, 0, "00"), shape)
    w = np.exp(1j * np.pi / 4) / np.sqrt(2)
    np.testing.assert_allclose(got, [w, 1j * w, 0, 0], atol=1e-14)
    np.testing.assert_allclose(got, basis_state(shape, 1, "00"), atol=1e-14)


@pytest.mark.parametrize("qubits", range(2, 9))
def test_apply_baker_shifts_basis_labels(qubits):
    for dot in range(qubits):
        shape = SystemShape(qubits, dot)
        for j in range(1 << qubits):
            bits = index_to_bits(j, qubits)
            got = apply_baker(basis_state(shape, dot, bits), shape)
            want = basis_state(shape, dot + 1, bits)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_apply_baker_unitary_n10():
    rng = np.random.default_rng(10)
    for dot in range(10):
        shape = SystemShape(10, dot)
        for _ in range(100):
            psi = rng.normal(size=1024) + 1j * rng.normal(size=1024)
            out = apply_baker(psi, shape)
            assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) < 1e-12 * np.linalg.norm(psi)


def test_apply_baker_rejects_terminal_dot():
    with pytest.raises(ParameterError):
        apply_baker(np.zeros(4, dtype=np.complex128), SystemShape(2, 2))


def test_baker_matrix_unitary():
    for dot in range(6):
        mat = baker_matrix(SystemShape(6, dot))
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(64), atol=1e-12)


def test_baker_matrix_equals_basis_images():
    shape = SystemShape(4, 2)
    direct = np.zeros((16, 16), dtype=np.complex128)
    for j in range(16):
        bits = index_to_bits(j, 4)
        ket = basis_state(shape, 3, bits)
        bra = basis_state(shape, 2, bits).conj()
        direct += np.outer(ket, bra)
    np.testing.assert_allclose(baker_matrix(shape), direct, atol=1e-12)


def test_baker_matrix_matches_fast_path():
    rng = np.random.default_rng(8)
    for qubits, dot in [(4, 1), (6, 3), (8, 4)]:
        shape = SystemShape(qubits, dot)
        mat = baker_matrix(shape)
        psi = rng.normal(size=shape.dim) + 1j * rng.normal(size=shape.dim)
        np.testing.assert_allclose(mat @ psi, apply_baker(psi, shape), atol=1e-11)


@pytest.mark.parametrize("qubits", [3, 4, 5, 6])
def test_basis_state_equals_the_kron_product_bit_for_bit(qubits):
    for dot in range(qubits + 1):
        shape = SystemShape(qubits, dot)
        for j in range(shape.dim):
            bits = index_to_bits(j, qubits)
            assert np.array_equal(basis_state(shape, dot, bits), kron_basis_state(shape, dot, bits))


# dims 16 and 32 sit below and at baker_matrix's 32-row block, 256 and
# 1024 span several blocks
@pytest.mark.parametrize("qubits", [4, 5, 8, 10])
def test_baker_matrix_equals_the_stacked_images_bit_for_bit(qubits):
    for dot in sorted({0, qubits // 2, qubits - 1}):
        shape = SystemShape(qubits, dot)
        stacked = np.column_stack([apply_baker(e, shape) for e in np.eye(shape.dim)])
        assert np.array_equal(baker_matrix(shape), stacked)


@pytest.mark.parametrize("qubits", range(1, 11))
def test_basis_matrix_stacks_the_product_form_bit_for_bit(qubits):
    # kron_basis_state is basis_state's product form as it was built one
    # label at a time, before the labels were batched
    labels = all_labels(qubits)
    for dot in range(qubits + 1):
        shape = SystemShape(qubits, dot)
        stacked = np.column_stack([kron_basis_state(shape, dot, bits) for bits in labels])
        assert np.array_equal(basis_matrix(shape), stacked)


def test_dense_matrices_fill_a_given_buffer_bit_for_bit():
    # the buffer holds the other matrix first, as in check
    buf = np.empty((1024, 1024), dtype=np.complex128)
    for dot in range(10):
        shape = SystemShape(10, dot)
        assert basis_matrix(shape, out=buf) is buf
        assert np.array_equal(buf, basis_matrix(shape))
        assert baker_matrix(shape, out=buf) is buf
        assert np.array_equal(buf, baker_matrix(shape))
    terminal = SystemShape(10, 10)
    assert np.array_equal(basis_matrix(terminal, out=buf), basis_matrix(terminal))


@pytest.mark.parametrize("build", [baker_matrix, basis_matrix])
@pytest.mark.parametrize(
    "out",
    [
        np.zeros((16, 8), dtype=np.complex128),
        np.zeros((32, 32), dtype=np.complex128),
        np.zeros((16, 16), dtype=np.complex64),
        np.zeros((16, 16)),
        np.zeros((16, 16), dtype=np.complex128, order="F"),
        np.zeros((16, 32), dtype=np.complex128)[:, ::2],
        np.zeros((16, 16), dtype=np.complex128).tolist(),
    ],
    ids=["shape", "size", "complex64", "float", "fortran", "strided", "list"],
)
def test_dense_matrices_refuse_an_unfit_buffer(build, out):
    with pytest.raises(ParameterError, match="out must be"):
        build(SystemShape(4, 2), out=out)


def test_baker_matrix_rejects_terminal_dot():
    with pytest.raises(ParameterError, match="need dot <= qubits - 1"):
        baker_matrix(SystemShape(4, 4))


def test_dense_limits():
    with pytest.raises(ResourceLimitError):
        baker_matrix(SystemShape(11, 10))
    with pytest.raises(ResourceLimitError):
        basis_matrix(SystemShape(11, 10))
    with pytest.raises(ResourceLimitError):
        bvs_reference_matrix(11)


def test_half_integer_fourier_unitary_symmetric():
    for dim in (1, 2, 4, 8, 16):
        g = half_integer_fourier(dim)
        np.testing.assert_allclose(g.conj().T @ g, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(g, g.T, atol=1e-15)
    np.testing.assert_allclose(half_integer_fourier(1), [[1j]], atol=1e-15)


def test_bvs_reference_unitary():
    for qubits in (2, 3, 6):
        mat = bvs_reference_matrix(qubits)
        np.testing.assert_allclose(
            mat.conj().T @ mat, np.eye(1 << qubits), atol=1e-12
        )


@pytest.mark.parametrize("qubits", [2, 3, 6])
def test_bvs_matches_terminal_dot_map(qubits):
    ours = baker_matrix(SystemShape(qubits, qubits - 1))
    ref = bvs_reference_matrix(qubits)
    assert np.abs(ours - ref).max() < 1e-10


def test_bvs_differs_from_interior_dots():
    ref = bvs_reference_matrix(4)
    for dot in range(3):
        ours = baker_matrix(SystemShape(4, dot))
        assert np.abs(ours - ref).max() > 1e-3


def test_transfer_equals_map_in_dot_coordinates():
    rng = np.random.default_rng(14)
    for qubits, dot in [(5, 2), (6, 3), (7, 1)]:
        shape = SystemShape(qubits, dot)
        c = rng.normal(size=shape.dim) + 1j * rng.normal(size=shape.dim)
        via_map = analyze(apply_baker(synthesize(c, shape, dot), shape), shape, dot)
        np.testing.assert_allclose(transfer(c, shape), via_map, atol=1e-12)


@pytest.mark.parametrize("qubits,dot", [(4, 2), (5, 2), (6, 3), (6, 1)])
def test_transfer_factorization(qubits, dot):
    # one step = dense kernel on labels 1..dot+1 (reversed-significance
    # composite) x left shift of the trailing labels, fresh bit from the
    # kernel row block
    shape = SystemShape(qubits, dot)
    kernel = transfer_kernel(dot)
    half = 1 << dot
    dim = shape.dim
    dense = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[col] = 1.0
        dense[:, col] = transfer(e, shape)
    predicted = np.zeros_like(dense)
    for col in range(dim):
        xb = index_to_bits(col, qubits)
        a = bits_to_index(xb[: dot + 1][::-1])
        tail_in = xb[dot + 1 :]
        for zeta_last in (0, 1):
            for ap in range(half):
                row_bits = index_to_bits(ap, dot)[::-1] + tail_in + str(zeta_last)
                predicted[bits_to_index(row_bits), col] = kernel[zeta_last * half + ap, a]
    np.testing.assert_allclose(dense, predicted, atol=1e-12)


def test_transfer_kernel_unitary_and_frozen():
    k = transfer_kernel(3)
    np.testing.assert_allclose(k.conj().T @ k, np.eye(16), atol=1e-12)
    assert not k.flags.writeable


def _dft_product_kernel(dot):
    half = 1 << dot
    wide = half_integer_fourier(2 * half)
    undo = half_integer_fourier(half).conj().T
    return np.vstack([undo @ wide[:half], undo @ wide[half:]])


@pytest.mark.parametrize("dot", range(10))
def test_kernel_columns_match_dft_product(dot):
    want = _dft_product_kernel(dot)
    two_m = 2 << dot
    for start, stop in [(0, two_m), (0, 1), (two_m // 2, two_m), (two_m // 3, two_m // 3 + 1)]:
        got = kernel_columns(dot, start, stop)
        assert got.shape == (two_m, stop - start) and got.flags.writeable
        np.testing.assert_allclose(got, want[:, start:stop], rtol=0, atol=1e-12)


def test_kernel_columns_rejects_bad_blocks():
    for start, stop in [(-1, 2), (3, 3), (0, 9)]:
        with pytest.raises(ValueError, match="start"):
            kernel_columns(2, start, stop)


@pytest.mark.parametrize("dot", range(11))
def test_apply_columns_matches_dense_contraction(dot):
    rng = np.random.default_rng(30 + dot)
    m = 1 << dot
    kernel = transfer_kernel(dot)
    # one column, every column, and a block starting at the fresh-bit boundary
    for start, width in [(0, 1), (2 * m - 1, 1), (0, 2 * m), (m, max(1, m // 2))]:
        x = rng.normal(size=(3, 2, width)) + 1j * rng.normal(size=(3, 2, width))
        want = np.tensordot(x, kernel[:, start : start + width], axes=([2], [1]))
        got = apply_columns(x, dot, [(start, None, None)])
        assert got.shape == (3, 2, 2 * m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        out = np.full((3, 2, 2 * m), np.nan + 0j)
        assert apply_columns(x, dot, [(start, None, None)], out=out) is out
        np.testing.assert_array_equal(out, got)
    with pytest.raises(ValueError, match="outside"):
        apply_columns(np.ones((1, 2)), dot, [(2 * m - 1, None, None)])


@pytest.mark.parametrize("dot", range(1, 11))
def test_apply_columns_runs_equal_one_call_per_run_bit_for_bit(dot):
    # rows lo..hi-1 of each (start, lo, hi) run take their own columns, as
    # the engine's rows of one last window value do, in one transform
    rng = np.random.default_rng(50 + dot)
    m = 1 << dot
    width = max(1, m // 2)
    x = rng.normal(size=(6, 3, width)) + 1j * rng.normal(size=(6, 3, width))
    runs = [(0, 0, 1), (width, 1, 4), (2 * m - width, 4, 6)]
    got = apply_columns(x, dot, runs)
    for start, lo, hi in runs:
        alone = apply_columns(x[lo:hi], dot, [(start, None, None)])
        assert got[lo:hi].tobytes() == alone.tobytes()
    with pytest.raises(ValueError, match="outside"):
        apply_columns(x, dot, [(0, 0, 3), (2 * m - width + 1, 3, 6)])


def _top_bit_mirror(y, dot):
    """y along its last axis (fresh bit f, then r < M) moved to the rows of
    columns M later: row f*M + r takes row f*M + r - M/2 for r >= M/2, and
    minus row f*M + r + M/2 for r < M/2."""
    m = 1 << dot
    halves = y.reshape(y.shape[:-1] + (2, m))
    return np.concatenate([-halves[..., m // 2 :], halves[..., : m // 2]], axis=-1).reshape(y.shape)


@pytest.mark.parametrize("dot", range(1, 11))
def test_columns_m_apart_differ_by_the_top_momentum_bit(dot):
    # g(d + 2M) = -g(d) and the fresh phase depends on the column's parity,
    # so column c + M is column c with r's top bit flipped and a sign: what
    # lets propagation take a group's top-bit partner from the group itself
    m = 1 << dot
    kernel = transfer_kernel(dot)
    want = _top_bit_mirror(kernel[:, :m].T, dot).T
    np.testing.assert_allclose(kernel[:, m:], want, rtol=0, atol=1e-13)
    rng = np.random.default_rng(40 + dot)
    for start, width in [(0, 1), (m - 1, 1), (0, m), (m // 2, max(1, m // 4))]:
        x = rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
        near = apply_columns(x, dot, [(start, None, None)])
        far = apply_columns(x, dot, [(start + m, None, None)])
        np.testing.assert_allclose(far, _top_bit_mirror(near, dot), rtol=0, atol=1e-13)

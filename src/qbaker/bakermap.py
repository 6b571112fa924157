"""Localized basis states, fast basis transforms, and the dot-shift map.

A register of `qubits` two-level systems is read in a family of bases indexed
by a dot position m.  At m = 0 the basis is the computational (position) basis
up to a global phase; each unit increase of m trades one position bit for a
phase-twisted momentum factor, so the m-basis states are strictly localized in
a position window of width 2**-(qubits-m) and crudely localized in a momentum
window of width 2**-m.  The map `apply_baker` sends the dot-m basis to the
dot-(m+1) basis label for label, which acts on the label string as a left
shift of the symbolic itinerary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import SystemShape, binary_fraction, bits_to_index
from .errors import ParameterError, ResourceLimitError

DENSE_LIMIT = 10  # dense reference matrices are test oracles, not production paths


def _check_state(state: np.ndarray, shape: SystemShape) -> np.ndarray:
    arr = np.asarray(state, dtype=np.complex128)
    if arr.shape != (shape.dim,):
        raise ValueError(f"state must have shape ({shape.dim},), got {arr.shape}")
    return arr


def _check_dot(shape: SystemShape, dot: int) -> None:
    if not 0 <= dot <= shape.qubits:
        raise ParameterError(f"need 0 <= dot <= qubits, got dot={dot}, qubits={shape.qubits}")


def half_integer_fourier(dim: int, sign: int = +1) -> np.ndarray:
    """Dense antiperiodic Fourier matrix with half-integer index offsets.

    Entry (j, k) is dim**-0.5 * exp(sign * 2j*pi * (j+1/2)(k+1/2) / dim).
    Symmetric and unitary.  Test/reference use only; the fast transforms below
    apply the same kernel through an FFT.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    idx = np.arange(dim) + 0.5
    return np.exp(sign * 2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def _half_shift(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Twiddles that turn a plain DFT into the half-integer one.

    exp(2j*pi*(j+1/2)(k+1/2)/size) = tail[j] * exp(2j*pi*j*k/size) * head[k].
    """
    a = np.arange(size)
    return np.exp(1j * np.pi * a / size), np.exp(1j * np.pi * (a + 0.5) / size)


def _momentum_transform(block: np.ndarray, inverse: bool) -> np.ndarray:
    """Apply the half-integer Fourier kernel along the last axis via FFT.

    Forward direction maps momentum labels to physical qubit amplitudes;
    inverse applies the conjugate kernel.  O(M log M) per row.
    """
    size = block.shape[-1]
    head, tail = _half_shift(size)
    if inverse:
        return np.conj(tail) * np.fft.fft(block * np.conj(head)) / np.sqrt(size)
    return tail * np.fft.ifft(block * head) * np.sqrt(size)


@lru_cache(maxsize=8)
def _step_twiddles(dot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three fused twiddle vectors of apply_columns, read-only.

    transfer_kernel(dot) is F_M^dagger applied to each half of F_2M (both
    half-integer DFTs, M = 2**dot).  `pre` (length 2M) is F_2M's input
    twiddle, `mid` (length 2M, read as (2, M)) joins F_2M's output twiddle to
    F_M^dagger's input one, and `post` (length M) is F_M^dagger's output
    twiddle with both normalizations folded in.
    """
    m = 1 << dot
    pre, tail2 = _half_shift(2 * m)
    head1, tail1 = _half_shift(m)
    mid = (tail2.reshape(2, m) * np.conj(head1)).reshape(2 * m)
    post = np.conj(tail1) / (m * np.sqrt(2.0))
    for vec in (pre, mid, post):
        vec.flags.writeable = False
    return pre, mid, post


class LocalizationWindow(NamedTuple):
    position: float
    momentum: float
    position_width: float
    momentum_width: float


def basis_state(shape: SystemShape, dot: int, bits: str) -> np.ndarray:
    """Localized basis state for the given dot position and label string.

    Built directly from the product form: a global phase, the trailing
    position qubits as computational factors, then one momentum factor
    (|0> + exp(2j*pi*f_t)|1>)/sqrt(2) per leading label bit, where f_t is the
    binary fraction over label bits t..1 with a trailing 1 appended.  The
    trailing 1 keeps every phase a half-integer multiple of the mesh, which
    is what makes the family orthonormal.
    """
    n_qubits = shape.qubits
    _check_dot(shape, dot)
    if len(bits) != n_qubits:
        raise ValueError(f"label must have {n_qubits} bits, got {len(bits)}")
    phase = np.exp(1j * np.pi * binary_fraction(bits[:dot][::-1], append_one=True))
    pos_dim = 1 << (n_qubits - dot)
    state = np.zeros(pos_dim, dtype=np.complex128)
    state[bits_to_index(bits[dot:])] = phase
    for t in range(1, dot + 1):
        factor = np.array(
            [1.0, np.exp(2j * np.pi * binary_fraction(bits[:t][::-1], append_one=True))],
            dtype=np.complex128,
        ) / np.sqrt(2.0)
        state = np.kron(state, factor)
    return state


def localization_centers(shape: SystemShape, dot: int, bits: str) -> LocalizationWindow:
    """Phase-space window of a basis state: centers and widths in both directions.

    Position support is strict (amplitudes vanish outside the window);
    momentum localization is crude (the window only bounds the bulk).  The
    degenerate ends dot=0 and dot=qubits give a full-torus window on the
    crude side.
    """
    _check_dot(shape, dot)
    if len(bits) != shape.qubits:
        raise ValueError(f"label must have {shape.qubits} bits, got {len(bits)}")
    return LocalizationWindow(
        position=binary_fraction(bits[dot:], append_one=True),
        momentum=binary_fraction(bits[:dot][::-1], append_one=True),
        position_width=2.0 ** -(shape.qubits - dot),
        momentum_width=2.0**-dot,
    )


def synthesize(coeffs: np.ndarray, shape: SystemShape, dot: int) -> np.ndarray:
    """Map dot-basis coefficients to computational amplitudes.

    Fast path: reorder the label axes so the dot-adjacent labels sit last and
    reversed, then apply the half-integer kernel across them.  O(N * 2^N).
    """
    n_qubits = shape.qubits
    _check_dot(shape, dot)
    arr = _check_state(coeffs, shape)
    perm = tuple(range(dot, n_qubits)) + tuple(range(dot - 1, -1, -1))
    t = np.ascontiguousarray(arr.reshape((2,) * n_qubits).transpose(perm))
    block = t.reshape(1 << (n_qubits - dot), 1 << dot)
    return _momentum_transform(block, inverse=False).reshape(shape.dim)


def analyze(state: np.ndarray, shape: SystemShape, dot: int) -> np.ndarray:
    """Expand a state in the dot-basis: exact inverse of synthesize."""
    n_qubits = shape.qubits
    _check_dot(shape, dot)
    arr = _check_state(state, shape)
    block = arr.reshape(1 << (n_qubits - dot), 1 << dot)
    t = _momentum_transform(block, inverse=True).reshape((2,) * n_qubits)
    perm = tuple(range(dot, n_qubits)) + tuple(range(dot - 1, -1, -1))
    t = t.transpose(np.argsort(perm))
    return np.ascontiguousarray(t).reshape(shape.dim)


def apply_baker(state: np.ndarray, shape: SystemShape) -> np.ndarray:
    """One step of the dot-shift map: read in the dot basis, rebuild at dot+1.

    Sends basis_state(dot, bits) to basis_state(dot+1, bits) for every label,
    so the symbolic itinerary shifts left by one.  Unitary, O(N * 2^N).
    """
    if shape.dot >= shape.qubits:
        raise ParameterError(
            f"need dot <= qubits - 1 to step the map, got dot={shape.dot}, qubits={shape.qubits}"
        )
    return synthesize(analyze(state, shape, shape.dot), shape, shape.dot + 1)


def transfer(coeffs: np.ndarray, shape: SystemShape) -> np.ndarray:
    """One map step expressed in dot-basis coefficients.

    Equivalent to analyze(apply_baker(synthesize(coeffs))), with the inner
    round trip cancelled: synthesize at dot+1, analyze back at dot.
    """
    psi = synthesize(coeffs, shape, shape.dot + 1)
    return analyze(psi, shape, shape.dot)


def kernel_columns(dot: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of transfer_kernel(dot), fresh and writable.

    Summing the product of the two half-integer DFTs in closed form gives,
    with M = 2**dot, row = f*M + r (fresh bit f) and column c,

        K[f*M + r, c] = g(c - 2r) * exp(1j*pi*f*(c + 1/2)),
        g(d) = 1j * (1 + 1j*(-1)**d) / (2*sin(pi*(d - 1/2)/(2M)) * sqrt(M*2M)),

    so the fresh-bit-1 half is the fresh-bit-0 half times 1j*(-1)**c.
    O(2M * (stop - start)).
    """
    m = 1 << dot
    if not 0 <= start < stop <= 2 * m:
        raise ValueError(f"need 0 <= start < stop <= {2 * m}, got start={start}, stop={stop}")
    width = stop - start
    # g over every d = c - 2r the block touches, lowest first
    d = np.arange(start - 2 * (m - 1), stop)
    g = np.where(d % 2 == 0, -1 + 1j, 1 + 1j) / (
        2.0 * np.sin(np.pi * (d - 0.5) / (2 * m)) * (m * np.sqrt(2.0))
    )
    out = np.empty((2 * m, width), dtype=np.complex128)
    # window i of g starts at d = start - 2(M-1) + i, which is row r = M-1-i/2
    out[:m] = np.lib.stride_tricks.sliding_window_view(g, width)[::2][::-1]
    np.multiply(out[:m], np.where(np.arange(start, stop) % 2 == 0, 1j, -1j), out=out[m:])
    return out


def apply_columns(
    x: np.ndarray, dot: int, start: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply transfer_kernel(dot)[:, start:start+w] along the last axis of x.

    x has shape (..., w); the result has shape (..., 2M), M = 2**dot.  The
    input is embedded at `start` in a length-2M vector, then one length-2M
    inverse FFT and one length-M FFT over each half do the work, with the
    twiddles applied in place.  O(M log M) per vector; `out` (C-contiguous,
    shape (..., 2M)) may be given to receive the result.
    """
    m = 1 << dot
    width = x.shape[-1]
    if start < 0 or start + width > 2 * m:
        raise ValueError(f"columns {start}..{start + width - 1} outside 0..{2 * m - 1}")
    if out is None:
        out = np.empty(x.shape[:-1] + (2 * m,), dtype=np.complex128)
    pre, mid, post = _step_twiddles(dot)
    out[..., :start] = 0
    out[..., start + width :] = 0
    np.multiply(x, pre[start : start + width], out=out[..., start : start + width])
    # in-place FFTs keep peak memory at one output buffer; np.fft's out=
    # needs numpy >= 2.0, the floor pyproject.toml declares
    np.fft.ifft(out, norm="forward", out=out)
    out *= mid
    halves = out.reshape(out.shape[:-1] + (2, m))
    np.fft.fft(halves, out=halves)
    halves *= post
    return out


@lru_cache(maxsize=8)
def transfer_kernel(dot: int) -> np.ndarray:
    """Dense unitary kernel mixing the dot-adjacent labels in one map step.

    One step in dot-basis coordinates factors into this 2^(dot+1)-dimensional
    block acting on labels 1..dot+1 (in reversed-significance order, LSB =
    label 1) and a pure left shift of all trailing labels; the kernel's
    leading output bit is the fresh label injected at the far right of the
    register.  Rows 0..2^dot-1 carry fresh bit 0, the rest fresh bit 1.

    The kernel is F_M^dagger times each half of F_2M (half-integer DFTs,
    M = 2**dot, as in the Balazs-Voros/Saraceno quantized baker), built here
    from the closed form in kernel_columns.  Cached and read-only.
    Propagation applies wide column blocks through apply_columns instead and
    builds this dense matrix only for its narrow contractions.
    """
    if dot < 0:
        raise ValueError(f"dot must be >= 0, got {dot}")
    kernel = kernel_columns(dot, 0, 2 << dot)
    kernel.flags.writeable = False
    return kernel


def baker_matrix(shape: SystemShape) -> np.ndarray:
    """Dense matrix of apply_baker, column by column.  Test oracle only."""
    if shape.qubits > DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense map matrix limited to qubits <= {DENSE_LIMIT}, got {shape.qubits}"
        )
    dim = shape.dim
    out = np.empty((dim, dim), dtype=np.complex128)
    basis = np.eye(dim, dtype=np.complex128)
    for j in range(dim):
        out[:, j] = apply_baker(basis[:, j], shape)
    return out


def bvs_reference_matrix(qubits: int) -> np.ndarray:
    """Independent dense reference for the map at dot = qubits - 1.

    Classic construction: inverse full-size half-integer Fourier matrix times
    the block diagonal of two half-size ones.  The kernel sign here is -1,
    fixed by calibrating against baker_matrix at 2 and 3 qubits (the +1 kernel
    produces the adjoint map instead); basis_state keeps the +1 convention.
    """
    if not 1 <= qubits <= DENSE_LIMIT:
        raise ResourceLimitError(f"reference matrix limited to qubits <= {DENSE_LIMIT}, got {qubits}")
    dim = 1 << qubits
    full = half_integer_fourier(dim, -1)
    halfm = half_integer_fourier(dim // 2, -1)
    return full.conj().T @ np.kron(np.eye(2), halfm)

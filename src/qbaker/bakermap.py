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

import numpy as np
# numpy 2 imports numpy.fft on its first use; importing it with the package
# keeps that import out of the first propagation's memory peak
import numpy.fft  # noqa: F401

from .core import DEFAULT_BUDGET_BYTES, SystemShape, bits_to_index
from .errors import ParameterError, ResourceLimitError

DENSE_LIMIT = 10  # dense reference matrices are test oracles, not production paths
# identity rows baker_matrix steps at once; basis_matrix builds as many
# labels' worth of amplitudes (_DENSE_BLOCK * 2**qubits) at once.  At 10
# qubits a 32-row step holds 2.6 MiB (rows and _step_rows temporaries) and
# a basis block 1.6 MiB, both under the 2.9 MiB of one 64-column block of
# check's Gram deviation, so that block sets check's dense peak.  64 rows
# held 5.1 MiB; at one thread they took 0.054 / 0.062 s per matrix at dots
# 5 / 9, 32 rows 0.056 / 0.042 s.  One batch of all 1024 rows held 80 MiB
# and raised check's peak RSS from 67 to 127 MiB
_DENSE_BLOCK = 32


def _check_state(state: np.ndarray, shape: SystemShape) -> np.ndarray:
    arr = np.asarray(state, dtype=np.complex128)
    if arr.shape != (shape.dim,):
        raise ParameterError(f"state must have shape ({shape.dim},), got {arr.shape}")
    return arr


def half_integer_fourier(dim: int, sign: int = +1) -> np.ndarray:
    """Dense antiperiodic Fourier matrix with half-integer index offsets.

    Entry (j, k) is dim**-0.5 * exp(sign * 2j*pi * (j+1/2)(k+1/2) / dim).
    Symmetric and unitary.  Test/reference use only; the fast transforms below
    apply the same kernel through an FFT.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    idx = np.arange(dim) + 0.5
    return np.exp(sign * 2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def _half_shift(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Twiddles that turn a plain DFT into the half-integer one.

    exp(2j*pi*(j+1/2)(k+1/2)/size) = tail[j] * exp(2j*pi*j*k/size) * head[k].
    """
    head = np.arange(size, dtype=np.complex128)
    tail = head + 0.5
    for vec in (head, tail):  # in place: no temporary beside the results
        np.exp(np.divide(np.multiply(vec, 1j * np.pi, out=vec), size, out=vec), out=vec)
    return head, tail


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


# one dot at a time: every apply_columns call of a run reuses it, and no run
# steps at one dot, then another, then the first again
@lru_cache(maxsize=1)
def _step_twiddles(dot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three fused twiddle vectors of apply_columns, read-only.

    transfer_kernel(dot) is F_M^dagger applied to each half of F_2M (both
    half-integer DFTs, M = 2**dot).  `pre` (length 2M) is F_2M's input
    twiddle, `mid` (length 2M, read as (2, M)) joins F_2M's output twiddle to
    F_M^dagger's input one, and `post` (length M) is F_M^dagger's output
    twiddle with both normalizations folded in.
    """
    m = 1 << dot
    pre, mid = _half_shift(2 * m)
    head, post = _half_shift(m)
    # in place (no broadcast, which buffers): the build peaks at these 6M entries
    mid[:m] *= np.conjugate(head, out=head)
    mid[m:] *= head
    np.divide(np.conjugate(post, out=post), m * np.sqrt(2.0), out=post)
    for vec in (pre, mid, post):
        vec.flags.writeable = False
    return pre, mid, post


def _product_amplitudes(dot: int, highs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (len(highs), 2**dot) with the product form of each label.

    Row i holds the 2**dot amplitudes that every dot-basis state whose
    dot-side label bits (labels 1..dot, MSB first) read highs[i] carries on
    its trailing position index: a global phase times one momentum factor
    (|0> + exp(2j*pi*f_t)|1>)/sqrt(2) per leading label bit, where f_t is the
    binary fraction over label bits t..1 with a trailing 1 appended.  The
    trailing 1 keeps every phase a half-integer multiple of the mesh, which
    is what makes the family orthonormal.  Labels t..1 read as an integer
    are the low t bits of highs bit-reversed, so each fraction is an exact
    dyadic.  The factors multiply in label order, the last one into `out`,
    so the build holds `out` and the half-size product before it.
    """
    n, t = len(highs), np.arange(1, dot + 1)
    rev = (((highs[:, None] >> (dot - t)) & 1) << (t - 1)).sum(axis=1)
    amps = np.exp(1j * np.pi * ((2 * rev + 1) / (2 << dot)))[:, None]
    factors = np.empty((n, dot, 2), dtype=np.complex128)
    factors[..., 0] = 1.0
    factors[..., 1] = np.exp(2j * np.pi * ((2 * (rev[:, None] & ((1 << t) - 1)) + 1) / (2 << t)))
    factors /= np.sqrt(2.0)
    for i in range(dot):
        last = out.reshape(n, -1, 2) if i == dot - 1 else None
        amps = np.multiply(amps[:, :, None], factors[:, i, None, :], out=last).reshape(n, -1)
    if not dot:
        out[...] = amps
    return out


def basis_state(shape: SystemShape, dot: int, bits: str) -> np.ndarray:
    """Localized basis state for the given dot position and label string.

    A computational state on the trailing position qubits times the
    product form of the dot-side labels (_product_amplitudes).  A state
    whose build would peak over DEFAULT_BUDGET_BYTES raises
    ResourceLimitError before anything is allocated.
    """
    n_qubits = shape.qubits
    SystemShape(shape.qubits, dot)  # checks 0 <= dot <= qubits
    if len(bits) != n_qubits:
        raise ParameterError(f"label must have {n_qubits} bits, got {len(bits)}")
    # at dot = qubits the last momentum factor's product reads the half-size
    # amplitudes beside the full state; at lower dots it holds less
    peak = (24 if dot else 16) << n_qubits
    if peak > DEFAULT_BUDGET_BYTES:
        raise ResourceLimitError(
            f"basis state needs {peak} bytes, over budget {DEFAULT_BUDGET_BYTES}"
        )
    size = 1 << dot
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    pos = bits_to_index(bits[dot:])
    highs = np.array([bits_to_index(bits[:dot])])
    _product_amplitudes(dot, highs, state[pos * size : (pos + 1) * size].reshape(1, size))
    return state


def _dense_out(out: np.ndarray | None, dim: int) -> np.ndarray:
    """`out`, checked to receive a (dim, dim) complex matrix in place, or a
    new one.  C order is required: basis_matrix writes through a reshaped
    view, which any other layout would turn into a copy."""
    if out is None:
        return np.empty((dim, dim), dtype=np.complex128)
    if not isinstance(out, np.ndarray) or out.shape != (dim, dim) or out.dtype != np.complex128:
        got = f"{out.shape} {out.dtype}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ParameterError(f"out must be a ({dim}, {dim}) complex128 array, got {got}")
    if not (out.flags.c_contiguous and out.flags.writeable):
        raise ParameterError("out must be a writable C-contiguous array")
    return out


def basis_matrix(shape: SystemShape, out: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix whose column j is basis_state(shape, shape.dot, label j).

    Equal bit for bit to stacking basis_state's columns.  Label j =
    h * P + p (P = 2**(qubits - dot), h its dot-side bits, p its position
    bits) is zero outside rows p*K .. p*K + K-1 (K = 2**dot), where it holds
    the product form of h alone.  Viewed as (P, K, K, P), the matrix is
    those product forms on the p = p' diagonal, which is written in place,
    _DENSE_BLOCK * 2**qubits amplitudes at a time.  Fills and returns `out`
    (a C-contiguous (dim, dim) complex128 array) when given.  Test oracle
    only.
    """
    if shape.qubits > DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense basis matrix limited to qubits <= {DENSE_LIMIT}, got {shape.qubits}"
        )
    out = _dense_out(out, shape.dim)
    dot = shape.dot
    size, pos_dim = 1 << dot, 1 << (shape.qubits - dot)
    out[...] = 0
    # entry (p, k, h, p') is row p*K + k of label h*P + p'
    grid = out.reshape(pos_dim, size, size, pos_dim)
    step = _DENSE_BLOCK * pos_dim
    for start in range(0, size, step):
        highs = np.arange(start, min(start + step, size))
        amps = _product_amplitudes(dot, highs, np.empty((len(highs), size), np.complex128))
        # a writable view of the p = p' diagonal, (P, K, len(highs))
        np.einsum("pkhp->pkh", grid[:, :, start : start + len(highs)])[...] = amps.T
    return out


def _label_axes(n_qubits: int, dot: int) -> tuple[int, ...]:
    """Axes of a (rows, 2, ..., 2) label array in synthesize's kernel order:
    the row axis, the trailing labels, then the dot-adjacent ones reversed."""
    return (0,) + tuple(range(dot + 1, n_qubits + 1)) + tuple(range(dot, 0, -1))


def _synthesize_rows(rows: np.ndarray, n_qubits: int, dot: int) -> np.ndarray:
    """synthesize applied to each row of a (k, 2**n_qubits) array."""
    k = len(rows)
    t = rows.reshape((k,) + (2,) * n_qubits).transpose(_label_axes(n_qubits, dot))
    block = np.ascontiguousarray(t).reshape(k, 1 << (n_qubits - dot), 1 << dot)
    return _momentum_transform(block, inverse=False).reshape(k, -1)


def _analyze_rows(rows: np.ndarray, n_qubits: int, dot: int) -> np.ndarray:
    """analyze applied to each row of a (k, 2**n_qubits) array."""
    k = len(rows)
    block = rows.reshape(k, 1 << (n_qubits - dot), 1 << dot)
    t = _momentum_transform(block, inverse=True).reshape((k,) + (2,) * n_qubits)
    t = t.transpose(np.argsort(_label_axes(n_qubits, dot)))
    return np.ascontiguousarray(t).reshape(k, -1)


def synthesize(coeffs: np.ndarray, shape: SystemShape, dot: int) -> np.ndarray:
    """Map dot-basis coefficients to computational amplitudes.

    Fast path: reorder the label axes so the dot-adjacent labels sit last and
    reversed, then apply the half-integer kernel across them.  O(N * 2^N).
    """
    SystemShape(shape.qubits, dot)  # checks 0 <= dot <= qubits
    arr = _check_state(coeffs, shape)
    return _synthesize_rows(arr[None], shape.qubits, dot)[0]


def analyze(state: np.ndarray, shape: SystemShape, dot: int) -> np.ndarray:
    """Expand a state in the dot-basis: exact inverse of synthesize."""
    SystemShape(shape.qubits, dot)  # checks 0 <= dot <= qubits
    arr = _check_state(state, shape)
    return _analyze_rows(arr[None], shape.qubits, dot)[0]


def _step_rows(rows: np.ndarray, shape: SystemShape) -> np.ndarray:
    """apply_baker applied to each row of a (k, shape.dim) array."""
    if shape.dot >= shape.qubits:
        raise ParameterError(
            f"need dot <= qubits - 1 to step the map, got dot={shape.dot}, qubits={shape.qubits}"
        )
    coeffs = _analyze_rows(rows, shape.qubits, shape.dot)
    return _synthesize_rows(coeffs, shape.qubits, shape.dot + 1)


def apply_baker(state: np.ndarray, shape: SystemShape) -> np.ndarray:
    """One step of the dot-shift map: read in the dot basis, rebuild at dot+1.

    Sends basis_state(dot, bits) to basis_state(dot+1, bits) for every label,
    so the symbolic itinerary shifts left by one.  Unitary, O(N * 2^N).
    """
    return _step_rows(_check_state(state, shape)[None], shape)[0]


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

    so the fresh-bit-1 half is the fresh-bit-0 half (_bit0_columns) times
    1j*(-1)**c (fresh_phase).  O(2M * (stop - start)).
    """
    bit0 = _bit0_columns(_column_g(dot, start, stop), dot, 0, stop - start)
    out = np.empty((2, *bit0.shape), dtype=np.complex128)
    out[0] = bit0
    np.multiply(out[0], fresh_phase(start, stop), out=out[1])
    return out.reshape(2 * len(bit0), -1)


def _column_g(dot: int, start: int, stop: int) -> np.ndarray:
    """kernel_columns' g(d) for d = start - 2(M-1) .. stop-1, all columns start..stop-1 read."""
    m = 1 << dot
    if not 0 <= start < stop <= 2 * m:
        raise ParameterError(f"need 0 <= start < stop <= {2 * m}, got start={start}, stop={stop}")
    d = np.arange(start - 2 * (m - 1), stop)
    g = np.where(d % 2 == 0, -1 + 1j, 1 + 1j) / (
        2.0 * np.sin(np.pi * (d - 0.5) / (2 * m)) * (m * np.sqrt(2.0))
    )
    g.flags.writeable = False
    return g


def _bit0_columns(g: np.ndarray, dot: int, lo: int, hi: int) -> np.ndarray:
    """Rows 0..M-1 of columns lo..hi-1 of a _column_g build (0 its first), a view of g."""
    m = 1 << dot
    # row r reads g from d = c - 2r, 2(M-1-r) entries past column c's own: a
    # plain strided view, since sliding_window_view makes Python objects on
    # every call (via as_strided), which grew an interpreter table by 1.9 MB
    size = g.itemsize
    return np.ndarray((m, hi - lo), g.dtype, g, (2 * (m - 1) + lo) * size, (-2 * size, size))


def fresh_phase(start: int, stop: int) -> np.ndarray:
    """1j*(-1)**c for columns c = start..stop-1 of transfer_kernel: the unit
    phase that takes column c's fresh-bit-0 half to its fresh-bit-1 half."""
    return np.where(np.arange(start, stop) % 2 == 0, 1j, -1j)


def apply_columns(x: np.ndarray, dot: int, runs, out: np.ndarray | None = None) -> np.ndarray:
    """Apply transfer_kernel(dot)[:, start:start+w] along the last axis of
    x[lo:hi] for each (start, lo, hi) of runs, all in one transform.

    x has shape (..., w); the result has shape (..., 2M), M = 2**dot.  Each
    run's rows are embedded at its start in a length-2M vector, then one
    length-2M inverse FFT and one length-M FFT over each half do the work,
    with the twiddles applied in place.  O(M log M) per vector; `out`
    (shape (..., 2M), its last axis contiguous) may receive the result.
    """
    m = 1 << dot
    width = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (2 * m,), dtype=np.complex128)
    pre, mid, post = _step_twiddles(dot)
    for begin, lo, hi in runs:
        if begin < 0 or begin + width > 2 * m:
            raise ParameterError(f"columns {begin}..{begin + width - 1} outside 0..{2 * m - 1}")
        rows = out[lo:hi]
        rows[..., :begin] = 0
        rows[..., begin + width :] = 0
        np.multiply(x[lo:hi], pre[begin : begin + width], out=rows[..., begin : begin + width])
    # in-place FFTs keep peak memory at one output buffer; np.fft's out=
    # needs numpy >= 2.0, and pyproject.toml declares 2.4, on which they
    # were traced to copy nothing, so histories._estimate_bytes counts none
    np.fft.ifft(out, norm="forward", out=out)
    out *= mid
    halves = out.reshape(out.shape[:-1] + (2, m))
    np.fft.fft(halves, out=halves)
    halves *= post
    return out


def transfer_kernel(dot: int) -> np.ndarray:
    """Dense unitary kernel mixing the dot-adjacent labels in one map step.

    One step in dot-basis coordinates factors into this 2^(dot+1)-dimensional
    block acting on labels 1..dot+1 (in reversed-significance order, LSB =
    label 1) and a pure left shift of all trailing labels; the kernel's
    leading output bit is the fresh label injected at the far right of the
    register.  Rows 0..2^dot-1 carry fresh bit 0, the rest fresh bit 1.

    The kernel is F_M^dagger times each half of F_2M (half-integer DFTs,
    M = 2**dot, as in the Balazs-Voros/Saraceno quantized baker), built here
    from the closed form in kernel_columns, once per call, and read-only.
    Propagation never builds it: wide column blocks go through
    apply_columns and narrow ones through kernel_columns.  It is a public
    oracle of both.
    """
    if dot < 0:
        raise ParameterError(f"dot must be >= 0, got {dot}")
    kernel = kernel_columns(dot, 0, 2 << dot)
    kernel.flags.writeable = False
    return kernel


def baker_matrix(shape: SystemShape, out: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of apply_baker, _DENSE_BLOCK identity rows per batched
    step, equal bit for bit to stacking apply_baker's images.  Fills and
    returns `out` (a C-contiguous (dim, dim) complex128 array) when given,
    so check refills the buffer its basis suite used.  Test oracle only."""
    if shape.qubits > DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense map matrix limited to qubits <= {DENSE_LIMIT}, got {shape.qubits}"
        )
    dim = shape.dim
    out = _dense_out(out, dim)
    for start in range(0, dim, _DENSE_BLOCK):
        stop = min(start + _DENSE_BLOCK, dim)
        rows = np.zeros((stop - start, dim), dtype=np.complex128)
        rows[np.arange(stop - start), np.arange(start, stop)] = 1.0
        out[:, start:stop] = _step_rows(rows, shape).T
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

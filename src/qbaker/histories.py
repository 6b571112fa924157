"""Branch ensembles over coarse-grained label histories and their functionals.

A block initial state is propagated as an ensemble of pure dot-basis labels.
One map step factors into a unitary kernel K acting on the dot-adjacent
label bits and a pure left shift of the trailing bits.  K is F_M^dagger
applied to each half of F_2M, two half-integer DFTs with M = 2**dot (see
bakermap.transfer_kernel), so it has a closed form and an FFT form:

* step 1 needs one kernel column per initial label, each unit's a view of
  one closed-form build per run (_Frame.step1, bakermap.kernel_columns);
* later steps apply a block of w columns to every live row.  When
  w >= W (= _FFT_MIN_WIDTH, 256) that is one length-2M inverse FFT and two
  length-M FFTs per row (bakermap.apply_columns); narrower blocks, on a
  run of the dense arm (_Frame.dense), multiply the 2M x w block of
  closed-form columns, which is faster there.  No run builds the whole
  2M x 2M kernel.  w is 2**left on kind "full" and 2**dot on kind "coarse"
  (_Frame.width).  Step 1's kernel column c has K[M + r, c] =
  K[r, c] * 1j*(-1)**c, and every later step maps both halves of the fresh
  register alike, so a label's step-1 fresh-bit-1 half stays its bit-0
  half times that unit phase, with equal |amplitude|**2 and overlap terms.
  A run off the dense arm is halved: its units carry the bit-0 half only,
  and double their norms and Gram blocks' weight, which is exact.
* column c + M of K is column c with the top bit of r flipped and a sign,
  K[f*M + r, c + M] = K[f*M + r - M/2, c] for r >= M/2 and
  -K[f*M + r + M/2, c] for r < M/2, since g(d + 2M) = -g(d) and the fresh
  phase reads only c's parity (bakermap.kernel_columns).  When a halved run
  has group bits (freeq >= 1), the last feed bit, label position
  dot + steps, is the top group bit, so a group and its partner with that
  bit set share every step but the last, where the partner takes columns M
  later.  As left < dot, M/2 spans whole last-window-value blocks: the
  partner's rows with last value h are the group's with h ^ 2**(qwidth-1),
  one sign per block, so its norms, pruning, masses and Gram blocks are
  the group's.  Such a run (_Frame.mirror) grows and adds only the groups
  below the top bit; a partner's block, that bit of its last window value
  flipped, keeps its group's codes and, on kind "full", is its group's
  matrix.  The dense arm, the narrow-geometry oracle, grows every group.

Under the standing inequalities left < dot, right < qubits - dot,
steps < right the trailing right - steps label bits ride along untouched.
The ensemble therefore collapses onto 2**(left + steps) distinct active
labels, each standing for 2**(right - steps) identical spectator copies, and
every probability and functional value computed here is exact, not
approximate.  Tests compare the reduced register against dense-matrix
evaluation at small sizes.

Labels are propagated in (group, a-chunk) units, and one block size,
_BLOCK_BYTES (1 MiB), bounds every array a propagation thread holds.  A
chunk is 64 labels, or all 2**left when fewer, halved while a unit's stored
penultimate output (rows x labels x stored fresh values x 2M,
_Frame.step_output) is over two blocks; labels evolve and are pruned
independently, so the split changes nothing but the order of the label
sums.  A unit stores steps 1..steps-1 whole, in the two step buffers of its
thread's reused _Workspace.  Its last step runs _Frame.block labels at a
time, a block's output at most one block, and each block is folded at once
into the per-label masses, the rows' keep mask and one Gram accumulator per
last window value.  The products' two operands, a window value's rows of a
block and their conjugate, take at most 2/h of a block (h = 2**qwidth >= 2)
in the workspace's third buffer; on the FFT arm a unit that enters the step
with one row takes its 1 x 1 blocks from the norms.  No branch vector is
kept, so a thread holds at most five blocks, two per step buffer and one of
operands, unless one label's last step output, or its operands, are
larger; then come the units' Gram accumulators and the path Gram blocks.
Moving the block bound moves outputs only in the order of each Gram entry's
label sum.  A path code's digits are its window values, the newest most
significant, so a unit's rows are in code order.  A row's key is a key
table (its group, or 0 for every group on kind "coarse", whose final window
reads no group bit) above its code.  Paths that differ in their group,
omega or last window value are orthogonal, so the n x n matrix is never
formed; each (table, last window value) is a block of it, shared by
2**nomega omegas, in which a path's place is the code of its row entering
the last step.  A unit's accumulators are added whole, zero where it kept
no child, in unit order into one array of the grown groups' matrices; a
shared table sums them in group order.  A block keeps the codes some unit
kept.  A path leaves as a row of int64 words (_path_keys).

Active-label bookkeeping, with positions 1-indexed inside the label string:

* positions 1 .. left feed the low digits of the kernel's momentum
  composite and are swept exhaustively (the `a` axis);
* positions left+1 .. left+kept hold the fixed window value;
* positions left+kept+1 .. dot+steps are consumed by the kernel during the
  run and are swept as the `group` index;
* positions max(dot+steps, left+kept)+1 .. left+kept+steps are read by
  intermediate window projections but never consumed; they relabel paths
  without touching amplitudes and are swept as the `omega` index.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .bakermap import _bit0_columns, _column_g, apply_columns, fresh_phase, kernel_columns
from .bakermap import transfer_kernel  # noqa: F401  perfbench/traced.py wraps this name
from .coarsegrain import BlockInitialState, validate_run
from .core import DEFAULT_BUDGET_BYTES, check_word
from .errors import InvariantError, ParameterError, ResourceLimitError

# most initial labels (a-axis entries) in one unit
_CHUNK = 64
# the one bound on a propagation thread's arrays: a block of a unit's
# streamed last step outputs at most this many bytes, its stored steps at
# most twice that and its Gram operands at most this, unless one label alone
# needs more (_Frame.chunk, _Frame.block).  Six interleaved perfbench
# step-entropy runs each (2-vCPU VM, numpy 2.4): cpu_s 1.41 s at 44.5 MiB peak
# RSS; stored steps of one block 1.45 s at 40.8 MiB; 512 KiB 1.62 s at 40.2
# MiB; 2 MiB blocks after stored steps of 4 MiB 1.35 s at 54.6 MiB
_BLOCK_BYTES = 1 << 20
# contractions at least this many columns wide go through the FFT, narrower
# ones multiply closed-form kernel columns (W in the module docstring)
_FFT_MIN_WIDTH = 256
# Gram products of at least this many complex multiply-adds run as one BLAS
# ZGEMM; below it numpy's own einsum loop is faster.  Timed on one BLAS
# thread, the CLI's, at the last step's block shapes (2-vCPU x86_64, numpy
# 2.4 with OpenBLAS): from 4 rows on ZGEMM wins from 2**16 MACs (4.3 times
# faster at 8 rows and 2**19), 2 or 3 rows tie within 5% up to 2**18, and a
# one-row product, which the dense arm forms on kind "coarse", runs 10 times
# slower as a ZGEMM.  Library callers at the default BLAS thread count see
# the same split.  Which products take BLAS sets the order of their sums, so
# moving the constant moves outputs in their last digits
_GEMM_MIN_MACS = 1 << 17
_AHEAD = 2  # units per thread submitted ahead of the reduction (propagate_branches)
# bytes of Python objects per thread in flight beside the arrays _estimate_bytes counts;
# the smallest budget case, (8,4,2,3,2) at one thread, traces 56 KB, nearly all such objects
_ALLOWANCE = 64 << 10
_ENTROPY_FLOOR = 1e-15
_NEGATIVE_CLIP = 1e-12


def _rev_int(bits: str) -> int:
    """Reversed-significance reading: the first character is the low bit."""
    return int(bits[::-1], 2) if bits else 0


@dataclass(frozen=True)
class _Frame:
    """Geometry of one reduced-register run; the engine reads its kind only here."""

    qubits: int
    dot: int
    left: int
    kept: int
    steps: int
    window: str
    kind: str

    @property
    def recorded(self) -> range:
        # steps whose window value splits the rows and enters the path key
        return range(1 if self.kind == "full" else self.steps, self.steps + 1)

    @property
    def width(self) -> int:
        # columns per row at steps >= 2: 2**left in a split row, else 2**dot
        return 1 << (self.left if self.kind == "full" else self.dot)

    def place(self, j: int) -> int:
        """Place value of step j's window value in a path code: the count of
        codes of the recorded steps before j, so the most rows entering step j."""
        return 1 << self.qwidth * sum(i < j for i in self.recorded)

    @property
    def last_place(self) -> int:
        # place value of a path code's leading digit, the last window value
        return self.place(self.steps)

    def step_output(self, j: int, labels: int) -> int:
        """Complex entries of step j's contraction output over `labels` initial labels."""
        # rows entering step j x labels x stored fresh register x 2M
        return self.place(j) * labels << j + self.dot - (not self.dense)

    @property
    def dense(self) -> bool:
        # the arm: a run with contractions narrower than _FFT_MIN_WIDTH
        # multiplies closed-form kernel columns and carries both fresh halves;
        # every other run goes by FFT and is halved (module docstring)
        return self.steps > 1 and self.width < _FFT_MIN_WIDTH

    @property
    def chunk(self) -> int:
        # initial labels per unit: _CHUNK, halved while the unit's stored
        # penultimate output is over two blocks (2 * _BLOCK_BYTES); the last
        # step, the only one of a one-step run, is streamed.  The geometry
        # alone picks it, so reductions group identically at any thread count
        chunk, stored = min(_CHUNK, 1 << self.left), self.steps - 1
        while stored and chunk > 1 and 16 * self.step_output(stored, chunk) > 2 * _BLOCK_BYTES:
            chunk //= 2
        return chunk

    @property
    def block(self) -> int:
        # labels per block of a unit's streamed last step: the chunk, halved
        # while a block's output, at the most rows that can enter the step,
        # is over _BLOCK_BYTES; the geometry alone picks it, as the chunk
        block = self.chunk
        while block > 1 and 16 * self.step_output(self.steps, block) > _BLOCK_BYTES:
            block //= 2
        return block

    @cached_property
    def step1(self) -> tuple[int, np.ndarray]:
        # step 1's column at initial label 0 (the window's first qwidth + 1
        # bits, the last its feed bit at position dot + 1 <= left + kept) and
        # the g of all 2**left labels' columns: one read-only build per run
        start = _rev_int(self.window[: self.qwidth + 1]) << self.left
        return start, _column_g(self.dot, start, start + (1 << self.left))

    @property
    def shared_keys(self) -> bool:
        # a final window reads no group bit (its positions pass dot+steps)
        return self.kind == "coarse"

    @property
    def qwidth(self) -> int:
        # window bits read from the live momentum composite each step
        return self.dot - self.left

    @property
    def freeq(self) -> int:
        # label bits consumed by the kernel beyond the fixed window
        return max(0, self.dot + self.steps - self.left - self.kept)

    @property
    def mirror(self) -> int:
        # the top group bit, whose groups a halved run takes from their
        # partners below it (module docstring), or 0 when every group runs
        return 0 if self.dense else (1 << self.freeq) >> 1

    @property
    def nomega(self) -> int:
        return self.steps - self.freeq

    @property
    def omega_start(self) -> int:
        return max(self.dot + self.steps, self.left + self.kept)

    def label_bit(self, pos: int, group: int, omega: int) -> int:
        """Label bit at 1-indexed position pos in (left, left+kept+steps]."""
        if pos <= self.left + self.kept:
            return int(self.window[pos - self.left - 1])
        if pos <= self.dot + self.steps:
            return (group >> (pos - self.left - self.kept - 1)) & 1
        return (omega >> (pos - self.omega_start - 1)) & 1

    def definite_word(self, j: int, group: int, omega: int) -> int:
        """Window bits at step j from definite label positions, the first most significant."""
        top = self.left + self.kept + j
        bits = range(self.dot + j + 1, top + 1)
        return sum(self.label_bit(p, group, omega) << top - p for p in bits)


def _estimate_bytes(frame: _Frame, threads: int) -> list[tuple[str, int]]:
    """Upper bounds on what one run holds at once, by item, ignoring pruning.

    Each thread in flight holds a _Workspace (two step buffers of the larger
    of a unit's stored steps and a last-step block, and a block's Gram
    operands) and numpy's transients; the rest comes once per run.
    """
    h, rows, two_m = 1 << frame.qwidth, frame.last_place, 2 << frame.dot
    stored = frame.step_output(frame.steps - 1, frame.chunk) if frame.steps > 1 else 0
    block = frame.step_output(frame.steps, frame.block)
    if frame.dense:  # np.tensordot's result and input copy, a (2M, w) column block and its build
        arm = max(stored, 2 * block) + (frame.width + 5) * two_m + 5 * frame.width + np.getbufsize()
    else:  # a twiddle multiply's buffer per strided operand (394640 bytes traced at left 8)
        arm = 3 * np.getbufsize() + 128
    # a unit's accumulators, and a fold's norms, kill mask, pruned norms and their
    # indices, 3 entries per branch
    workspace = 2 * max(stored, block) + 2 * block // h + h * rows * (rows + 3 * frame.chunk) + arm
    grown = frame.mirror or 1 << frame.freeq
    units = (grown << frame.left) // frame.chunk
    unit = h * rows * (rows + 1) + rows + frame.chunk  # accumulators, keep mask, codes, masses
    # a matrix per grown (group, last window value) and kind "coarse"'s h sums; per
    # path its words as built and sorted, and 9 words of sorts and lookups
    matrices = (grown * h + (h if frame.shared_keys else 0)) * 16 * rows**2
    paths = (h * rows << frame.nomega) * (1 if frame.shared_keys else 1 << frame.freeq)
    return [
        ("step workspace", min(threads, units) * (16 * workspace + _ALLOWANCE)),
        ("unit accumulators", 16 * unit * min(_AHEAD * threads, units)),
        ("path gram blocks", matrices + 8 * paths * (2 * len(frame.recorded) + 9)),
        # step 1's g, 2M + 2**left entries, with its build's 4 more copies; later, g
        # beside the twiddles' 6M-entry build or 5M-entry cache holds less
        ("run builds", 80 * (two_m + (1 << frame.left))),
    ]


def _byte_count(n: int) -> str:
    # exact below 2**64; an absurd geometry's sizes grow as 2**(qwidth * steps),
    # hundreds of digits, so past that only their power of two is printed
    return str(n) if n < 1 << 64 else f"at least 2**{n.bit_length() - 1}"


class _Workspace:
    """Three flat complex buffers, two for the steps and one for the Gram operands,
    that one thread reuses for every unit, whatever the threads' interleaving."""

    def __init__(self):
        self._bufs = [np.empty(0, dtype=np.complex128)] * 3

    def take(self, shape: tuple[int, ...], *busy: np.ndarray | None) -> np.ndarray:
        """A C-contiguous array of `shape` in the first buffer that holds none of busy."""
        n = math.prod(shape)
        i = next(i for i, buf in enumerate(self._bufs)
                 if not any(np.may_share_memory(buf, b) for b in busy))
        if self._bufs[i].size < n:
            self._bufs[i] = None  # free the old buffer before the new one exists
            self._bufs[i] = np.empty(n, dtype=np.complex128)
        return self._bufs[i][:n].reshape(shape)


def _runs(h_last: np.ndarray):
    """(value, lo, hi) for each run of equal values in the sorted h_last."""
    starts = np.flatnonzero(np.diff(h_last, prepend=-1))
    ends = np.append(starts[1:], len(h_last))
    return zip(h_last[starts].tolist(), starts.tolist(), ends.tolist())


def _fold(out: np.ndarray, frame: _Frame, prune_eps: float, disc: np.ndarray, root: np.ndarray):
    """A step output's children by window value, their norms, and its pruning.

    The output composite index is fresh_bit * M + momentum' (bit 0 only at a
    halved step 1), the fresh bit joining the register as its lowest digit,
    and momentum' = child * 2**left + low digits.  Returns out viewed as
    (row, a, fresh, child, low), the (child, row, a) norms, doubled off the
    dense arm (module docstring) so that pruning judges a label by its whole
    norm, and the (child, row) mask of children some label keeps.  A branch
    whose norm is under prune_eps is pruned: its norm is added to its
    label's disc and its root to root, in place, and it is zeroed in the
    split and the norms.  At prune_eps 0 every child is kept.
    """
    rows_n, a_width, f_width, width = out.shape
    children = (1 << frame.qwidth, 1 << frame.left)
    split = out.reshape((rows_n, a_width, f_width * width >> frame.dot) + children)
    flat = split.view(np.float64)
    norms = np.einsum("rafhl,rafhl->hra", flat, flat)
    norms *= 1.0 if frame.dense else 2.0  # exact: a bit-1 term equals a bit-0 one
    kill = norms < prune_eps
    if kill.any():
        dead = np.where(kill, norms, 0.0)
        disc += dead.sum(axis=(0, 1))
        root += np.sqrt(dead, out=dead).sum(axis=(0, 1))
        np.moveaxis(split, 3, 0)[kill] = 0
        norms[kill] = 0.0
    return split, norms, ~kill.all(axis=2)


def _step(
    frame: _Frame, j: int, group: int, labels: range, amp: np.ndarray | None, runs, ws: _Workspace
) -> np.ndarray:
    """Step j's output for a range of initial labels, (row, a, fresh, 2M or M).

    Step 1 copies the labels' kernel columns from a view of the run's g
    (_Frame.step1).  A later step contracts amp, the labels' step j-1
    amplitudes, into the first ws buffer that does not hold it; a run of
    rows of equal last window value (_step_runs) takes one column block.  On
    the dense arm its rows multiply that (2M, w) block, built by
    kernel_columns: every entry depends only on c - 2r and the parity of c,
    so it equals the dense transfer_kernel's slice bit for bit.  Off it all
    runs go by one FFT to the halved unit.
    """
    m = 1 << frame.dot
    if j == 1:
        start, g = frame.step1
        out = ws.take((1, len(labels), 1, 2 * m if frame.dense else m))
        halves = out.reshape(len(labels), -1, m)  # (label, fresh bit, r)
        halves[:, 0] = _bit0_columns(g, frame.dot, labels.start, labels.stop).T
        if frame.dense:  # kernel_columns' fresh-bit-1 half
            phase = fresh_phase(start + labels.start, start + labels.stop)
            np.multiply(halves[:, 0], phase[:, None], out=halves[:, 1])
        return out
    rows_n, _, f_width, width = amp.shape
    out = ws.take((rows_n, len(labels), f_width, 2 * m), amp)
    feed = frame.label_bit(frame.dot + j, group, 0)  # never an omega bit
    starts = [(feed * m + h * width, lo, hi) for h, lo, hi in runs]
    if not frame.dense:
        return apply_columns(amp, frame.dot, starts, out=out)
    for start, lo, hi in starts:
        cols = kernel_columns(frame.dot, start, start + width)
        out[lo:hi] = np.tensordot(amp[lo:hi], cols, axes=([3], [1]))
    return out


def _step_runs(frame: _Frame, j: int, codes: np.ndarray) -> list[tuple[int, int, int]]:
    """(value, lo, hi) for each run of rows entering step j that shares a column block.

    Rows share the momentum block of their newest window value (the code's
    leading digit); a row not yet split by a recorded window has code 0 and
    holds the whole momentum register.
    """
    return list(_runs(codes * (1 << frame.qwidth) // frame.place(j)))


def _grow_unit(
    frame: _Frame, prune_eps: float, unit: tuple[int, int, int], ws: _Workspace, steps: int
):
    """Propagate one (group, a_lo, a_hi) unit of initial labels for its first `steps` steps.

    Amplitudes are held as (row, a, fresh, momentum) in the two buffers of
    ws, each step writing the buffer its input does not use; the returned
    amplitudes (None after 0 steps) last until ws runs another unit.  At a
    recorded step _fold splits and prunes the output, which is then copied
    into window-value-major rows, and the rows no label keeps are dropped.
    Returns per-label discarded mass (norm units), per-label S (the sum of
    a label's pruned norms' roots), each row's path code (its recorded window
    values as base-2**qwidth digits, the newest most significant, so the
    codes strictly increase down the rows) and the amplitudes.
    """
    group, a_lo, a_hi = unit
    labels = range(a_lo, a_hi)
    disc = np.zeros(len(labels))
    root = np.zeros(len(labels))
    codes = np.zeros(1, dtype=np.int64)
    amp = None
    for j in range(1, steps + 1):
        amp = _step(frame, j, group, labels, amp, _step_runs(frame, j, codes), ws)
        if j not in frame.recorded:
            amp = amp.reshape(amp.shape[:2] + (-1, 1 << frame.dot))
            continue
        # split children into window-value-major rows, so equal last values stay adjacent
        split, _, keep = _fold(amp, frame, prune_eps, disc, root)
        h_count, rows_n = keep.shape
        amp = ws.take((h_count,) + split.shape[:3] + split.shape[4:], split)
        np.copyto(amp, np.moveaxis(split, 3, 0))
        del split
        amp = amp.reshape((h_count * rows_n,) + amp.shape[2:])
        codes = (np.arange(h_count)[:, None] * frame.place(j) + codes).reshape(-1)
        keep = keep.reshape(-1)
        if not keep.all():
            # mode="clip" fills kept directly; "raise" would buffer a copy
            kept = ws.take((int(keep.sum()),) + amp.shape[1:], amp)
            amp = np.take(amp, np.flatnonzero(keep), axis=0, out=kept, mode="clip")
            codes = codes[keep]
    return disc, root, codes, amp


def _overlaps(sub: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """sub @ conj.T for (rows, k) arrays, k a power of two: one Gram block's sums.

    The sums go through np.einsum's "ialf,jalf->ij", the spec perfbench's
    dense_equiv_gflop counter matches, with the rows' entries as three axes.
    Products of at least _GEMM_MIN_MACS complex multiply-adds run as one
    BLAS ZGEMM, which einsum reaches without copying an operand only when no
    axis has length 1: hence the shape (rows, 2, 2, k/4).
    """
    rows, k = sub.shape
    shape = (rows, 2, 2, k // 4) if k >= 8 else (rows, 1, 1, k)
    blas = rows * sub.size >= _GEMM_MIN_MACS
    return np.einsum("ialf,jalf->ij", sub.reshape(shape), conj.reshape(shape), optimize=blas)


def _run_unit(frame: _Frame, prune_eps: float, unit: tuple[int, int, int], ws: _Workspace):
    """Grow one unit, streaming its last step into norms and Gram accumulators.

    Steps 1..steps-1 run as _grow_unit.  The last step runs _Frame.block
    labels at a time; _fold splits and prunes each block's output, its keep
    mask is ORed into the unit's, and its pruned norms (one row off the
    dense arm) or each window value's rows (as a product) go into one Gram
    accumulator per last window value h.  Returns the per-label discarded
    mass, the sum over labels of 2S + S**2 (S the sum of a label's pruned
    norms' roots), the codes of the rows entering the last step
    (_grow_unit's), the (h, row) mask of the children some label keeps, and
    the (h, row, row) accumulators, where gram[h, i, j] is the overlap of
    the paths of rows i and j with last window value h, in norm units (the
    bit-0 half off the dense arm).  _fold zeroes every pruned branch, so a
    row that keep[h] drops has an all-zero row and column in gram[h].
    """
    j = frame.steps
    disc, root, codes, amp = _grow_unit(frame, prune_eps, unit, ws, j - 1)
    group, a_lo, a_hi = unit
    h_count, rows_n = 1 << frame.qwidth, len(codes)
    runs = _step_runs(frame, j, codes)
    gram = np.zeros((h_count, rows_n, rows_n), dtype=np.complex128)
    keep = np.zeros((h_count, rows_n), dtype=bool)
    # a one-row block is the sum of its labels' halved norms; the dense arm,
    # the narrow-geometry oracle, forms every block as a product, whose MACs
    # perfbench's dense_equiv_gflop counter counts
    from_norms, block = rows_n == 1 and not frame.dense, frame.block
    for lo in range(0, a_hi - a_lo, block):
        hi = lo + block
        part = None if amp is None else amp[:, lo:hi]
        out = _step(frame, j, group, range(a_lo + lo, a_lo + hi), part, runs, ws)
        split, norms, block_keep = _fold(out, frame, prune_eps, disc[lo:hi], root[lo:hi])
        keep |= block_keep
        if from_norms:
            gram[:, 0, 0] += norms[:, 0].sum(axis=1) * 0.5
            continue
        # the operands: a block's rows of one window value, and their conjugate
        sub, conj = ws.take((2, rows_n, math.prod(out.shape[1:]) >> frame.qwidth), amp, out)
        for h in range(h_count):
            np.copyto(sub.reshape(split[:, :, :, h].shape), split[:, :, :, h])
            gram[h] += _overlaps(sub, np.conjugate(sub, out=conj))
    return disc, float((root * (2.0 + root)).sum()), codes, keep, gram


@dataclass
class HistoryDistribution:
    """Retained history probabilities plus the total pruned-away mass."""

    paths: np.ndarray  # a row of window words per history, as in BranchEnsemble
    probabilities: np.ndarray
    discarded: float

    def total(self) -> float:
        return float(self.probabilities.sum() + self.discarded)


@dataclass
class BranchEnsemble:
    """Path overlaps and pruned mass from one propagation run.

    `paths` is an int64 array whose entry [i, j] is path i's window value at
    its j-th recorded step, int(word, 2), a word of block.graining.kept
    bits; its rows are sorted as their word strings would be.  It has one
    column per recorded step (every step on kind "full", the last on kind
    "coarse") even when pruning keeps no path.  The path Gram matrix G, whose entry G[i, j] is the
    decoherence functional value between paths[i] (ket side) and paths[j]
    (bra side), is kept as its nonzero blocks: each of `blocks` is
    (positions, matrix), and for every row p of the 2-D positions array
    G[p[a], p[b]] = matrix[a, b].  Entries between paths in different rows
    or blocks are zero.  A block's rows are omegas sharing the
    matrix of one (group, last window value) on kind "full", and of one last
    window value, summed over the groups and so 1 x 1, on kind "coarse".
    Matrices are read-only, as a mirrored partner group's blocks share its group's.
    Blocks are in (group, last window value) order, and a block's paths in
    path-code order, the newest window value most significant.
    `cross_bound` sums weight * (2S + S**2) over labels, S the sum of a
    label's pruned branch norms (see history_distribution).
    """

    block: BlockInitialState
    steps: int
    kind: str
    prune_eps: float
    paths: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    discarded_total: float
    cross_bound: float

    @property
    def gram(self) -> np.ndarray:
        """The dense path Gram matrix, assembled from the blocks on each call."""
        n = len(self.paths)
        out = np.zeros((n, n), dtype=np.complex128)
        for positions, matrix in self.blocks:
            out[positions[:, :, None], positions[:, None, :]] = matrix
        return out

    @property
    def probabilities(self) -> np.ndarray:
        probs = np.zeros(len(self.paths))
        for positions, matrix in self.blocks:
            probs[positions] = matrix.diagonal().real
        return probs

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        # each path's slot (one per row of a block), its index in the slot's
        # matrix, and the matrix of every slot
        n = len(self.paths)
        slot = np.zeros(n, dtype=np.int64)
        local = np.zeros(n, dtype=np.int64)
        matrices = []
        for positions, matrix in self.blocks:
            for row in positions:
                slot[row] = len(matrices)
                local[row] = np.arange(len(row))
                matrices.append(matrix)
        return slot, local, matrices

    def _row(self, path: Sequence[str]) -> int | None:
        # the row of path's checked words, or None; each sorted column narrows the match
        want = self.paths.shape[1]
        key = tuple(path)
        if len(key) != want:
            raise ParameterError(
                f"{self.kind}-kind paths have {want} window value(s), got {len(key)}"
            )
        kept = self.block.graining.kept
        key = [int(check_word(word, kept, "each path entry"), 2) for word in key]
        lo, hi = 0, len(self.paths)
        for column, word in zip(self.paths.T, key):
            lo, hi = lo + np.searchsorted(column[lo:hi], [word, word + 1])
        return int(lo) if lo < hi else None


def _path_keys(frame: _Frame, tables: np.ndarray, codes: np.ndarray):
    """Sorted path words, and the (omega, key) array of each (table, code) key's position.

    A key's word at a recorded step is that step's window value (a digit of
    the path code, the first step's least significant) in reversed
    significance above the step's definite word, read with the table as the
    group.  The (table, code) pairs are unique; their keys are listed once
    per omega, omega-major.  A step's words have one width, so rows sorted
    first step first are in the order of their word strings.
    """
    h_mask = (1 << frame.qwidth) - 1
    shift = frame.left + frame.kept - frame.dot  # definite word width
    heads = np.array([_rev_int(format(h, f"0{frame.qwidth}b")) << shift for h in range(h_mask + 1)])
    groups = range(int(tables.max(initial=0)) + 1)
    words = np.empty((len(frame.recorded), 1 << frame.nomega, len(codes)), dtype=np.int64)
    for i, j in enumerate(frame.recorded):
        head = heads[codes >> frame.qwidth * i & h_mask]
        for omega in range(1 << frame.nomega):
            definite = np.array([frame.definite_word(j, g, omega) for g in groups])
            np.bitwise_or(head, definite[tables], out=words[i, omega])
    words = words.reshape(len(frame.recorded), -1)
    order = np.lexsort(words[::-1])
    return words.T[order], np.argsort(order).reshape(1 << frame.nomega, -1)


def propagate_branches(
    block: BlockInitialState,
    steps: int,
    prune_eps: float = 1e-12,
    *,
    kind: str = "full",
    threads: int = 1,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> BranchEnsemble:
    """Propagate a block initial state and collect branch overlaps per history.

    kind="full" records a window value after every step; kind="coarse"
    records only the final one (no intermediate splitting, so superpositions
    interfere freely before the single projection).  Branches whose squared
    norm falls below prune_eps are dropped and their mass booked as
    discarded.  threads parallelizes over (group, a-chunk) units without
    changing any reduction order, so results are bit-identical at any
    thread count.  A run whose projected peak memory (see _estimate_bytes)
    exceeds budget_bytes is refused with ResourceLimitError.
    """
    graining = block.graining
    validate_run(graining, steps)
    if kind not in ("full", "coarse"):
        raise ParameterError(f"kind must be 'full' or 'coarse', got {kind!r}")
    if not prune_eps >= 0:
        raise ParameterError(f"prune_eps must be >= 0, got {prune_eps}")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    shape = graining.shape
    frame = _Frame(shape.qubits, shape.dot, graining.left, graining.kept, steps, block.window, kind)
    items = _estimate_bytes(frame, threads)
    total = sum(size for _, size in items)
    if total > budget_bytes:
        what, size = max(items, key=lambda item: item[1])
        raise ResourceLimitError(
            f"projected peak {_byte_count(total)} bytes is over budget {budget_bytes} "
            f"(largest item: {what}, {_byte_count(size)} bytes)"
        )

    low_total, chunk, mirror = 1 << frame.left, frame.chunk, frame.mirror
    units = [(group, a_lo, a_lo + chunk) for group in range(mirror or 1 << frame.freeq)
             for a_lo in range(0, low_total, chunk)]

    frame.step1  # built once, here, before the pool's threads view it
    local = threading.local()  # one _Workspace per pool thread

    def run(unit: tuple[int, int, int]):
        local.ws = getattr(local, "ws", None) or _Workspace()
        return _run_unit(frame, prune_eps, unit, local.ws)

    weight = 2.0 ** -(frame.left + steps)
    block_weight = weight if frame.dense else weight * 2  # halved blocks are in half units
    last_place = frame.last_place
    group_disc = np.zeros((1 << frame.freeq, low_total))
    cross = 0.0
    # a block's head: its key table (its group, or 0 when groups share one) above
    # its last window value h; seen[table, h] marks its paths' places some unit kept
    per_group = (1 << frame.qwidth, last_place)
    seen = np.zeros((1 if frame.shared_keys else len(group_disc),) + per_group, dtype=bool)
    # acc[group, h] sums a grown group's units' gram[h] at their codes' places
    acc = np.zeros((mirror or len(group_disc),) + per_group + (last_place,), dtype=np.complex128)

    def add(group, a_lo, a_hi, disc, unit_cross, codes, keep, gram) -> None:
        nonlocal cross
        # a mirrored unit's partner group has its masses (module docstring)
        group_disc[[group, group | mirror], a_lo:a_hi] = disc
        cross += 2.0 * unit_cross if mirror else unit_cross
        seen[0 if frame.shared_keys else group][:, codes] |= keep
        # the rows keep drops are zero in gram, so adding them changes nothing; a
        # unit that kept every code adds by slice, sparing the fancy add's copy
        places = np.s_[:] if len(codes) == last_place else np.s_[:, codes[:, None], codes]
        acc[group][places] += gram

    # each unit is added in unit order as it finishes, then freed with add's
    # frame, and only then is the unit `ahead` places later submitted
    ahead = _AHEAD * threads
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run, unit) for unit in units[:ahead]]
        for k, unit in enumerate(units):
            add(*unit, *futures.pop(0).result())
            if k + ahead < len(units):
                futures.append(pool.submit(run, units[k + ahead]))

    # XOR to a partner head (0 if unmirrored): the top bit of the last window value
    # and, unless the groups share a table, the top group bit; it keeps its group's codes
    twin = mirror and (0 if frame.shared_keys else mirror << frame.qwidth) | 1 << frame.qwidth - 1
    seen = seen.reshape(-1, last_place)  # one row per head
    seen |= seen[np.arange(len(seen)) ^ twin]
    keys = np.flatnonzero(seen)  # a key table above a path code
    paths, where = _path_keys(frame, *np.divmod(keys, last_place << frame.qwidth))
    # units summed in unit order from 0 scale exactly by a power of two; a shared table
    # adds its groups' matrices, then their partners' (h's top bit flipped), in group order
    acc *= block_weight
    if frame.shared_keys:
        partners = (m[np.arange(len(m)) ^ len(m) >> 1] for m in acc) if mirror else ()
        acc = reduce(np.add, itertools.chain(acc, partners))
    # a block keeps its seen codes, a view when it kept them all; a partner
    # group's head, past the grown ones, is its group's matrix
    heads = acc.reshape(-1, last_place, last_place)
    matrices = [m if s.all() else m[np.ix_(s, s)] for m, s in zip(heads, seen)]
    for matrix in matrices:
        matrix.flags.writeable = False
    matrices += [matrices[head ^ twin] for head in range(len(matrices), len(seen))]
    blocks = [(where[:, lo:hi], matrices[head]) for head, lo, hi in _runs(keys // last_place)]

    return BranchEnsemble(
        block=block,
        steps=steps,
        kind=kind,
        prune_eps=prune_eps,
        paths=paths,
        blocks=tuple(blocks),
        discarded_total=weight * float(group_disc.sum()) * (1 << frame.nomega),
        cross_bound=weight * cross * (1 << frame.nomega),
    )


def full_dfunc(ensemble: BranchEnsemble, ys: Sequence[str], zs: Sequence[str]) -> complex:
    """Decoherence functional entry between two per-step window histories.

    A gram entry: 0 where either path is absent or the two share no block.
    """
    if ensemble.kind != "full":
        raise ParameterError("full_dfunc needs a kind='full' ensemble")
    yi, zi = ensemble._row(ys), ensemble._row(zs)
    slot, local, matrices = ensemble._lookup
    if yi is None or zi is None or slot[yi] != slot[zi]:
        return 0j
    return complex(matrices[slot[yi]][local[yi], local[zi]])


def coarse_dfunc(ensemble: BranchEnsemble, y: str, z: str) -> complex:
    """Functional entry between two final-step-only window histories.

    Sums the Gram submatrix over the paths ending in y and in z, each side
    independently: on a kind='full' ensemble over all intermediate window
    values, on a kind='coarse' one the single entry of one path each.
    """
    kept = ensemble.block.graining.kept
    return _coarse_sum(ensemble, *(int(check_word(w, kept, "window value"), 2) for w in (y, z)))


def _coarse_sum(ensemble: BranchEnsemble, y: int, z: int) -> complex:
    """coarse_dfunc between the final window values y and z as integers."""
    finals = ensemble.paths[:, -1]
    rows, cols = np.flatnonzero(finals == y), np.flatnonzero(finals == z)
    # gram[np.ix_(rows, cols)], zeros included, so the sum adds what the
    # dense submatrix would
    slot, local, matrices = ensemble._lookup
    sub = np.zeros((rows.size, cols.size), dtype=np.complex128)
    for s in set(slot[rows].tolist()) & set(slot[cols].tolist()):
        ri = np.flatnonzero(slot[rows] == s)
        ci = np.flatnonzero(slot[cols] == s)
        sub[np.ix_(ri, ci)] = matrices[s][np.ix_(local[rows[ri]], local[cols[ci]])]
    return complex(sub.sum())


def history_distribution(ensemble: BranchEnsemble, kind: str | None = None) -> HistoryDistribution:
    """Probabilities over histories, clipping FP dust and checking conservation."""
    kind = ensemble.kind if kind is None else kind
    if kind not in ("full", "coarse"):
        raise ParameterError(f"kind must be 'full' or 'coarse', got {kind!r}")
    if kind == ensemble.kind:
        paths = ensemble.paths
        probs = ensemble.probabilities
        marginal = False
    elif ensemble.kind == "full" and kind == "coarse":
        finals = sorted(set(ensemble.paths[:, -1].tolist()))
        paths = np.array(finals, dtype=np.int64).reshape(-1, 1)
        probs = np.array([_coarse_sum(ensemble, w, w).real for w in finals])
        marginal = True
    else:
        raise ParameterError("cannot refine a kind='coarse' ensemble into full histories")
    low = probs.min(initial=0.0)
    if low < -_NEGATIVE_CLIP:
        raise InvariantError(f"history probability {low} below -{_NEGATIVE_CLIP}")
    np.clip(probs, 0.0, None, out=probs)
    total = float(probs.sum() + ensemble.discarded_total)
    tol = 1e-9 if ensemble.prune_eps > 0 else 1e-10
    if marginal:
        # per label the marginal is |psi - E|**2, psi the unpruned final state
        # and E the pruned branches carried to the last step, so with the
        # discarded mass d it misses 1 by at most d + 2|E| + |E|**2
        # (Cauchy-Schwarz), and |E| <= S (Minkowski)
        tol += ensemble.discarded_total + ensemble.cross_bound
    if abs(total - 1.0) > tol:
        raise InvariantError(
            f"probability plus discarded mass sums to {total}, expected 1 within {tol}"
        )
    return HistoryDistribution(
        paths=paths, probabilities=probs, discarded=ensemble.discarded_total
    )


def entropy_bits(dist: HistoryDistribution) -> float:
    """Shannon entropy of the retained histories, in bits.

    Probabilities at or below 1e-15 are excluded: they are FP dust whose
    p*log2(p) contribution is far below every tolerance used here.
    """
    acc = 0.0
    for p in dist.probabilities.tolist():
        if p > _ENTROPY_FLOOR:
            acc -= p * math.log2(p)
    return acc


def offdiagonal_norm(ensemble: BranchEnsemble) -> tuple[float, float]:
    """Max and rms size of the off-diagonal functional entries over retained paths.

    Both read each block matrix once.  The rms sums the squares with
    math.fsum, which rounds the exact sum once whatever the order of its
    terms; a matrix shared by a power-of-two number of position rows counts
    each square that many times by one exact multiplication.  math.fsum
    reads one block's squares at a time, as Python floats 4096 at a time.
    """
    n = len(ensemble.paths)
    if n < 2:
        return 0.0, 0.0
    off_max = 0.0

    def squares():
        nonlocal off_max
        for positions, matrix in ensemble.blocks:
            mags = np.abs(matrix)
            np.fill_diagonal(mags, 0.0)
            off = mags[mags > 0]
            del mags
            off_max = max(off_max, float(off.max(initial=0.0)))
            off *= off
            off *= len(positions)
            for start in range(0, len(off), 4096):
                yield off[start : start + 4096].tolist()

    total = math.fsum(itertools.chain.from_iterable(squares()))
    return off_max, math.sqrt(total / (n * (n - 1)))


def ideal_coarse_value(x: str, y: str, steps: int) -> float:
    """Asymptotic final-window probability: 2**-steps if y equals x, else 0.

    x is the surviving core of the initial window after `steps` shifts; y is
    the corresponding core of the candidate final window.
    """
    if len(x) != len(y):
        raise ParameterError(f"cores must have equal length, got {len(x)} and {len(y)}")
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    return 2.0**-steps if x == y else 0.0


def ideal_full_value(x: str, ys: Sequence[str], zs: Sequence[str]) -> float:
    """Asymptotic per-step functional: diagonal, shift-chained, value 2**-steps.

    Nonzero only when ys == zs, the first window continues x with one bit
    dropped and one appended, and each later window continues its
    predecessor the same way.
    """
    width = len(x)
    ys = tuple(ys)
    zs = tuple(zs)
    if len(ys) != len(zs):
        raise ParameterError(f"histories must have equal length, got {len(ys)} and {len(zs)}")
    for word in ys + zs:
        if len(word) != width:
            raise ParameterError(
                f"every window value must have the initial window's width {width}"
            )
    if ys != zs:
        return 0.0
    chain = (x,) + ys
    for prev, cur in zip(chain, chain[1:]):
        if cur[: width - 1] != prev[1:]:
            return 0.0
    return 2.0 ** -len(ys)

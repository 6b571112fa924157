"""Branch ensembles over coarse-grained label histories and their functionals.

A block initial state is propagated as an ensemble of pure dot-basis labels.
One map step factors into a unitary kernel K acting on the dot-adjacent
label bits and a pure left shift of the trailing bits.  K is F_M^dagger
applied to each half of F_2M, two half-integer DFTs with M = 2**dot (see
bakermap.transfer_kernel), so it has a closed form and an FFT form:

* step 1 needs one kernel column per initial label, built from the closed
  form (bakermap.kernel_columns);
* later steps apply a block of w columns to every live row.  When
  w >= W (= _FFT_MIN_WIDTH, 256) that is one length-2M inverse FFT and two
  length-M FFTs per row (bakermap.apply_columns); narrower blocks multiply
  the dense transfer_kernel(dot), which is faster there.  w is
  2**left on kind "full" and 2**dot on kind "coarse" (_Frame.width).  Step
  1's kernel column c has K[M + r, c] = K[r, c] * 1j*(-1)**c, and every
  later step maps both halves of the fresh register alike, so a label's
  step-1 fresh-bit-1 half stays its bit-0 half times that unit phase, with
  equal |amplitude|**2 and overlap terms.  A run that builds no dense
  kernel (_needs_kernel) is halved: its units carry the bit-0 half only,
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
  the group's.  Such a run (_Frame.mirror) grows only the groups below the
  top bit and adds each unit in twice, the second time as its partner with
  that bit of its codes' last window value flipped.  The dense arm, the
  narrow-geometry oracle, grows every group.

Under the standing inequalities left < dot, right < qubits - dot,
steps < right the trailing right - steps label bits ride along untouched.
The ensemble therefore collapses onto 2**(left + steps) distinct active
labels, each standing for 2**(right - steps) identical spectator copies, and
every probability and functional value computed here is exact, not
approximate.  Tests compare the reduced register against dense-matrix
evaluation at small sizes.

Labels are propagated in (group, a-chunk) units.  A chunk is 64 labels, or
all 2**left when fewer, halved while a unit's last step output (rows x
labels x stored fresh values x 2M, _Frame.step_output) would be over
16 MiB; that output doubles with every step, and labels evolve and are
pruned independently, so the split changes nothing but the order of the
label sums.  A unit stores steps 1..steps-1 whole, in the two buffers of
its thread's reused step workspace.  Its last step is never stored whole:
it runs _Frame.block labels at a time, a block's output at most 2 MiB
unless one label alone is larger, and each block is folded at once into
the per-label masses, the rows' keep mask and one Gram accumulator per
last window value; on the FFT arm a unit that enters the step with one row
takes its 1 x 1 blocks from the norms.  No branch vector is kept, so a
thread holds two buffers, each the larger of the penultimate output
(1/(2h) of the last one on kind "full", h = 2**qwidth, and 1/2 on kind
"coarse") and one block, beside a block's two Gram operands; then come the
path Gram blocks.  Moving the block bound moves outputs only in the order
of each Gram entry's label sum.  A path code's digits are its window
values, the newest most significant, so a unit's rows are in code order.
A row's key is a key table (its group, or 0 for every group on kind
"coarse", whose final window reads no group bit) above its code.  Paths
that differ in their group, omega or last window value are orthogonal, so
the n x n matrix is never formed; each (table, last window value) is a
block of it, shared by 2**nomega omegas, in which a path's place is its
code's lower digits.  Units are added in unit order as they finish, then
freed, and for a shared table in group order; a block keeps the codes
some unit kept.

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

import bisect
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .bakermap import _bit0_columns, apply_columns, kernel_columns, transfer_kernel
from .coarsegrain import BlockInitialState, validate_run
from .core import DEFAULT_BUDGET_BYTES, check_word
from .errors import InvariantError, ParameterError, ResourceLimitError

FullPath = tuple[str, ...]

# most initial labels (a-axis entries) in one unit
_CHUNK = 64
# a unit's last step output, which is never stored whole, may exceed this
# many bytes only at one label; so it also bounds the stored steps before it
_OUT_CAP = 16 << 20
# a block of a unit's streamed last step may output more bytes than this
# only at one label.  Six interleaved perfbench runs each (2-vCPU VM, numpy
# 2.4): at 2 MiB step-entropy read cpu_s 2.28 s against 2.35 s at 1 MiB and
# 2.44 s unstreamed, at 55 MiB peak RSS either way, and flank-sweep was
# level; single runs at 512 KiB took 2.41 s, and at 4 MiB peaked at 58 MiB
_BLOCK_BYTES = 1 << 21
# contractions at least this many columns wide go through the FFT, narrower
# ones through the dense kernel (W in the module docstring)
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
# Python objects per thread of a small run: the executor, frames and unit lists
_RUN_BYTES = 32 << 10
# Python objects per unit until the reduction: its future, result tuple and
# array headers (about 1.2 KiB measured with tracemalloc)
_UNIT_BYTES = 1536
# a Gram block's array header and its (lo, block) tuple
_BLOCK_OBJECT_BYTES = sys.getsizeof(np.empty((0, 0))) + sys.getsizeof((0, None))
_ENTROPY_FLOOR = 1e-15
_NEGATIVE_CLIP = 1e-12


def _rev_int(bits: str) -> int:
    """Reversed-significance reading: the first character is the low bit."""
    return int(bits[::-1], 2) if bits else 0


def _rev_bits(value: int, width: int) -> str:
    """Inverse of _rev_int."""
    return format(value, f"0{width}b")[::-1] if width else ""


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
        return self.place(j) * labels << j + self.dot - (not _needs_kernel(self))

    @property
    def chunk(self) -> int:
        # initial labels per unit: _CHUNK, halved while the unit's last step
        # output, which is streamed, would be over _OUT_CAP, so the stored
        # penultimate output is at most half of that.  The geometry alone
        # picks it, so reductions group identically at any thread count
        chunk = min(_CHUNK, 1 << self.left)
        while chunk > 1 and 16 * self.step_output(self.steps, chunk) > _OUT_CAP:
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
        return 0 if _needs_kernel(self) else (1 << self.freeq) >> 1

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

    def definite_word(self, j: int, group: int, omega: int) -> str:
        """Window bits at step j that come from definite label positions."""
        lo = self.dot + 1 + j
        hi = self.left + self.kept + j
        return "".join(
            str(self.label_bit(p, group, omega)) for p in range(lo, hi + 1)
        )


def _needs_kernel(frame: _Frame) -> bool:
    """Whether a run has contractions narrower than _FFT_MIN_WIDTH, so builds transfer_kernel."""
    return frame.steps > 1 and frame.width < _FFT_MIN_WIDTH


def _estimate_bytes(frame: _Frame, threads: int) -> list[tuple[str, int]]:
    """Upper bounds on what one run holds at once, by item, ignoring pruning.

    Every thread in flight holds a _Workspace: two buffers, each the larger
    of the penultimate step's output as stored (its window-major copy is as
    large), which _Frame.chunk bounds, and one block of the streamed last
    step's output, which _Frame.block bounds.  Beside them it holds the last
    step's two Gram operands (a window value's rows of one block and their
    conjugate) and Gram accumulator, and a step's largest transient: step
    1's kernel columns, or on the dense arm the np.tensordot result, the
    copy it makes of a block's strided input, and the copy of its kernel
    column block.  On the FFT arm the twiddle loop buffers come per thread;
    np.fft's in-place transforms copy nothing (numpy 2.4, traced).  The dense
    kernel or the build of the FFT's cached twiddles, the path Gram blocks
    and the arrays and path keys of the reduction come once.
    """
    itemsize = 16
    two_m = 2 << frame.dot
    h = 1 << frame.qwidth
    a = frame.chunk
    # rows entering the last step, and live rows after it
    rows = frame.last_place
    rows_final = h * rows
    penultimate = frame.step_output(frame.steps - 1, a) if frame.steps > 1 else 0
    block = frame.step_output(frame.steps, frame.block)
    dense = _needs_kernel(frame)
    # step 1's transient: g (its build holds about 4 copies), plus all 2M rows when dense
    transient = 5 * (a + two_m) + dense * a * two_m
    if dense:
        transient = max(transient, penultimate, 2 * block) + frame.width * two_m
    unit = 2 * max(penultimate, block) + 2 * block // h + h * rows**2 + transient
    groups = 1 << frame.freeq
    # units that run: on a mirrored run only the groups below the top bit
    n_units = (frame.mirror or groups) * ((1 << frame.left) // a)
    in_flight = min(threads, n_units)
    # path keys: one table per group, or one that every group shares
    tables = 1 if frame.shared_keys else groups
    n_paths = tables * (1 << frame.nomega) * rows_final
    # every unit's path codes, discarded masses and Gram blocks (h runs of
    # `rows` paths), as pool.map lets all finished units wait, the norms and S
    # of the units in flight, the reduced unit's keys (with, on a mirrored
    # run, its partner's codes and keys beside them), the seen mask (a byte
    # per table code) and its kept keys with three arrays derived at once, and
    # one block's places with its gather copy and sum
    held = n_units * (
        rows_final * (rows * itemsize + 8) + a * 8 + h * _BLOCK_OBJECT_BYTES + _UNIT_BYTES
    )
    key_arrays = 3 if frame.mirror else 1
    held += in_flight * (2 * rows_final + 1) * a * 8 + rows_final * (8 * key_arrays + tables * 33)
    held += rows * 8 + 2 * rows**2 * itemsize
    # h blocks of `rows` paths per group (1 x 1 blocks on kind "coarse",
    # which add up across groups), each path's position in its block and the
    # functionals' two lookup arrays
    blocks = groups * h * (rows**2 * itemsize + 2 * _BLOCK_OBJECT_BYTES) + n_paths * 3 * 8
    # per key: the string and index arrays of its sort, its joined string,
    # and its tuple of word strings
    words = len(frame.recorded)
    width = words * frame.kept
    key = sys.getsizeof(("",) * words) + words * sys.getsizeof("0" * frame.kept)
    held += n_paths * (16 * width + 24 + sys.getsizeof("0" * width) + key)
    built = []
    if dense:
        built.append(("transfer kernel", two_m * two_m * itemsize))
    elif frame.steps > 1:
        # building apply_columns' cached pre, mid, post holds 6M entries in a few arrays
        built.append(("step twiddles", 3 * two_m * itemsize + 6 * _BLOCK_OBJECT_BYTES))
        # a twiddle multiply's buffered loop (at most 263600 bytes, measured)
        built.append(("twiddle loop buffers", (2 * np.getbufsize() + 128) * itemsize * in_flight))
    return built + [
        ("step workspace", unit * itemsize * in_flight),
        ("path gram blocks", blocks),
        ("path bookkeeping", held + _RUN_BYTES * in_flight),
    ]


def _byte_count(n: int) -> str:
    # exact below 2**64; an absurd geometry's sizes grow as 2**(qwidth * steps),
    # hundreds of digits, so past that only their power of two is printed
    return str(n) if n < 1 << 64 else f"at least 2**{n.bit_length() - 1}"


class _Workspace:
    """Two flat complex buffers one thread reuses for every unit it runs, so a
    run touches the same pages however its threads interleave."""

    def __init__(self):
        self._bufs = [np.empty(0, dtype=np.complex128)] * 2

    def take(self, shape: tuple[int, ...], busy: np.ndarray | None = None) -> np.ndarray:
        """A C-contiguous array of `shape` in a buffer that does not hold `busy`."""
        n = math.prod(shape)
        i = int(busy is not None and np.may_share_memory(self._bufs[0], busy))
        if self._bufs[i].size < n:
            self._bufs[i] = None  # free the old buffer before the new one exists
            self._bufs[i] = np.empty(n, dtype=np.complex128)
        return self._bufs[i][:n].reshape(shape)


def _runs(h_last: np.ndarray):
    """(value, lo, hi) for each run of equal values in the sorted h_last."""
    starts = np.flatnonzero(np.diff(h_last, prepend=-1))
    ends = np.append(starts[1:], len(h_last))
    return zip(h_last[starts].tolist(), starts.tolist(), ends.tolist())


def _split(out: np.ndarray, frame: _Frame, halved: bool):
    """A step output's children by window value, and their norms.

    The output composite index is fresh_bit * M + momentum' (bit 0 only at a
    halved step 1), the fresh bit joining the register as its lowest digit,
    and momentum' = child * 2**left + low digits.  Returns out as (row, a,
    fresh, child, low) and the (child, row, a) norms, doubled on a halved
    unit (module docstring) so that pruning judges a label by its whole norm.
    """
    rows_n, a_width, f_width, width = out.shape
    children = (1 << frame.qwidth, 1 << frame.left)
    split = out.reshape((rows_n, a_width, f_width * width >> frame.dot) + children)
    flat = split.view(np.float64)
    norms = np.einsum("rafhl,rafhl->hra", flat, flat)
    norms *= 2.0 if halved else 1.0  # exact: a bit-1 term equals a bit-0 one
    return split, norms


def _prune(norms: np.ndarray, prune_eps: float, disc: np.ndarray, root: np.ndarray):
    """Book the (child, row, a) branches whose norm is under prune_eps.

    Adds each label's pruned norms to disc and their roots to root, in
    place; returns the mask of pruned branches, or None when there are none.
    """
    if prune_eps > 0:
        kill = norms < prune_eps
        if kill.any():
            dead = np.where(kill, norms, 0.0)
            disc += dead.sum(axis=(0, 1))
            root += np.sqrt(dead, out=dead).sum(axis=(0, 1))
            return kill
    return None


def _step(
    kernel: np.ndarray | None,
    frame: _Frame,
    j: int,
    group: int,
    labels: range,
    amp: np.ndarray | None,
    runs,
    ws: _Workspace,
) -> np.ndarray:
    """Step j's output for a range of initial labels, (row, a, fresh, 2M or M).

    Step 1 takes the labels' kernel columns (their fresh-bit-0 half on a
    halved run); a later step contracts amp, the step j-1 amplitudes of the
    same labels, one run of rows (_step_runs) at a time.  The output goes
    into the ws buffer that does not hold amp.
    """
    m = 1 << frame.dot
    halved = kernel is None
    feed = frame.label_bit(frame.dot + j, group, 0)  # never an omega bit
    if j == 1:
        start = feed * m + (_rev_int(frame.window[: frame.qwidth]) << frame.left)
        columns = _bit0_columns if halved else kernel_columns
        out = ws.take((1, len(labels), 1, m if halved else 2 * m))
        out[0, :, 0] = columns(frame.dot, start + labels.start, start + labels.stop).T
        return out
    rows_n, _, f_width, _ = amp.shape
    out = ws.take((rows_n, len(labels), f_width, 2 * m), busy=amp)
    return _contract_rows(amp, kernel, frame.dot, feed, runs, out)


def _step_runs(frame: _Frame, j: int, codes: np.ndarray) -> list[tuple[int, int, int]]:
    """(value, lo, hi) for each run of rows entering step j that shares a column block.

    Rows share the momentum block of their newest window value (the code's
    leading digit); a row not yet split by a recorded window has code 0 and
    holds the whole momentum register.
    """
    return list(_runs(codes * (1 << frame.qwidth) // frame.place(j)))


def _grow_unit(
    kernel: np.ndarray | None,
    frame: _Frame,
    prune_eps: float,
    unit: tuple[int, int, int],
    ws: _Workspace,
    steps: int,
):
    """Propagate one (group, a_lo, a_hi) unit of initial labels for its first `steps` steps.

    Amplitudes are held as (row, a, fresh, momentum) in the two buffers of
    ws, each step writing the buffer its input does not use; the returned
    amplitudes (None after 0 steps) last until ws runs another unit.
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
        amp = _step(kernel, frame, j, group, labels, amp, _step_runs(frame, j, codes), ws)
        if j not in frame.recorded:
            amp = amp.reshape(amp.shape[:2] + (-1, 1 << frame.dot))
            continue
        # split children into window-value-major rows, so equal last values stay adjacent
        split, norms = _split(amp, frame, kernel is None)
        kill = _prune(norms, prune_eps, disc, root)
        h_count, rows_n = norms.shape[:2]
        amp = ws.take((h_count,) + split.shape[:3] + split.shape[4:], busy=split)
        np.copyto(amp, np.moveaxis(split, 3, 0))
        del split
        if kill is not None:
            amp[kill] = 0
        amp = amp.reshape((h_count * rows_n,) + amp.shape[2:])
        codes = (np.arange(h_count)[:, None] * frame.place(j) + codes).reshape(-1)
        if prune_eps > 0:
            keep = (norms >= prune_eps).any(axis=2).reshape(-1)
            if not keep.all():
                # mode="clip" fills kept directly; "raise" would buffer a copy
                kept = ws.take((int(keep.sum()),) + amp.shape[1:], busy=amp)
                amp = np.take(amp, np.flatnonzero(keep), axis=0, out=kept, mode="clip")
                codes = codes[keep]
    return disc, root, codes, amp


def _contract_rows(
    amp: np.ndarray,
    kernel: np.ndarray | None,
    dot: int,
    feed: int,
    runs,
    out: np.ndarray,
) -> np.ndarray:
    """Apply one step's kernel columns along amp's last axis into out, run by run.

    Rows in a run of equal last window value take the same column block, a
    contiguous slice of amp and of out.  kernel is the dense transfer_kernel(dot)
    on narrow runs, else None and the columns go by FFT to the halved unit.
    """
    m = 1 << dot
    width = amp.shape[-1]
    for h, lo, hi in runs:
        start = feed * m + h * width
        if kernel is None:
            apply_columns(amp[lo:hi], dot, start, out=out[lo:hi])
        else:
            cols = kernel[:, start : start + width]
            out[lo:hi] = np.tensordot(amp[lo:hi], cols, axes=([3], [1]))
    return out


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


def _run_unit(
    kernel: np.ndarray | None,
    frame: _Frame,
    prune_eps: float,
    unit: tuple[int, int, int],
    ws: _Workspace,
):
    """Grow one unit, streaming its last step into norms and Gram blocks.

    Steps 1..steps-1 run as _grow_unit.  The last step runs _Frame.block
    labels at a time, and each block is folded at once into the per-label
    masses, the per-row keep mask and one Gram accumulator per last window
    value; rows nobody keeps are dropped at the end.  Returns the per-label
    discarded mass, the sum over labels of 2S + S**2 (S the sum of a label's
    pruned norms' roots), the path codes (_grow_unit's, one more digit), and
    one (lo, block) per run of equal last window value (the codes' leading
    digit), where block[i, j] is the overlap of the paths in rows lo + i and
    lo + j (half of it on a halved unit); paths in different runs are
    orthogonal.  All in norm units: ensemble weights are applied by the caller.
    """
    halved = kernel is None
    j = frame.steps
    disc, root, codes, amp = _grow_unit(kernel, frame, prune_eps, unit, ws, j - 1)
    group, a_lo, a_hi = unit
    h_count, rows_n = 1 << frame.qwidth, len(codes)
    runs = _step_runs(frame, j, codes)
    gram = np.zeros((h_count, rows_n, rows_n), dtype=np.complex128)
    keep = np.full((h_count, rows_n), prune_eps == 0)
    # a one-row block is the sum of its labels' halved norms; the dense arm,
    # the narrow-geometry oracle, forms every block as a product, whose MACs
    # perfbench's dense_equiv_gflop counter counts
    from_norms = rows_n == 1 and halved
    if not from_norms:
        # the product operands: one window value's rows of a block, and their conjugate
        width = frame.step_output(j, frame.block) // (frame.place(j) << frame.qwidth)
        sub, conj = (np.empty((rows_n, width), dtype=np.complex128) for _ in range(2))
    for lo in range(0, a_hi - a_lo, frame.block):
        hi = lo + frame.block
        part = None if amp is None else amp[:, lo:hi]
        out = _step(kernel, frame, j, group, range(a_lo + lo, a_lo + hi), part, runs, ws)
        split, norms = _split(out, frame, halved)
        kill = _prune(norms, prune_eps, disc[lo:hi], root[lo:hi])
        if prune_eps > 0:
            keep |= (norms >= prune_eps).any(axis=2)
        if from_norms:
            if kill is not None:
                norms[kill] = 0.0
            gram[:, 0, 0] += norms[:, 0].sum(axis=1) * 0.5
            continue
        for h in range(h_count):
            gathered = sub.reshape(split[:, :, :, h].shape)
            np.copyto(gathered, split[:, :, :, h])
            if kill is not None:
                gathered[kill[h]] = 0
            gram[h] += _overlaps(sub, np.conjugate(sub, out=conj))
    blocks, lo = [], 0
    for h in range(h_count):
        rows = np.flatnonzero(keep[h])
        if rows.size:
            blocks.append((lo, gram[h] if rows.size == rows_n else gram[h][np.ix_(rows, rows)]))
            lo += rows.size
    codes = (np.arange(h_count)[:, None] * frame.last_place + codes)[keep]
    return disc, float((root * (2.0 + root)).sum()), codes, blocks


@dataclass
class HistoryDistribution:
    """Retained history probabilities plus the total pruned-away mass."""

    paths: tuple[FullPath, ...]
    probabilities: np.ndarray
    discarded: float

    def total(self) -> float:
        return float(self.probabilities.sum() + self.discarded)


@dataclass
class BranchEnsemble:
    """Path overlaps and pruned mass from one propagation run.

    `paths` is sorted lexicographically.  The path Gram matrix G, whose
    entry G[i, j] is the decoherence functional value between paths[i]
    (ket side) and paths[j] (bra side), is kept as its nonzero blocks: each
    of `blocks` is (positions, matrix), and for every row p of the 2-D
    positions array G[p[a], p[b]] = matrix[a, b].  Entries between paths in
    different rows or blocks are zero.  A block's rows are omegas sharing the
    matrix of one (group, last window value) on kind "full", and of one last
    window value, summed over the groups and so 1 x 1, on kind "coarse".
    Blocks are in (group, last window value) order, and a block's paths in
    path-code order, the newest window value most significant.
    `cross_bound` sums weight * (2S + S**2) over labels, S the sum of a
    label's pruned branch norms (see history_distribution).
    """

    block: BlockInitialState
    steps: int
    kind: str
    prune_eps: float
    paths: tuple[FullPath, ...]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    discarded_total: float
    cross_bound: float
    _frame: _Frame = field(repr=False)

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

    @cached_property
    def _finals(self) -> np.ndarray:
        # final window word of every path
        return np.array([p[-1] for p in self.paths], dtype=str)

    def _check_path(self, path: Sequence[str]) -> FullPath:
        want = len(self._frame.recorded)
        key = tuple(path)
        if len(key) != want:
            raise ParameterError(
                f"{self.kind}-kind paths have {want} window value(s), got {len(key)}"
            )
        for word in key:
            check_word(word, self._frame.kept, "each path entry")
        return key


def _path_keys(frame: _Frame, tables: np.ndarray, codes: np.ndarray):
    """Sorted path keys, and the position of each (omega, table, code) key.

    A key's word at a recorded step is that step's window value (a digit of
    the path code, the first step's least significant) in reversed
    significance, then the step's definite word, read with the table as the
    group.  The (table, code) pairs are unique; their keys are listed once
    per omega, omega-major.
    """
    h_count = 1 << frame.qwidth
    heads = [_rev_bits(h, frame.qwidth) for h in range(h_count)]
    groups = range(int(tables.max(initial=0)) + 1)
    keys = []
    for omega in range(1 << frame.nomega):
        key = np.zeros(len(codes), dtype="U1")
        for i, j in enumerate(frame.recorded):
            words = [[h + frame.definite_word(j, g, omega) for h in heads] for g in groups]
            key = key + np.array(words)[tables, codes // h_count**i % h_count]
        keys.append(key)
    # the words have equal widths, so joined keys sort as the key tuples do
    joined, where = np.unique(np.concatenate(keys), return_inverse=True)
    k = frame.kept
    paths = tuple(tuple(w[i : i + k] for i in range(0, len(w), k)) for w in joined.tolist())
    return paths, where


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

    kernel = transfer_kernel(shape.dot) if _needs_kernel(frame) else None
    low_total, chunk, mirror = 1 << frame.left, frame.chunk, frame.mirror
    units = [
        (group, a_lo, a_lo + chunk)
        for group in range(mirror or 1 << frame.freeq)
        for a_lo in range(0, low_total, chunk)
    ]

    local = threading.local()  # one _Workspace per pool thread

    def run(unit: tuple[int, int, int]):
        local.ws = getattr(local, "ws", None) or _Workspace()
        return _run_unit(kernel, frame, prune_eps, unit, local.ws)

    weight = 2.0 ** -(frame.left + steps)
    block_weight = weight * 2 if kernel is None else weight  # halved blocks are in half units
    last_place = frame.last_place
    span = last_place << frame.qwidth  # path codes per key table
    group_disc = np.zeros((1 << frame.freeq, low_total))
    cross = 0.0
    # a key: its key table (its group, or 0 when the groups share one) above its
    # path code; key // last_place heads its block, and the code's lower digits
    # are its place in the block
    seen = np.zeros((1 if frame.shared_keys else 1 << frame.freeq) * span, dtype=bool)
    accs = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # each unit is added in as it finishes, in unit order, and then freed
        for (group, a_lo, a_hi), result in zip(units, pool.map(run, units)):
            disc, unit_cross, codes, unit_blocks = result
            twins = [(group, codes)]
            if mirror:
                # its partner: the top group bit set and the top bit of each
                # code's last window value flipped, with this unit's masses and blocks
                twins.append((group | mirror, codes ^ span >> 1))
            for group, codes in twins:
                group_disc[group, a_lo:a_hi] = disc
                cross += unit_cross
                unit_keys = (0 if frame.shared_keys else group) * span + codes
                seen[unit_keys] = True
                for lo, g in unit_blocks:
                    head = int(unit_keys[lo]) // last_place
                    if (group, head) not in accs:
                        accs[group, head] = np.zeros((last_place, last_place), dtype=np.complex128)
                    place = codes[lo : lo + len(g)] % last_place
                    accs[group, head][np.ix_(place, place)] += g

    keys = np.flatnonzero(seen)
    paths, where = _path_keys(frame, keys // span, keys % span)
    where = where.reshape(1 << frame.nomega, -1)
    # each element sums its units in unit order from 0, and the weights are
    # powers of two, so scaling is exact; a block keeps its seen codes, and
    # groups that share a table add theirs, in group order, into one matrix
    matrices = {}
    for group, head in sorted(accs):
        found = seen[head * last_place : (head + 1) * last_place]
        acc = accs.pop((group, head))[np.ix_(found, found)]
        acc *= block_weight
        matrices[head] = matrices[head] + acc if head in matrices else acc
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
        _frame=frame,
    )


def full_dfunc(ensemble: BranchEnsemble, ys: Sequence[str], zs: Sequence[str]) -> complex:
    """Decoherence functional entry between two per-step window histories.

    A gram entry: 0 where either path is absent or the two share no block.
    """
    if ensemble.kind != "full":
        raise ParameterError("full_dfunc needs a kind='full' ensemble")
    ykey, zkey = ensemble._check_path(ys), ensemble._check_path(zs)
    paths = ensemble.paths
    yi, zi = bisect.bisect_left(paths, ykey), bisect.bisect_left(paths, zkey)
    slot, local, matrices = ensemble._lookup
    if paths[yi : yi + 1] != (ykey,) or paths[zi : zi + 1] != (zkey,) or slot[yi] != slot[zi]:
        return 0j
    return complex(matrices[slot[yi]][local[yi], local[zi]])


def coarse_dfunc(ensemble: BranchEnsemble, y: str, z: str) -> complex:
    """Functional entry between two final-step-only window histories.

    Sums the Gram submatrix over the paths ending in y and in z, each side
    independently: on a kind='full' ensemble over all intermediate window
    values, on a kind='coarse' one the single entry of one path each.
    """
    for word in (y, z):
        check_word(word, ensemble._frame.kept, "window value")
    rows = np.flatnonzero(ensemble._finals == y)
    cols = np.flatnonzero(ensemble._finals == z)
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
        finals = sorted({p[-1] for p in ensemble.paths})
        paths = tuple((w,) for w in finals)
        probs = np.array([coarse_dfunc(ensemble, w, w).real for w in finals])
        marginal = True
    else:
        raise ParameterError("cannot refine a kind='coarse' ensemble into full histories")
    probs = np.asarray(probs, dtype=float).copy()
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
    for p in dist.probabilities:
        if p > _ENTROPY_FLOOR:
            acc -= p * math.log2(p)
    return acc


def offdiagonal_norm(ensemble: BranchEnsemble) -> tuple[float, float]:
    """Max and rms size of the off-diagonal functional entries over retained paths.

    Both read each block matrix once.  The rms sums the squares with
    math.fsum, which rounds the exact sum once whatever the order of its
    terms; a matrix shared by a power-of-two number of position rows counts
    each square that many times by one exact multiplication.
    """
    n = len(ensemble.paths)
    if n < 2:
        return 0.0, 0.0
    off_max = 0.0
    squares = []
    for positions, matrix in ensemble.blocks:
        mags = np.abs(matrix)
        np.fill_diagonal(mags, 0.0)
        off = mags[mags > 0]
        off_max = max(off_max, float(off.max(initial=0.0)))
        squares.append(off * off * len(positions))
    return off_max, math.sqrt(math.fsum(np.concatenate(squares).tolist()) / (n * (n - 1)))


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

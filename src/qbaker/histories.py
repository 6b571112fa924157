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
  the dense cached transfer_kernel(dot), which is faster there.  w is
  2**left on kind "full" and 2**dot on kind "coarse", and only a run with
  w < W builds the dense kernel.

Under the standing inequalities left < dot, right < qubits - dot,
steps < right the trailing right - steps label bits ride along untouched.
The ensemble therefore collapses onto 2**(left + steps) distinct active
labels, each standing for 2**(right - steps) identical spectator copies, and
every probability and functional value computed here is exact, not
approximate.  Tests compare the reduced register against dense-matrix
evaluation at small sizes.

Labels are propagated in (group, a-chunk) units.  Each unit reduces its own
final amplitudes where it runs, to one Gram block array per run of rows
sharing a last window value, and the amplitudes are freed before the unit
returns: no branch vector is kept, so peak memory is one step workspace per
thread plus the path Gram matrix.  The blocks are summed per
group in unit order over integer path codes, then scattered into the Gram
matrix once per (group, omega).

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .bakermap import apply_columns, kernel_columns, transfer_kernel
from .coarsegrain import BlockInitialState, validate_run
from .errors import InvariantError, ParameterError, ResourceLimitError

FullPath = tuple[str, ...]

# a-axis batch width; fixed so floating-point reductions group identically
# at any thread count.
_CHUNK = 64
# contractions at least this many columns wide go through the FFT, narrower
# ones through the dense kernel (W in the module docstring)
_FFT_MIN_WIDTH = 256
# Gram products of at least this many complex multiply-adds run as one BLAS
# ZGEMM; below it numpy's own einsum loop is faster.  Sending every product
# to BLAS made coarse-exact (one-row products) 36% dearer in cpu_s on a
# 2-vCPU VM, where a multithreaded BLAS call has a fixed cost of milliseconds
_GEMM_MIN_MACS = 1 << 22
DEFAULT_BUDGET_BYTES = 2 << 30
# Python objects per thread of a small run: the executor, frames and unit lists
_RUN_BYTES = 32 << 10
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
    """Geometry of one reduced-register run."""

    qubits: int
    dot: int
    left: int
    kept: int
    steps: int
    window: str

    @property
    def qwidth(self) -> int:
        # window bits read from the live momentum composite each step
        return self.dot - self.left

    @property
    def freeq(self) -> int:
        # label bits consumed by the kernel beyond the fixed window
        return max(0, self.dot + self.steps - self.left - self.kept)

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

    def feed_bit(self, j: int, group: int) -> int:
        """Label bit consumed by the dense kernel at step j (never an omega bit)."""
        return self.label_bit(self.dot + j, group, 0)

    def definite_word(self, j: int, group: int, omega: int) -> str:
        """Window bits at step j that come from definite label positions."""
        lo = self.dot + 1 + j
        hi = self.left + self.kept + j
        return "".join(
            str(self.label_bit(p, group, omega)) for p in range(lo, hi + 1)
        )


def _needs_kernel(frame: _Frame, kind: str) -> bool:
    """Whether a run has contractions narrower than _FFT_MIN_WIDTH.

    Steps >= 2 contract 2**left columns per row on kind "full" (compact rows)
    and 2**dot on kind "coarse"; only those narrow runs build the dense
    transfer_kernel.
    """
    width = 1 << (frame.left if kind == "full" else frame.dot)
    return frame.steps > 1 and width < _FFT_MIN_WIDTH


def _estimate_bytes(frame: _Frame, kind: str, threads: int) -> list[tuple[str, int]]:
    """Upper bounds on what one run holds at once, by item, ignoring pruning.

    A unit's largest moment is its last step: the input amplitudes, the
    contraction output, the output's window-value-major copy and the Gram
    product's conj() copy of one window-value run; a dense contraction adds
    the copy np.tensordot makes of its kernel column block.  Every unit in
    flight holds that much.  The dense kernel, the path Gram matrix and the
    arrays and path keys of the reduction come once.
    """
    itemsize = 16
    two_m = 2 << frame.dot
    h = 1 << frame.qwidth
    a = min(_CHUNK, 1 << frame.left)
    fresh = 1 << (frame.steps - 1)
    # rows entering the last step, and live rows after it
    rows = h ** (frame.steps - 1) if kind == "full" else 1
    rows_final = h * rows
    out = rows * a * fresh * two_m * itemsize
    if frame.steps == 1:
        # step 1 reads one kernel column per label
        amp_in = a * two_m * itemsize
    else:
        # compact rows on kind "full", the whole momentum register on "coarse"
        amp_in = out // (2 * h) if kind == "full" else out // 2
    unit = amp_in + 2 * out + out // h
    dense = _needs_kernel(frame, kind)
    if dense:
        unit += (1 << (frame.left if kind == "full" else frame.dot)) * two_m * itemsize
    groups = 1 << frame.freeq
    n_units = groups * -(-(1 << frame.left) // _CHUNK)
    in_flight = min(threads, n_units)
    # path keys, an upper bound on the paths (coarse-kind keys can repeat)
    n_paths = groups * (1 << frame.nomega) * rows_final
    # every unit's path codes, discarded masses and Gram blocks (h runs of
    # `rows` paths) until the reduction, the norms of the units in flight, and
    # one group's accumulator with a scatter's gather copy and index arrays
    held = n_units * (rows_final * (rows * itemsize + 8) + a * 8 + h * _BLOCK_OBJECT_BYTES)
    held += in_flight * 2 * rows_final * a * 8 + 3 * rows_final**2 * itemsize
    # per key: the string and index arrays of its sort, its joined string,
    # and its tuple of word strings
    words = frame.steps if kind == "full" else 1
    width = words * frame.kept
    key = sys.getsizeof(("",) * words) + words * sys.getsizeof("0" * frame.kept)
    held += n_paths * (16 * width + 24 + sys.getsizeof("0" * width) + key)
    built = [("transfer kernel", two_m * two_m * itemsize)] if dense else []
    return built + [
        ("step workspace", unit * in_flight),
        ("path gram matrix", n_paths * n_paths * itemsize),
        ("path bookkeeping", held + _RUN_BYTES * in_flight),
    ]


def _runs(h_last: np.ndarray):
    """(value, lo, hi) for each run of equal values in the sorted h_last."""
    values, starts = np.unique(h_last, return_index=True)
    ends = np.append(starts[1:], len(h_last))
    return zip(values.tolist(), starts.tolist(), ends.tolist())


def _grow_unit(
    kernel: np.ndarray | None,
    frame: _Frame,
    kind: str,
    prune_eps: float,
    group: int,
    a_lo: int,
    a_hi: int,
):
    """Propagate one (group, a-chunk) block of initial labels for `steps` steps.

    Amplitudes are held as (row, a, fresh, momentum) and each step replaces
    its input, so at most two step-sized arrays are live at once.  Returns
    per-chunk discarded mass (norm units), each row's path code (its window
    values as base-2**qwidth digits, the first step's most significant, so
    the last digit is the last window value) and the final amplitudes.
    """
    m = 1 << frame.dot
    h_count = 1 << frame.qwidth
    low = 1 << frame.left
    a_width = a_hi - a_lo
    base0 = _rev_int(frame.window[: frame.qwidth]) * low + a_lo
    disc = np.zeros(a_width)
    codes = np.zeros(1, dtype=np.int64)

    for j in range(1, frame.steps + 1):
        feed = frame.feed_bit(j, group)
        if j == 1:
            start = feed * m + base0
            amp = kernel_columns(frame.dot, start, start + a_width).T.copy()
            amp = amp.reshape(1, a_width, 1, 2 * m)
        else:
            # rows share the momentum block of their last window value (the
            # code's last digit); on the coarse path one row holds the whole
            # momentum register
            runs = _runs(codes % h_count)
            amp = _contract_rows(amp, kernel, frame.dot, feed, runs)

        # output composite index = fresh_bit * m + momentum', and the fresh
        # bit joins the fresh register as its newest (lowest) digit
        rows_n, _, f_width, _ = amp.shape
        f_width *= 2
        if kind != "full" and j < frame.steps:
            amp = amp.reshape(rows_n, a_width, f_width, m)
            continue
        # momentum composite = child * 2**left + low digits; split children
        # into window-value-major rows, so equal last values stay adjacent
        split = amp.reshape(rows_n, a_width, f_width, h_count, low)
        flat = split.view(np.float64)
        norms = np.einsum("rafhl,rafhl->hra", flat, flat)
        amp = np.ascontiguousarray(np.moveaxis(split, 3, 0))
        # free the unsplit buffer before pruning copies the kept rows
        del split, flat
        if prune_eps > 0:
            kill = norms < prune_eps
            if kill.any():
                disc += np.where(kill, norms, 0.0).sum(axis=(0, 1))
                amp[kill] = 0
        amp = amp.reshape(h_count * rows_n, a_width, f_width, low)
        codes = (codes * h_count + np.arange(h_count)[:, None]).reshape(-1)
        if prune_eps > 0:
            keep = (norms >= prune_eps).any(axis=2).reshape(-1)
            if not keep.all():
                amp = amp[keep]
                codes = codes[keep]
    return disc, codes, amp


def _contract_rows(
    amp: np.ndarray, kernel: np.ndarray | None, dot: int, feed: int, runs
) -> np.ndarray:
    """Apply one step's kernel columns along amp's last axis, run by run.

    Rows in a run of equal last window value take the same column block.
    kernel is the dense transfer_kernel(dot) on narrow runs, else None and
    the columns are applied by FFT.
    """
    m = 1 << dot
    rows_n, a_width, f_width, width = amp.shape
    out = np.empty((rows_n, a_width, f_width, 2 * m), dtype=np.complex128)
    for h, lo, hi in runs:
        start = feed * m + h * width
        if kernel is None:
            apply_columns(amp[lo:hi], dot, start, out=out[lo:hi])
        else:
            cols = kernel[:, start : start + width]
            out[lo:hi] = np.tensordot(amp[lo:hi], cols, axes=([3], [1]))
    return out


def _run_unit(
    kernel: np.ndarray | None,
    frame: _Frame,
    kind: str,
    prune_eps: float,
    group: int,
    a_lo: int,
    a_hi: int,
):
    """Grow one unit, then reduce its amplitudes to Gram blocks.

    Returns per-label discarded mass, the path codes, and one (lo, block)
    per run of equal last window value, where block[i, j] is the overlap of
    the paths in rows lo + i and lo + j; paths in different runs are
    orthogonal.  All in norm units: ensemble weights are applied by the
    caller.  The amplitudes are freed on return.
    """
    disc, codes, amp = _grow_unit(kernel, frame, kind, prune_eps, group, a_lo, a_hi)
    blocks = []
    for _, lo, hi in _runs(codes % (1 << frame.qwidth)):
        sub = amp[lo:hi]
        # sums over every axis but the row; large products go through one
        # BLAS ZGEMM.  The spec string is kept verbatim because perfbench's
        # dense_equiv_gflop counter matches it
        blas = sub.shape[0] * sub.size >= _GEMM_MIN_MACS
        blocks.append((lo, np.einsum("ialf,jalf->ij", sub, sub.conj(), optimize=blas)))
    return disc, codes, blocks


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

    `paths` is sorted lexicographically; `gram[i, j]` is the decoherence
    functional value between paths[i] (ket side) and paths[j] (bra side),
    so its diagonal holds the history probabilities.
    """

    block: BlockInitialState
    steps: int
    kind: str
    prune_eps: float
    paths: tuple[FullPath, ...]
    gram: np.ndarray
    discarded_total: float
    _frame: _Frame = field(repr=False)

    @property
    def weight(self) -> float:
        # weight of one active label: spectator multiplicity folded in
        return 2.0 ** -(self._frame.left + self.steps)

    @property
    def probabilities(self) -> np.ndarray:
        return self.gram.diagonal().real.copy()

    @cached_property
    def _finals(self) -> np.ndarray:
        # final window word of every path
        return np.array([p[-1] for p in self.paths], dtype=str)

    def _entry(self, ykey: FullPath, zkey: FullPath) -> complex:
        """gram entry between two path keys; 0 where either path is absent."""
        yi = bisect.bisect_left(self.paths, ykey)
        zi = bisect.bisect_left(self.paths, zkey)
        if self.paths[yi : yi + 1] != (ykey,) or self.paths[zi : zi + 1] != (zkey,):
            return 0j
        return complex(self.gram[yi, zi])

    def _check_path(self, path: Sequence[str]) -> FullPath:
        want = self.steps if self.kind == "full" else 1
        key = tuple(path)
        if len(key) != want:
            raise ParameterError(
                f"{self.kind}-kind paths have {want} window value(s), got {len(key)}"
            )
        for word in key:
            if len(word) != self._frame.kept or any(ch not in "01" for ch in word):
                raise ParameterError(
                    f"each path entry must be {self._frame.kept} bits of '0'/'1', got {word!r}"
                )
        return key


def _path_keys(frame: _Frame, kind: str, group_codes: list[np.ndarray]):
    """Sorted path keys, and the position of each (group, omega, code) key.

    A key's word at a recorded step is that step's window value (a digit of
    the path code) in reversed significance, then the step's definite word.
    Coarse-kind keys can repeat across (group, omega) and share a position.
    """
    h_count = 1 << frame.qwidth
    step_js = list(range(1, frame.steps + 1)) if kind == "full" else [frame.steps]
    keys = []
    for group, codes in enumerate(group_codes):
        digits = [codes // h_count**i % h_count for i in reversed(range(len(step_js)))]
        for omega in range(1 << frame.nomega):
            key = np.zeros(len(codes), dtype="U1")
            for j, digit in zip(step_js, digits):
                tail = frame.definite_word(j, group, omega)
                words = np.array([_rev_bits(h, frame.qwidth) + tail for h in range(h_count)])
                key = np.strings.add(key, words[digit])
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
    frame = _Frame(
        qubits=shape.qubits,
        dot=shape.dot,
        left=graining.left,
        kept=graining.kept,
        steps=steps,
        window=block.window,
    )
    items = _estimate_bytes(frame, kind, threads)
    total = sum(size for _, size in items)
    if total > budget_bytes:
        what, size = max(items, key=lambda item: item[1])
        raise ResourceLimitError(
            f"projected peak {total} bytes is over budget {budget_bytes} "
            f"(largest item: {what}, {size} bytes)"
        )

    kernel = transfer_kernel(shape.dot) if _needs_kernel(frame, kind) else None
    low_total = 1 << frame.left
    units = [
        (group, a_lo, min(a_lo + _CHUNK, low_total))
        for group in range(1 << frame.freeq)
        for a_lo in range(0, low_total, _CHUNK)
    ]

    def run(unit: tuple[int, int, int]):
        group, a_lo, a_hi = unit
        return _run_unit(kernel, frame, kind, prune_eps, group, a_lo, a_hi)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, units))
    else:
        results = [run(u) for u in units]

    weight = 2.0 ** -(frame.left + steps)
    groups = 1 << frame.freeq
    group_disc = np.zeros((groups, low_total))
    group_units: list[list] = [[] for _ in range(groups)]
    for (group, a_lo, a_hi), (disc, codes, blocks) in zip(units, results):
        group_disc[group, a_lo:a_hi] = disc
        group_units[group].append((codes, blocks))
    # each group's path codes, sorted: the rows of its accumulator
    group_codes = [np.unique(np.concatenate([c for c, _ in us])) for us in group_units]
    paths, where = _path_keys(frame, kind, group_codes)

    # each element sums its units in unit order from 0, and the weight is a
    # power of two, so scaling is exact; coarse-kind keys that repeat across
    # (group, omega) accumulate in (group, omega) order
    gram = np.zeros((len(paths), len(paths)), dtype=np.complex128)
    at = 0
    for codes_g, us in zip(group_codes, group_units):
        acc = np.zeros((len(codes_g), len(codes_g)), dtype=np.complex128)
        for codes, blocks in us:
            rows = np.searchsorted(codes_g, codes)
            for lo, g in blocks:
                sel = rows[lo : lo + len(g)]
                acc[np.ix_(sel, sel)] += g
        acc *= weight
        for _ in range(1 << frame.nomega):
            sel = where[at : at + len(codes_g)]
            gram[np.ix_(sel, sel)] += acc
            at += len(codes_g)
    discarded_total = weight * float(group_disc.sum()) * (1 << frame.nomega)

    return BranchEnsemble(
        block=block,
        steps=steps,
        kind=kind,
        prune_eps=prune_eps,
        paths=paths,
        gram=gram,
        discarded_total=discarded_total,
        _frame=frame,
    )


def full_dfunc(ensemble: BranchEnsemble, ys: Sequence[str], zs: Sequence[str]) -> complex:
    """Decoherence functional entry between two per-step window histories."""
    if ensemble.kind != "full":
        raise ParameterError("full_dfunc needs a kind='full' ensemble")
    return ensemble._entry(ensemble._check_path(ys), ensemble._check_path(zs))


def coarse_dfunc(ensemble: BranchEnsemble, y: str, z: str) -> complex:
    """Functional entry between two final-step-only window histories.

    On a kind='coarse' ensemble this is a direct lookup.  On a kind='full'
    ensemble it sums the gram block over all intermediate window values, each
    side independently.
    """
    if ensemble.kind == "coarse":
        return ensemble._entry(ensemble._check_path([y]), ensemble._check_path([z]))
    for word in (y, z):
        if len(word) != ensemble._frame.kept or any(ch not in "01" for ch in word):
            raise ParameterError(
                f"window value must be {ensemble._frame.kept} bits of '0'/'1', got {word!r}"
            )
    rows = np.flatnonzero(ensemble._finals == y)
    cols = np.flatnonzero(ensemble._finals == z)
    if not rows.size or not cols.size:
        return 0j
    return complex(ensemble.gram[np.ix_(rows, cols)].sum())


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
    # marginals of a pruned full ensemble absorb cross terms, so only
    # kind-matching distributions carry the tight conservation guarantee
    tol = 1e-6 if marginal else (1e-9 if ensemble.prune_eps > 0 else 1e-10)
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
    """Max and rms size of the off-diagonal functional entries over retained paths."""
    n = len(ensemble.paths)
    if n < 2:
        return 0.0, 0.0
    # the off-diagonal entries in row-major order are the flat array's runs
    # of n entries between consecutive diagonal ones
    flat = np.abs(ensemble.gram).ravel()
    off_max = float(flat[1:].reshape(n - 1, n + 1)[:, :n].max())
    # move the runs to the front in place, so the mean sums the same
    # contiguous sequence the masked copy used to, without an n*n copy
    for k in range(n - 1):
        flat[k * n : (k + 1) * n] = flat[k * (n + 1) + 1 : (k + 1) * (n + 1)]
    off = flat[: n * (n - 1)]
    off *= off
    return off_max, float(np.sqrt(np.mean(off)))


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

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
final amplitudes to squared norms and pairwise overlaps where it runs, and
the amplitudes are freed before the unit returns: no branch vector is kept,
so peak memory is one step workspace per thread plus the path Gram matrix.

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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
# Python objects per overlap-dict entry (key tuples, complex value, table
# slot, sort list), twice the ~125 bytes tracemalloc shows at 4096 paths;
# and per thread, the executor, frames and per-run lists of a small run
_ENTRY_BYTES = 256
_RUN_BYTES = 32 << 10
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
    Python bookkeeping of the reduction come once.
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
    n_paths = groups * (1 << frame.nomega) * rows_final
    # overlap entries in the per-unit, per-group and per-path dicts, plus
    # every unit's per-(path, label) norms
    entries = rows_final * rows * (n_units + groups * (1 + (1 << frame.nomega)))
    norms = groups * (1 << frame.left) * (rows_final + 2) * 8
    built = [("transfer kernel", two_m * two_m * itemsize)] if dense else []
    return built + [
        ("step workspace", unit * in_flight),
        ("path gram matrix", n_paths * n_paths * itemsize),
        ("path bookkeeping", entries * _ENTRY_BYTES + norms + _RUN_BYTES * in_flight),
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
    per-chunk discarded mass (norm units), the path list, each row's last
    window value, and the final amplitudes.
    """
    m = 1 << frame.dot
    h_count = 1 << frame.qwidth
    low = 1 << frame.left
    a_width = a_hi - a_lo
    base0 = _rev_int(frame.window[: frame.qwidth]) * low + a_lo
    disc = np.zeros(a_width)
    qpaths: list[tuple[int, ...]] = [()]
    h_last = np.zeros(1, dtype=np.int64)
    compact = False

    for j in range(1, frame.steps + 1):
        feed = frame.feed_bit(j, group)
        if j == 1:
            start = feed * m + base0
            amp = kernel_columns(frame.dot, start, start + a_width).T.copy()
            amp = amp.reshape(1, a_width, 1, 2 * m)
        else:
            # rows share the momentum block of their last window value; on
            # the coarse path there is one block, the whole momentum register
            runs = _runs(h_last) if compact else [(0, 0, len(amp))]
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
        qpaths = [qp + (hh,) for hh in range(h_count) for qp in qpaths]
        h_last = np.repeat(np.arange(h_count), rows_n)
        if prune_eps > 0:
            keep = (norms >= prune_eps).any(axis=2).reshape(-1)
            if not keep.all():
                amp = amp[keep]
                h_last = h_last[keep]
                qpaths = [qp for qp, kp in zip(qpaths, keep) if kp]
        compact = True
    return disc, qpaths, h_last, amp


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
    """Grow one unit, then reduce its amplitudes to norms and overlaps.

    Returns per-chunk discarded mass, per-(path, a) retained norms, the path
    list, and the raw pairwise overlap sums, all in norm units; ensemble
    weights are applied by the caller.  The amplitudes are freed on return.
    """
    disc, qpaths, h_last, amp = _grow_unit(kernel, frame, kind, prune_eps, group, a_lo, a_hi)
    flat = amp.view(np.float64)
    n2 = np.einsum("rafl,rafl->ra", flat, flat)
    gram: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    for _, lo, hi in _runs(h_last):
        sub = amp[lo:hi]
        # sums over every axis but the row; large products go through one
        # BLAS ZGEMM.  The spec string is kept verbatim because perfbench's
        # dense_equiv_gflop counter matches it
        blas = sub.shape[0] * sub.size >= _GEMM_MIN_MACS
        g = np.einsum("ialf,jalf->ij", sub, sub.conj(), optimize=blas)
        # insert pairs in path order: the caller sorts them, and timsort on
        # presorted runs cut the wide-window benchmark's wall time by ~17%
        order = sorted(range(hi - lo), key=lambda i: qpaths[lo + i])
        for ii in order:
            for jj in order:
                gram[(qpaths[lo + ii], qpaths[lo + jj])] = complex(g[ii, jj])
    return disc, n2, qpaths, gram


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
    """Path overlaps and per-label masses from one propagation run.

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
    _index: dict[FullPath, int] = field(repr=False)
    _group_disc: np.ndarray = field(repr=False)
    _group_cons: np.ndarray = field(repr=False)

    @property
    def weight(self) -> float:
        # weight of one active label: spectator multiplicity folded in
        return 2.0 ** -(self._frame.left + self.steps)

    @property
    def probabilities(self) -> np.ndarray:
        return self.gram.diagonal().real.copy()

    def _decode_label(self, label: str) -> tuple[int, int, int]:
        frame = self._frame
        if len(label) != frame.qubits or any(ch not in "01" for ch in label):
            raise ParameterError(
                f"label must be {frame.qubits} bits of '0'/'1', got {label!r}"
            )
        if label[frame.left : frame.left + frame.kept] != self.block.window:
            raise ParameterError(
                f"label window {label[frame.left:frame.left + frame.kept]!r} does not "
                f"match block window {self.block.window!r}"
            )
        low = _rev_int(label[: frame.left])
        group = _rev_int(label[frame.left + frame.kept : frame.dot + frame.steps])
        omega = _rev_int(label[frame.omega_start : frame.left + frame.kept + frame.steps])
        return low, group, omega

    def discarded_mass(self, label: str) -> float:
        """Pruned-away squared norm for one initial label (norm units)."""
        low, group, _ = self._decode_label(label)
        return float(self._group_disc[group, low])

    def retained_mass(self, label: str) -> float:
        """Sum of retained branch squared norms for one initial label."""
        low, group, _ = self._decode_label(label)
        return float(self._group_cons[group, low])

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
    group_cons = np.zeros((groups, low_total))
    # per-group reductions, chunks merged in fixed unit order
    per_group_n2: list[dict[tuple[int, ...], float]] = [dict() for _ in range(groups)]
    per_group_gram: list[dict] = [dict() for _ in range(groups)]
    for (group, a_lo, a_hi), (disc, n2, qpaths, gram) in zip(units, results):
        group_disc[group, a_lo:a_hi] = disc
        group_cons[group, a_lo:a_hi] = n2.sum(axis=0)
        tgt_n2 = per_group_n2[group]
        for i, qp in enumerate(qpaths):
            tgt_n2[qp] = tgt_n2.get(qp, 0.0) + float(n2[i].sum())
        tgt_g = per_group_gram[group]
        for pair, val in gram.items():
            tgt_g[pair] = tgt_g.get(pair, 0j) + val

    step_js = list(range(1, steps + 1)) if kind == "full" else [steps]
    g_map: dict[tuple[FullPath, FullPath], complex] = {}
    for group in range(groups):
        for omega in range(1 << frame.nomega):
            words = {j: frame.definite_word(j, group, omega) for j in step_js}
            key_of: dict[tuple[int, ...], FullPath] = {}
            for qp in sorted(per_group_n2[group]):
                key_of[qp] = tuple(
                    _rev_bits(h, frame.qwidth) + words[j]
                    for h, j in zip(qp, step_js)
                )
            # kind="full" keys never repeat across (group, omega); coarse-kind
            # final words can, so contributions are accumulated either way
            for (qa, qb), val in sorted(per_group_gram[group].items()):
                pair = (key_of[qa], key_of[qb])
                g_map[pair] = g_map.get(pair, 0j) + weight * val

    paths = tuple(sorted({ka for ka, kb in g_map if ka == kb}))
    index = {p: i for i, p in enumerate(paths)}
    gram = np.zeros((len(paths), len(paths)), dtype=np.complex128)
    for (ka, kb), val in g_map.items():
        gram[index[ka], index[kb]] = val
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
        _index=index,
        _group_disc=group_disc,
        _group_cons=group_cons,
    )


def full_dfunc(ensemble: BranchEnsemble, ys: Sequence[str], zs: Sequence[str]) -> complex:
    """Decoherence functional entry between two per-step window histories."""
    if ensemble.kind != "full":
        raise ParameterError("full_dfunc needs a kind='full' ensemble")
    ykey = ensemble._check_path(ys)
    zkey = ensemble._check_path(zs)
    yi = ensemble._index.get(ykey)
    zi = ensemble._index.get(zkey)
    if yi is None or zi is None:
        return 0j
    return complex(ensemble.gram[yi, zi])


def coarse_dfunc(ensemble: BranchEnsemble, y: str, z: str) -> complex:
    """Functional entry between two final-step-only window histories.

    On a kind='coarse' ensemble this is a direct lookup.  On a kind='full'
    ensemble it sums the gram block over all intermediate window values, each
    side independently.
    """
    if ensemble.kind == "coarse":
        ykey = ensemble._check_path([y])
        zkey = ensemble._check_path([z])
        yi = ensemble._index.get(ykey)
        zi = ensemble._index.get(zkey)
        if yi is None or zi is None:
            return 0j
        return complex(ensemble.gram[yi, zi])
    for word in (y, z):
        if len(word) != ensemble._frame.kept or any(ch not in "01" for ch in word):
            raise ParameterError(
                f"window value must be {ensemble._frame.kept} bits of '0'/'1', got {word!r}"
            )
    rows = [i for i, p in enumerate(ensemble.paths) if p[-1] == y]
    cols = [i for i, p in enumerate(ensemble.paths) if p[-1] == z]
    if not rows or not cols:
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


def offdiagonal_norm(ensemble: BranchEnsemble, mode: str = "max") -> float:
    """Size of the off-diagonal functional entries over retained paths."""
    n = len(ensemble.paths)
    if n < 2:
        return 0.0
    mags = np.abs(ensemble.gram)
    mask = ~np.eye(n, dtype=bool)
    if mode == "max":
        return float(mags[mask].max())
    if mode == "rms":
        return float(np.sqrt(np.mean(mags[mask] ** 2)))
    raise ParameterError(f"mode must be 'max' or 'rms', got {mode!r}")


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

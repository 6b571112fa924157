"""Tests for branch propagation, functionals, and the asymptotic oracles."""

import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbaker import (
    BlockInitialState,
    CoarseGraining,
    HistoryDistribution,
    InvariantError,
    ParameterError,
    ResourceLimitError,
    SystemShape,
    coarse_dfunc,
    entropy_bits,
    full_dfunc,
    history_distribution,
    ideal_coarse_value,
    ideal_full_value,
    offdiagonal_norm,
    propagate_branches,
)
from qbaker import bakermap, histories
from qbaker.core import check_word

from _dense_reference import (
    block_labels,
    block_weight,
    dense_branches,
    dense_gram,
    dense_pruned_marginal,
)
from _string_paths import (
    definite_word,
    rev_bits,
    string_coarse_dfunc,
    string_full_dfunc,
    string_path_keys,
    word_paths,
)

# largest register branch_vector rebuilds as a full 2**qubits vector
RECONSTRUCT_LIMIT = 20


def make_block(qubits, dot, left, right, window):
    return BlockInitialState(
        CoarseGraining(SystemShape(qubits, dot), left, right), window
    )


def decode_label(ens, label):
    """(low, group, omega) indices of an initial label of the ensemble's block."""
    frame = frame_of(ens)
    check_word(label, frame.qubits, "label")
    window = label[frame.left : frame.left + frame.kept]
    if window != ens.block.window:
        raise ParameterError(
            f"label window {window!r} does not match block window {ens.block.window!r}"
        )
    low = histories._rev_int(label[: frame.left])
    group = histories._rev_int(label[frame.left + frame.kept : frame.dot + frame.steps])
    omega = histories._rev_int(label[frame.omega_start : frame.left + frame.kept + frame.steps])
    return low, group, omega


def materialized_unit(frame, prune_eps, unit):
    """A unit grown through its last step at once: the oracle of the streamed last step.

    Returns per-label discarded mass, the sum over labels of 2S + S**2, the
    path codes and the final (row, a, fresh, low) amplitudes, in a workspace
    of their own.
    """
    disc, root, codes, amp = histories._grow_unit(
        frame, prune_eps, unit, histories._Workspace(), frame.steps
    )
    return disc, float((root * (2.0 + root)).sum()), codes, amp


def step1_phase(frame, unit):
    """bakermap.fresh_phase of each label of a unit: its step-1 column's
    fresh-bit-1 rows over its fresh-bit-0 rows."""
    group, a_lo, a_hi = unit
    feed = frame.label_bit(frame.dot + 1, group, 0)
    window = histories._rev_int(frame.window[: frame.qwidth])
    start = (feed << frame.dot) + (window << frame.left) + a_lo
    return bakermap.fresh_phase(start, start + a_hi - a_lo)


def whole_fresh_register(frame, unit, amp):
    """A unit's final amplitudes with both halves of the fresh register.

    A run off the dense arm holds only the half where step 1's fresh bit,
    the fresh axis' leading digit, is 0; the other half is that half times
    each label's step1_phase.
    """
    if frame.dense:
        return amp
    bit1 = step1_phase(frame, unit)[:, None, None] * amp
    return np.concatenate([amp, bit1], axis=2)


def label_masses(ens):
    """{label: (discarded, retained)} squared norms of every initial label.

    The engine books only the total discarded mass, so this regrows every
    (group, a-chunk) unit with materialized_unit and sums each label's
    pruned and final branch norms (norm units) over its whole fresh register.
    """
    frame = frame_of(ens)
    low_total = 1 << frame.left
    disc = np.zeros((1 << frame.freeq, low_total))
    kept = np.zeros_like(disc)
    for group in range(1 << frame.freeq):
        for a_lo in range(0, low_total, frame.chunk):
            a_hi = a_lo + frame.chunk
            unit = (group, a_lo, a_hi)
            d, _, _, amp = materialized_unit(frame, ens.prune_eps, unit)
            flat = whole_fresh_register(frame, unit, amp).view(np.float64)
            disc[group, a_lo:a_hi] = d
            kept[group, a_lo:a_hi] = np.einsum("rafl,rafl->ra", flat, flat).sum(axis=0)
    masses = {}
    for label in block_labels(ens.block):
        low, group, _ = decode_label(ens, label)
        masses[label] = (float(disc[group, low]), float(kept[group, low]))
    return masses


def branch_vector(ens, label, path, grow=materialized_unit):
    """Dot-basis coefficients of the branch grown from one initial label.

    The engine keeps no amplitudes, so this regrows the label's
    (group, a-chunk) unit with grow, materialized_unit or a cache of it, and
    rebuilds the full 2**qubits coefficient vector from its compact register.
    """
    frame = frame_of(ens)
    if frame.qubits > RECONSTRUCT_LIMIT:
        raise ResourceLimitError(
            f"branch reconstruction limited to qubits <= {RECONSTRUCT_LIMIT}, "
            f"got {frame.qubits}"
        )
    ens._row(path)  # checks the path's words
    key = tuple(path)
    low, group, omega = decode_label(ens, label)
    out = np.zeros(1 << frame.qubits, dtype=np.complex128)
    step_js = range(1, ens.steps + 1) if ens.kind == "full" else [ens.steps]
    # the path determines the definite window words; mismatch with this
    # label's group/omega bits means the branch is exactly zero
    for word, j in zip(key, step_js):
        if word[frame.qwidth :] != definite_word(frame, j, group, omega):
            return out
    # the path code's digits are the window values, the newest most significant
    code = 0
    for word in reversed(key):
        code = (code << frame.qwidth) + histories._rev_int(word[: frame.qwidth])
    a_lo = low - low % frame.chunk
    unit = (group, a_lo, a_lo + frame.chunk)
    _, _, codes, amp = grow(frame, ens.prune_eps, unit)
    rows = np.flatnonzero(codes == code)
    if not rows.size:
        return out
    row = int(rows[0])
    coeffs = whole_fresh_register(frame, unit, amp[row : row + 1])[0, low - a_lo].T
    head_base = (code >> frame.qwidth * (len(key) - 1)) << frame.left
    mid = "".join(
        str(frame.label_bit(p + ens.steps, group, omega))
        for p in range(frame.dot + 1, frame.left + frame.kept + 1)
    )
    spect = label[frame.left + frame.kept + ens.steps :]
    # the coefficient of (lo_idx, f_idx) sits at bits head + mid + spect + tail:
    # head is the dot-bit reversed momentum index, tail the fresh register
    heads = [
        int(rev_bits(head_base + lo_idx, frame.dot), 2)
        for lo_idx in range(coeffs.shape[0])
    ]
    idx = (
        (np.array(heads)[:, None] << (frame.qubits - frame.dot))
        + (int(mid + spect, 2) << ens.steps)
        + np.arange(coeffs.shape[1])
    )
    out[idx] = coeffs
    return out


@pytest.fixture(scope="module")
def medium_full():
    # shared full-kind run reused by several functional tests
    return propagate_branches(make_block(8, 4, 2, 3, "010"), 2, prune_eps=0.0)


@pytest.fixture(scope="module")
def medium_coarse():
    return propagate_branches(
        make_block(8, 4, 2, 3, "010"), 2, prune_eps=0.0, kind="coarse"
    )


@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,kind",
    [
        (6, 3, 1, 2, 1, "full"),
        (6, 3, 1, 2, 1, "coarse"),
        (7, 3, 1, 3, 2, "full"),
        (7, 3, 1, 3, 2, "coarse"),
        (8, 4, 2, 3, 2, "full"),
    ],
)
@pytest.mark.parametrize("window", ["000", "010"])
def test_matches_dense_reference(qubits, dot, left, right, steps, kind, window):
    block = make_block(qubits, dot, left, right, window)
    ens = propagate_branches(block, steps, prune_eps=0.0, kind=kind)
    keys, gmat = dense_gram(block, steps, kind)
    assert set(word_paths(ens.paths, frame_of(ens).kept)) == set(keys)
    for ya, yb in itertools.product(keys, keys):
        if kind == "full":
            got = full_dfunc(ens, ya, yb)
        else:
            got = coarse_dfunc(ens, ya[0], yb[0])
        assert abs(got - gmat[(ya, yb)]) < 1e-12


def test_branch_vectors_match_dense_reference():
    block = make_block(7, 3, 1, 3, "010")
    for kind in ("full", "coarse"):
        ens = propagate_branches(block, 2, prune_eps=0.0, kind=kind)
        ref = dense_branches(block, 2, kind)
        for label in block_labels(block):
            for path in word_paths(ens.paths, frame_of(ens).kept):
                got = branch_vector(ens, label, path)
                want = ref[label].get(path)
                if want is None:
                    want = np.zeros_like(got)
                np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,kind,window,entropy",
    [
        (6, 3, 1, 2, 1, "full", "000", 1.693632),
        (6, 3, 1, 2, 1, "full", "100", 1.693632),
        (6, 3, 1, 2, 1, "full", "010", 1.693632),
        (7, 3, 1, 3, 2, "full", "000", 3.455459),
        (7, 3, 1, 3, 2, "full", "100", 3.304984),
        (7, 3, 1, 3, 2, "full", "010", 3.304984),
        (7, 3, 1, 3, 2, "coarse", "000", 2.684599),
        (7, 3, 1, 3, 2, "coarse", "100", 2.438466),
        (7, 3, 1, 3, 2, "coarse", "010", 2.397369),
        (8, 4, 2, 3, 2, "full", "000", 3.056895),
        (8, 4, 2, 3, 2, "full", "100", 2.864312),
        (8, 4, 2, 3, 2, "full", "010", 2.864312),
        (8, 4, 2, 3, 2, "coarse", "000", 2.557522),
        (8, 4, 2, 3, 2, "coarse", "100", 2.273892),
        (8, 4, 2, 3, 2, "coarse", "010", 2.269450),
        (8, 3, 1, 4, 3, "full", "000", 5.214473),
        (8, 3, 1, 4, 3, "full", "100", 5.049098),
        (8, 3, 1, 4, 3, "full", "010", 4.935480),
    ],
)
def test_entropy_regression(qubits, dot, left, right, steps, kind, window, entropy):
    block = make_block(qubits, dot, left, right, window)
    ens = propagate_branches(block, steps, prune_eps=0.0, kind=kind)
    dist = history_distribution(ens)
    assert abs(entropy_bits(dist) - entropy) < 1e-6


def test_single_step_decoheres_exactly():
    # one step: different window values label orthogonal projections
    ens = propagate_branches(make_block(7, 4, 2, 2, "010"), 1, prune_eps=0.0)
    assert offdiagonal_norm(ens) == (0.0, 0.0)


def test_coarse_kind_decoheres_exactly(medium_coarse):
    assert offdiagonal_norm(medium_coarse) == (0.0, 0.0)
    # one-time histories: every block is one path, and the groups' blocks of
    # a path are summed into one, so no position appears twice
    assert frame_of(medium_coarse).freeq > 0
    assert all(matrix.shape == (1, 1) for _, matrix in medium_coarse.blocks)
    positions = np.concatenate([p.ravel() for p, _ in medium_coarse.blocks]).tolist()
    assert sorted(positions) == list(range(len(medium_coarse.paths)))


def test_coarse_equals_summed_full(medium_full):
    # summing the functional over intermediate window values on both sides
    # must reproduce the final-step-only functional entry for entry
    paths = word_paths(medium_full.paths, frame_of(medium_full).kept)
    finals = sorted({p[-1] for p in paths})
    for y, z in itertools.product(finals, finals):
        direct = coarse_dfunc(medium_full, y, z)
        acc = 0j
        for ya in paths:
            for za in paths:
                if ya[-1] == y and za[-1] == z:
                    acc += full_dfunc(medium_full, ya, za)
        assert abs(direct - acc) < 1e-10


def test_marginal_matches_coarse_run(medium_full, medium_coarse):
    dist_m = history_distribution(medium_full, kind="coarse")
    dist_c = history_distribution(medium_coarse)
    np.testing.assert_array_equal(dist_m.paths, dist_c.paths, strict=True)
    np.testing.assert_allclose(dist_m.probabilities, dist_c.probabilities, atol=1e-12)


def test_probability_conservation_unpruned(medium_full, medium_coarse):
    for ens in (medium_full, medium_coarse):
        assert ens.discarded_total == 0.0
        assert abs(ens.probabilities.sum() - 1.0) < 1e-10
        assert abs(history_distribution(ens).total() - 1.0) < 1e-10


def test_per_label_conservation_unpruned(medium_full):
    for disc, kept in label_masses(medium_full).values():
        assert disc == 0.0
        assert abs(kept - 1.0) < 1e-10


def test_gram_hermitian_and_positive(medium_full):
    g = medium_full.gram
    np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() >= -1e-9


def test_pruned_run_stays_consistent():
    block = make_block(8, 4, 2, 3, "010")
    eps = 1e-3
    ens = propagate_branches(block, 2, prune_eps=eps)
    assert ens.discarded_total > 0.0
    # every prune event kills mass below eps and the event count per label
    # is bounded by 2**(kept*steps)
    bound = eps * 2 ** (block.graining.kept * 2)
    for disc, kept in label_masses(ens).values():
        assert 0.0 <= disc <= bound
        assert abs(disc + kept - 1.0) < 1e-9
    dist = history_distribution(ens)
    assert abs(dist.total() - 1.0) < 1e-9
    assert np.linalg.eigvalsh(ens.gram).min() >= -1e-9
    # a path pruned everywhere must read back as exactly zero
    missing = set(
        itertools.product(
            ["".join(b) for b in itertools.product("01", repeat=3)], repeat=2
        )
    ) - set(word_paths(ens.paths, frame_of(ens).kept))
    assert missing
    path = sorted(missing)[0]
    assert full_dfunc(ens, path, path) == 0j


@pytest.mark.parametrize("kind", ["full", "coarse"])
def test_pruned_multi_chunk_groups_match_summed_branch_overlaps(kind):
    # left 8 puts four a-chunks in each of two groups, so each group's
    # accumulator sums the blocks of several units; on kind "full" pruning
    # also keeps different path lists in different units of one group
    block = make_block(13, 9, 8, 3, "01")
    ens = propagate_branches(block, 2, prune_eps=0.01, kind=kind)
    frame = frame_of(ens)
    chunk = frame.chunk
    assert frame.freeq > 0 and (1 << frame.left) > chunk
    assert not frame.dense
    # branch_vector regrows a whole unit per call; grow each unit once
    cached = functools.lru_cache(materialized_unit)
    grow = functools.partial(cached, frame, ens.prune_eps)
    path_lists = [
        {tuple(grow((group, a_lo, a_lo + chunk))[2]) for a_lo in range(0, 1 << frame.left, chunk)}
        for group in range(1 << frame.freeq)
    ]
    assert any(len(lists) > 1 for lists in path_lists) == (kind == "full")
    want = np.zeros_like(ens.gram)
    for label in block_labels(block):
        vecs = np.array(
            [branch_vector(ens, label, path, cached) for path in word_paths(ens.paths, frame.kept)]
        )
        # want[i, j] = weight * <b_j | b_i>
        want += block_weight(block) * (vecs @ vecs.conj().T)
    np.testing.assert_allclose(ens.gram, want, rtol=0, atol=1e-12)


def pair_dict_gram(ens):
    """paths and gram by the pair-dict reduction the engine used to run, and
    how many (group, last window value, row code) triples one unit of the
    group drops at its last step, keeping another row of the same last
    window value, while another unit keeps them.

    Sums each group's per-unit overlaps pair by pair in unit order, scales
    them by the ensemble weight and adds them up per path-key pair in
    (group, omega) order: the order the array scatter must reproduce.  Only
    the (last window value, row) pairs a unit kept are summed, so the
    engine, which adds each accumulator whole, must find the rest zero.  A
    unit of a run off the dense arm sums its fresh-bit-0 half only;
    each bit-1 overlap term equals a bit-0 one (whole_fresh_register), so
    its weight is doubled.  On a mirrored run (_Frame.mirror) a group with the
    top group bit set takes its partner's units, the top bit of each code's
    last window value flipped, as the engine does.  The engine adds a
    dropped row's zeros into a block that keeps the row only in the third
    count's cases.
    """
    frame, kind = frame_of(ens), ens.kind
    weight = 2.0 ** -(frame.left + ens.steps - (not frame.dense))
    low, h_count = 1 << frame.left, 1 << frame.qwidth
    step_js = list(range(1, ens.steps + 1)) if kind == "full" else [ens.steps]
    pairs, uneven = {}, 0
    for group in range(1 << frame.freeq):
        per_group, dropped, kept_rows = {}, set(), set()
        top = group & frame.mirror  # the top group bit, if this group is mirrored
        for a_lo in range(0, low, frame.chunk):
            a_hi = a_lo + frame.chunk
            _, _, codes, keep, gram = histories._run_unit(
                frame, ens.prune_eps, (group ^ top, a_lo, a_hi), histories._Workspace()
            )
            flip = h_count >> 1 if top else 0
            for h, (i, code) in itertools.product(range(h_count), enumerate(codes.tolist())):
                if keep[h, i]:
                    kept_rows.add((h, code))
                elif keep[h].any():
                    dropped.add((h, code))
            for h in range(h_count):
                rows = np.flatnonzero(keep[h]).tolist()
                # a path code: its last window value above its row's code
                final = [(h ^ flip) * frame.last_place + int(codes[i]) for i in rows]
                for (i, qa), (j, qb) in itertools.product(zip(rows, final), repeat=2):
                    per_group[qa, qb] = per_group.get((qa, qb), 0j) + complex(gram[h, i, j])
        uneven += len(dropped & kept_rows)
        for omega in range(1 << frame.nomega):

            def key(code):
                # the first step's window value is the least significant digit
                digits = [code // h_count**i % h_count for i in range(len(step_js))]
                return tuple(
                    rev_bits(d, frame.qwidth) + definite_word(frame, j, group, omega)
                    for d, j in zip(digits, step_js)
                )

            for (qa, qb), val in per_group.items():
                pair = (key(qa), key(qb))
                pairs[pair] = pairs.get(pair, 0j) + weight * val
    paths = tuple(sorted({ka for ka, kb in pairs if ka == kb}))
    index = {p: i for i, p in enumerate(paths)}
    gram = np.zeros((len(paths), len(paths)), dtype=np.complex128)
    for (ka, kb), val in pairs.items():
        gram[index[ka], index[kb]] = val
    return paths, gram, uneven


# pruned at 0.01 on kind "full", one unit of a group drops at its last step
# a row that another unit of the group keeps, while it keeps another row of
# the same last window value: the one case where adding whole accumulators
# relies on _fold zeroing the first unit's row
_UNEVEN = (15, 9, 8, 5, 4, "00")


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window",
    [
        (8, 4, 2, 3, 2, "010"),
        (8, 4, 1, 3, 2, "0110"),
        (9, 4, 2, 4, 3, "011"),
        (13, 9, 8, 3, 2, "01"),
        # the dense arm, 32 units of 16 labels; pruned, the units of four
        # groups keep different (last window value, row) pairs
        (15, 8, 7, 5, 4, "011"),
        # _UNEVEN: mirrored, 16 units per group (kind "full")
        _UNEVEN,
    ],
)
def test_gram_equals_the_pair_dict_reduction(
    qubits, dot, left, right, steps, window, prune_eps, kind
):
    ens = propagate_branches(
        make_block(qubits, dot, left, right, window), steps, prune_eps=prune_eps, kind=kind
    )
    paths, gram, uneven = pair_dict_gram(ens)
    assert word_paths(ens.paths, frame_of(ens).kept) == paths
    np.testing.assert_array_equal(ens.gram, gram)
    if prune_eps and kind == "full" and (qubits, dot, left, right, steps, window) == _UNEVEN:
        assert uneven > 0


@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
def test_a_mirrored_coarse_gram_adds_its_groups_in_group_order(monkeypatch, prune_eps):
    # through the FFT at freeq 3, groups 4..7 are 0..3 mirrored, so the
    # reduction meets the groups in the order 0, 4, 1, 5, ...; the table all
    # groups share on kind "coarse" must still add them in group order
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 0)
    block = make_block(11, 5, 2, 5, "0110")
    ens = propagate_branches(block, 4, prune_eps=prune_eps, kind="coarse")
    assert frame_of(ens).mirror == 4
    paths, gram, _ = pair_dict_gram(ens)
    assert word_paths(ens.paths, frame_of(ens).kept) == paths
    np.testing.assert_array_equal(ens.gram, gram)


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window",
    [
        # the dense arm, four groups of one a-chunk
        (12, 7, 5, 4, 3, "001"),
        # FFT, two groups of four a-chunks
        (13, 9, 8, 3, 2, "01"),
    ],
)
def test_a_reused_workspace_leaves_no_trace_between_units(
    qubits, dot, left, right, steps, window, prune_eps, kind
):
    # each pool thread runs all its units in one _Workspace; a unit must get
    # the same result there as in a workspace of its own
    ens = propagate_branches(
        make_block(qubits, dot, left, right, window), steps, prune_eps=prune_eps, kind=kind
    )
    frame = frame_of(ens)
    units = _unit_list(frame)
    assert len(units) > 1
    run = functools.partial(histories._run_unit, frame, prune_eps)
    ws = histories._Workspace()
    for unit in reversed(units):
        got = run(unit, ws)
        want = run(unit, histories._Workspace())
        # disc, cross, codes, keep and gram
        for value, want_value in zip(got, want, strict=True):
            np.testing.assert_array_equal(value, want_value, strict=True)
        # the rows are in path-code order
        assert (np.diff(got[2]) > 0).all()


def _unit_list(frame):
    return [
        (group, a_lo, a_lo + frame.chunk)
        for group in range(1 << frame.freeq)
        for a_lo in range(0, 1 << frame.left, frame.chunk)
    ]


@pytest.mark.parametrize("labels", ["one-label", "whole-unit"])
@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("arm", ["fft", "dense"])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window",
    [
        # one step: step 1's columns are the streamed step, on either arm,
        # in two units of 64 labels
        (13, 8, 7, 2, 1, "0101"),
        # 64 rows of 4 labels enter the last step (full)
        (11, 5, 2, 5, 3, "0110"),
        # 16 labels a unit, mirrored on the FFT arm
        (11, 6, 4, 4, 3, "011"),
    ],
)
def test_the_streamed_last_step_matches_the_materialized_one(
    monkeypatch, qubits, dot, left, right, steps, window, arm, kind, prune_eps, labels
):
    # _run_unit folds its last step into norms and Gram accumulators a block
    # of labels at a time; materialized_unit grows the whole step, then forms
    # the blocks as one product per run of rows.  Both are compared in the
    # ensemble's units, where each label weighs 2**-(left + steps)
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
    frame = block_frame(make_block(qubits, dot, left, right, window), steps, kind)
    # one label's last step output as the block bound: blocks of one label,
    # in units of several
    one_label = 16 * frame.step_output(steps, 1)
    monkeypatch.setattr(histories, "_BLOCK_BYTES", one_label if labels == "one-label" else 1 << 62)
    assert frame.block == (1 if labels == "one-label" else frame.chunk) and frame.chunk > 1
    assert frame.dense == (arm == "dense" and steps > 1)
    weight = 2.0 ** -(left + steps)
    pruned = dropped = 0
    for unit in _unit_list(frame):
        disc, cross, codes, keep, gram = histories._run_unit(
            frame, prune_eps, unit, histories._Workspace()
        )
        want_disc, want_cross, want_codes, amp = materialized_unit(frame, prune_eps, unit)
        # the final codes: each kept (h, row)'s last window value h above the row's code
        final = (np.arange(len(keep))[:, None] * frame.last_place + codes)[keep]
        np.testing.assert_array_equal(final, want_codes)
        np.testing.assert_allclose(weight * disc, weight * want_disc, rtol=0, atol=1e-13)
        assert weight * cross == pytest.approx(weight * want_cross, rel=0, abs=1e-13)
        runs = list(histories._runs(final // frame.last_place))
        assert [h for h, _, _ in runs] == np.flatnonzero(keep.any(axis=1)).tolist()
        for h, lo, hi in runs:
            kept = np.flatnonzero(keep[h])
            want = np.einsum("ialf,jalf->ij", amp[lo:hi], amp[lo:hi].conj())
            got = gram[h][np.ix_(kept, kept)]
            np.testing.assert_allclose(weight * got, weight * want, rtol=0, atol=1e-13)
        # every row and column that keep[h] drops is exactly zero
        for h, rows in enumerate(keep):
            assert not gram[h][~rows].any() and not gram[h][:, ~rows].any()
        pruned += disc.any()
        dropped += len(final) < frame.last_place << frame.qwidth
    assert bool(pruned) == (prune_eps > 0)
    assert bool(dropped) == (prune_eps > 0)


@pytest.mark.parametrize("arm", ["fft", "dense"])
def test_fold_books_and_zeroes_exactly_the_branches_under_prune_eps(monkeypatch, arm):
    # a doctored step output of (8,4,2,3,2): 2 rows x 3 labels x 4 fresh
    # values x 4 children x 4 low digits, with chosen (child, row, label)
    # branches shrunk under prune_eps; child 2 of row 0 is pruned for every
    # label, child 1 of row 1 for one label only
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
    frame = block_frame(make_block(8, 4, 2, 3, "010"), 2, "full")
    assert frame.dense == (arm == "dense")
    rng = np.random.default_rng(5)
    out = rng.normal(size=(2, 3, 2, 32)) + 1j * rng.normal(size=(2, 3, 2, 32))
    view = out.reshape(2, 3, 4, 4, 4)  # (row, label, fresh, child, low)
    killed = [(0, 0, 0), (2, 0, 0), (2, 0, 1), (2, 0, 2), (1, 1, 2)]  # (child, row, label)
    for h, r, a in killed:
        view[r, a, :, h] *= 1e-3
    want_norms = np.einsum("rafhl->hra", np.abs(view) ** 2) * (1.0 if frame.dense else 2.0)
    kill = np.zeros(want_norms.shape, dtype=bool)
    kill[tuple(zip(*killed))] = True
    prune_eps = 1e-3
    assert want_norms[kill].max() < prune_eps < want_norms[~kill].min()
    disc0, root0 = np.array([0.25, 0.5, 1.0]), np.array([1.0, 2.0, 4.0])

    # prune_eps 0: nothing is booked or zeroed, and every child is kept
    before, disc, root = out.copy(), disc0.copy(), root0.copy()
    split, norms, keep = histories._fold(out, frame, 0.0, disc, root)
    assert out.tobytes() == before.tobytes()
    assert disc.tobytes() == disc0.tobytes() and root.tobytes() == root0.tobytes()
    assert keep.shape == (4, 2) and keep.all()
    np.testing.assert_allclose(norms, want_norms, rtol=1e-14, atol=0)

    split, norms, keep = histories._fold(out, frame, prune_eps, disc, root)
    assert np.shares_memory(split, out)
    got = np.moveaxis(split, 3, 0)
    assert not got[kill].any()
    assert np.array_equal(got[~kill], np.moveaxis(before.reshape(split.shape), 3, 0)[~kill])
    assert not norms[kill].any()
    np.testing.assert_allclose(norms[~kill], want_norms[~kill], rtol=1e-14, atol=0)
    for a in range(3):
        dead = want_norms[:, :, a][kill[:, :, a]]
        assert disc[a] == pytest.approx(disc0[a] + math.fsum(dead), rel=1e-15, abs=0)
        assert root[a] == pytest.approx(root0[a] + math.fsum(np.sqrt(dead)), rel=1e-15, abs=0)
    want_keep = np.ones((4, 2), dtype=bool)
    want_keep[2, 0] = False
    np.testing.assert_array_equal(keep, want_keep)


def test_a_growing_workspace_frees_the_old_buffer_first():
    # after a unit whose pruning left buffer 0 at nearly the size the next
    # unit needs, growing it must not hold the old and new buffers at once
    old, new, other = (15 << 16, 1 << 20, 1 << 18)  # entries, 16 bytes each
    tracemalloc.start()
    try:
        ws = histories._Workspace()
        held = ws.take((old,))
        ws.take((other,), held)
        del held
        tracemalloc.reset_peak()
        ws.take((new,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (new + other) + (64 << 10)
    assert peak < 16 * (old + new + other)


@pytest.mark.parametrize("arm", ["fft", "dense"])
@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window",
    [
        # two groups of four a-chunks
        (13, 9, 8, 3, 2, "01"),
        # one step: step 1 is the streamed last step, in blocks of labels
        (13, 8, 7, 2, 1, "0101"),
        # four groups, step 1's feed bit set
        (12, 7, 5, 4, 3, "011"),
    ],
)
def test_step1_columns_view_one_read_only_build_per_run(
    monkeypatch, qubits, dot, left, right, steps, window, kind, arm
):
    # every unit's step 1 equals its own closed-form build bit for bit, and
    # the one g a run builds for it cannot be written through
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
    builds = []

    def counting(*args):
        builds.append(args)
        return column_g(*args)

    column_g = histories._column_g
    monkeypatch.setattr(histories, "_column_g", counting)
    block = make_block(qubits, dot, left, right, window)
    propagate_branches(block, steps, prune_eps=0.01, kind=kind, threads=2)
    assert len(builds) == 1
    frame = block_frame(block, steps, kind)
    start, g = frame.step1
    assert not g.flags.writeable and frame.step1[1] is g
    m = 1 << dot
    for group, a_lo, a_hi in _unit_list(frame):
        ws = histories._Workspace()
        got = histories._step(frame, 1, group, range(a_lo, a_hi), None, None, ws)
        want = bakermap.kernel_columns(dot, start + a_lo, start + a_hi)
        want = want[: None if frame.dense else m].T
        assert got.reshape(want.shape).tobytes() == np.ascontiguousarray(want).tobytes()
    assert not bakermap._bit0_columns(g, dot, 0, 1 << left).flags.writeable
    np.testing.assert_array_equal(g, column_g(dot, start, start + (1 << left)), strict=True)


@pytest.mark.parametrize("kind", ["full", "coarse"])
def test_a_fully_pruned_run_keeps_only_discarded_mass(kind):
    # prune_eps above 1 drops every branch of two groups of four a-chunks
    ens = propagate_branches(make_block(13, 9, 8, 3, "01"), 2, prune_eps=5.0, kind=kind)
    assert ens.paths.shape == (0, len(frame_of(ens).recorded)) and ens.blocks == ()
    assert abs(history_distribution(ens).total() - 1.0) < 1e-12
    assert offdiagonal_norm(ens) == (0.0, 0.0)


def test_threads_bit_identical(medium_full):
    ens4 = propagate_branches(make_block(8, 4, 2, 3, "010"), 2, prune_eps=0.0, threads=4)
    np.testing.assert_array_equal(ens4.paths, medium_full.paths, strict=True)
    assert np.array_equal(ens4.gram, medium_full.gram)


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("prune_eps", [0.0, 1e-3])
@pytest.mark.parametrize("cap", [1 << 18, 0])
def test_a_shrunk_chunk_moves_only_last_digits(monkeypatch, cap, prune_eps, kind):
    # a lower block bound cuts the 64-label chunks of (15,9,8,4,3) into 16
    # (full) or 32 (coarse) labels (256 KiB) or single labels (0); only the
    # order of the label sums may change
    block = make_block(15, 9, 8, 4, "011")
    whole = propagate_branches(block, 3, prune_eps=prune_eps, kind=kind)
    assert frame_of(whole).chunk == histories._CHUNK
    monkeypatch.setattr(histories, "_BLOCK_BYTES", cap)
    cut = [
        propagate_branches(block, 3, prune_eps=prune_eps, kind=kind, threads=threads)
        for threads in (1, 2)
    ]
    assert frame_of(cut[0]).chunk < histories._CHUNK
    if prune_eps:
        assert whole.discarded_total > 0.0
    # the chunk follows the geometry, not the thread count
    np.testing.assert_array_equal(cut[0].paths, cut[1].paths, strict=True)
    assert (cut[0].discarded_total, cut[0].cross_bound) == (cut[1].discarded_total, cut[1].cross_bound)
    for (pos, matrix), (pos1, matrix1) in zip(cut[0].blocks, cut[1].blocks, strict=True):
        np.testing.assert_array_equal(pos, pos1)
        assert matrix.tobytes() == matrix1.tobytes()
    ens = cut[0]
    np.testing.assert_array_equal(ens.paths, whole.paths, strict=True)
    for (pos, matrix), (want_pos, want) in zip(ens.blocks, whole.blocks, strict=True):
        np.testing.assert_array_equal(pos, want_pos)
        np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ens.probabilities, whole.probabilities, rtol=0, atol=1e-12)
    assert abs(ens.discarded_total - whole.discarded_total) <= 1e-12
    assert abs(ens.cross_bound - whole.cross_bound) <= 1e-12


@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window,eps",
    [
        (7, 3, 1, 3, 2, "010", 0.01),
        (8, 4, 1, 3, 2, "0110", 1e-3),
        (9, 4, 2, 4, 3, "011", 0.01),
        (10, 5, 4, 4, 3, "01", 0.01),
    ],
)
def test_pruned_marginal_stays_within_the_derived_bound(
    qubits, dot, left, right, steps, window, eps
):
    # the final-window marginal of a pruned full ensemble misses conservation
    # by the cross terms of its pruned branches, far more than rounding; the
    # bound discarded + sum w (2S + S**2) must hold against the dense oracle
    block = make_block(qubits, dot, left, right, window)
    ens = propagate_branches(block, steps, prune_eps=eps)
    marginal, discarded, cross = dense_pruned_marginal(block, steps, eps)
    assert abs(ens.discarded_total - discarded) < 1e-12
    assert abs(ens.cross_bound - cross) < 1e-12
    dist = history_distribution(ens, kind="coarse")
    assert abs(dist.probabilities.sum() - marginal) < 1e-12
    miss = abs(marginal + discarded - 1.0)
    assert 1e-6 < miss <= discarded + cross


def test_marginal_tolerance_is_the_pruned_bound(medium_full):
    # unpruned the bound is 0 and the floor alone remains; pruned, the check
    # passes with either term of the bound and fails without both
    assert medium_full.cross_bound == 0.0
    ens = propagate_branches(make_block(8, 4, 1, 3, "0110"), 2, prune_eps=1e-3)
    for term in ("discarded_total", "cross_bound"):
        history_distribution(dataclasses.replace(ens, **{term: 0.0}), kind="coarse")
    bare = dataclasses.replace(ens, discarded_total=0.0, cross_bound=0.0)
    with pytest.raises(InvariantError, match="within 1e-09"):
        history_distribution(bare, kind="coarse")


def test_propagate_rejects_bad_parameters():
    block = make_block(8, 4, 2, 3, "010")
    with pytest.raises(ParameterError, match="kind"):
        propagate_branches(block, 2, kind="partial")
    with pytest.raises(ParameterError, match="prune_eps"):
        propagate_branches(block, 2, prune_eps=-1e-9)
    with pytest.raises(ParameterError, match="threads"):
        propagate_branches(block, 2, threads=0)
    with pytest.raises(ParameterError, match="steps < right"):
        propagate_branches(block, 3)


def test_budget_gate():
    block = make_block(8, 4, 2, 3, "010")
    with pytest.raises(ResourceLimitError, match="over budget"):
        propagate_branches(block, 2, budget_bytes=1 << 10)
    big = make_block(21, 10, 9, 10, "01")
    with pytest.raises(ResourceLimitError, match="over budget") as refused:
        propagate_branches(big, 9)
    # the message names the largest item and its size
    what, size = max(histories._estimate_bytes(block_frame(big, 9, "full"), 1), key=lambda i: i[1])
    assert f"(largest item: {what}, {histories._byte_count(size)} bytes)" in str(refused.value)


def block_frame(block, steps, kind):
    graining = block.graining
    return histories._Frame(
        graining.shape.qubits, graining.shape.dot, graining.left, graining.kept, steps,
        block.window, kind,
    )


def frame_of(ens):
    """The _Frame of the run that made the ensemble."""
    return block_frame(ens.block, ens.steps, ens.kind)


def _projected_bytes(block, steps, kind, threads):
    frame = block_frame(block, steps, kind)
    return sum(size for _, size in histories._estimate_bytes(frame, threads))


_BUDGET_CASES = [
    # contraction widths below _FFT_MIN_WIDTH: the dense arm
    (8, 4, 2, 3, 2, "010", None),
    (12, 7, 5, 4, 3, "001", None),
    (12, 5, 1, 5, 2, "011010", None),
    # widths at or above it: the FFT
    (13, 9, 8, 3, 2, "01", None),
    (15, 9, 8, 4, 3, "011", None),
    # a wide window: 2**7 final window values
    (16, 8, 1, 3, 2, "011010011010", None),
    # a lower _BLOCK_BYTES: chunks of 16 (full) or 32 (coarse) labels, and of one
    (15, 9, 8, 4, 3, "011", 1 << 18),
    (15, 9, 8, 4, 3, "011", 0),
    # the four-step sweep point at left 8: a last step of 8 (full) or 4
    # (coarse) blocks per unit, after a 2 MiB penultimate step
    (18, 9, 8, 8, 4, "01", None),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window,cap",
    _BUDGET_CASES,
    ids=["-".join(map(str, case[:6] if case[6] is None else case)) for case in _BUDGET_CASES],
)
def test_budget_bounds_the_traced_peak(
    monkeypatch, qubits, dot, left, right, steps, window, cap, kind, prune_eps, threads
):
    block = make_block(qubits, dot, left, right, window)
    if cap is not None:
        monkeypatch.setattr(histories, "_BLOCK_BYTES", cap)
        assert block_frame(block, steps, kind).chunk < min(histories._CHUNK, 1 << left)
    tracemalloc.start()
    try:
        propagate_branches(block, steps, prune_eps=prune_eps, kind=kind, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _projected_bytes(block, steps, kind, threads)


def _take_bounds(frame):
    """The largest step buffer and Gram operand pair the histories module
    docstring allows a thread: two and one blocks, unless one label's last
    step output, or its Gram operands, are larger."""
    label = 16 * frame.step_output(frame.steps, 1)
    bound = histories._BLOCK_BYTES
    return max(2 * bound, label), max(bound, 2 * label >> frame.qwidth)


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window,cap",
    _BUDGET_CASES,
    ids=["-".join(map(str, case[:6] if case[6] is None else case)) for case in _BUDGET_CASES],
)
def test_a_thread_holds_what_the_block_bound_allows(
    monkeypatch, qubits, dot, left, right, steps, window, cap, kind
):
    # every array a propagation thread reuses is one of its _Workspace's
    # buffers: two step buffers and one for the last step's Gram operands
    if cap is not None:
        monkeypatch.setattr(histories, "_BLOCK_BYTES", cap)
    frame = block_frame(make_block(qubits, dot, left, right, window), steps, kind)
    step_bound, operand_bound = _take_bounds(frame)
    take = histories._Workspace.take
    operands = []

    def checked(ws, shape, *busy):
        out = take(ws, shape, *busy)
        if len(busy) == 2:  # _run_unit's operands, beside amp and a block's output
            operands.append(out.nbytes)
            assert out.nbytes <= operand_bound
        steps_held, last_held, operand_held = (buf.nbytes for buf in ws._bufs)
        assert max(steps_held, last_held) <= step_bound and operand_held <= operand_bound
        return out

    monkeypatch.setattr(histories._Workspace, "take", checked)
    propagate_branches(make_block(qubits, dot, left, right, window), steps, kind=kind, threads=2)
    # the FFT arm takes a one-row unit's Gram blocks from its norms
    assert bool(operands) == (frame.dense or frame.last_place > 1)


def _package_env():
    # a child process's environment, with this package first on its path
    src = str(Path(histories.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_budget_holds_for_the_first_propagation_of_a_process():
    # the budget counts what a run allocates, so the first propagation in a
    # fresh interpreter must not pull in a numpy submodule (np.unique imports
    # numpy.ma, np.strings imports numpy.strings); run the smallest budget
    # case as the only test of a new process
    case = "test_budget_bounds_the_traced_peak[8-4-2-3-2-010-full-0.0-1]"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::{case}"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stdout[-2000:]


_FIRST_FFT_RUN = """
import tracemalloc
from qbaker import BlockInitialState, CoarseGraining, SystemShape, histories, propagate_branches
histories._BLOCK_BYTES = 0
block = BlockInitialState(CoarseGraining(SystemShape(15, 9), 8, 4), "011")
frame = histories._Frame(15, 9, 8, 3, 3, "011", "coarse")
tracemalloc.start()
propagate_branches(block, 3, prune_eps=0.0, kind="coarse", threads=1)
print(tracemalloc.get_traced_memory()[1])
print(sum(size for _, size in histories._estimate_bytes(frame, 1)))
"""


def test_budget_holds_for_the_first_fft_propagation_of_a_process():
    # numpy 2 imports numpy.fft on its first use, and pytest has already
    # loaded it, so the FFT case runs in a plain fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_FFT_RUN], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    peak, estimate = map(int, proc.stdout.split())
    assert peak <= estimate


def test_budget_counts_the_python_objects_of_small_matrices():
    # a coarse run that grows 16 groups of 256 one-entry Gram matrices: each
    # also holds some 510 bytes of Python objects, without which the estimate
    # falls below half the traced peak
    block = make_block(18, 8, 0, 9, "0" * 9)
    assert block_frame(block, 6, "coarse").mirror == 16
    tracemalloc.start()
    try:
        propagate_branches(block, 6, prune_eps=0.0, kind="coarse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _projected_bytes(block, 6, "coarse", 1)


def test_coarse_kind_needs_no_dense_gram():
    # 4096 paths: a dense n x n Gram matrix alone would take 256 MiB
    block = make_block(22, 11, 1, 3, "01" * 9)
    ens = propagate_branches(block, 2, kind="coarse", budget_bytes=16 << 20)
    assert len(ens.paths) == 4096
    assert abs(history_distribution(ens).total() - 1.0) < 1e-10


def test_default_budget_admits_the_left_10_sweep_point():
    # sweep geometry at left 10: qubits 22, dot 11, right 10, a 2-bit window
    block = make_block(22, 11, 10, 10, "01")
    for threads in (1, 2, 8):
        assert _projected_bytes(block, 3, "full", threads) <= histories.DEFAULT_BUDGET_BYTES


def test_default_budget_admits_six_steps_of_the_left_8_sweep_point():
    # sweep geometry at left 8: qubits 18, dot 9, right 8; at 64 labels a
    # unit's last output (its fresh-bit-0 half) would be 512 MiB, and the run
    # was refused at 5.4 GB.  In units of one label it projects 53407616
    # bytes at 2 threads, and a run under tracemalloc peaked at 39957543
    block = make_block(18, 9, 8, 8, "01")
    assert block_frame(block, 6, "full").chunk == 1
    for threads in (1, 2, 8):
        assert _projected_bytes(block, 6, "full", threads) <= histories.DEFAULT_BUDGET_BYTES


def test_default_budget_admits_eight_steps_of_the_left_8_sweep_point():
    # eight steps at left 8 need right 9, one more trailing qubit than the
    # sweep gives; README's 8-step run, 4612 s under tracemalloc, is admitted
    block = make_block(19, 9, 8, 9, "01")
    for threads in (1, 2):
        assert _projected_bytes(block, 8, "full", threads) <= histories.DEFAULT_BUDGET_BYTES


def test_default_budget_admits_five_steps_of_a_six_bit_window():
    # 32768 paths: the dense Gram matrix alone would be 16 GiB
    block = make_block(16, 6, 4, 6, "110111")
    for threads in (1, 2, 8):
        assert _projected_bytes(block, 5, "full", threads) <= histories.DEFAULT_BUDGET_BYTES


def test_branch_reconstruction_gate():
    ens = propagate_branches(make_block(21, 10, 1, 9, "0" * 11), 1, prune_eps=0.0)
    label = "0" * 21
    with pytest.raises(ResourceLimitError, match="reconstruction"):
        branch_vector(ens, label, word_paths(ens.paths, frame_of(ens).kept)[0])


@st.composite
def _geometries(draw, max_qubits=10):
    qubits = draw(st.integers(5, max_qubits))
    dot = draw(st.integers(1, qubits - 3))
    left = draw(st.integers(0, dot - 1))
    right = draw(st.integers(2, qubits - dot - 1))
    kept = qubits - left - right
    steps = draw(st.integers(1, right - 1))
    window = draw(st.text("01", min_size=kept, max_size=kept))
    return qubits, dot, left, right, steps, window


@settings(max_examples=30, deadline=None)
@given(geometry=_geometries(), prune_eps=st.sampled_from([0.0, 1e-3]))
# every valid geometry has nomega = min(steps, left + kept - dot) > 0; these
# pin freeq = dot + steps - left - kept > 0 pruned and unpruned, and freeq = 0
@example(geometry=(7, 3, 1, 3, 2, "010"), prune_eps=0.0)
@example(geometry=(8, 4, 1, 3, 2, "0110"), prune_eps=1e-3)
@example(geometry=(6, 3, 1, 2, 1, "101"), prune_eps=0.0)
def test_random_geometries_keep_the_invariants(geometry, prune_eps):
    qubits, dot, left, right, steps, window = geometry
    # the dense reference grows each of 2**(qubits - kept) labels into
    # 2**(kept * steps) branches
    assume(len(window) * (steps - 1) + qubits <= 14)
    block = make_block(qubits, dot, left, right, window)
    tol = 1e-10 if prune_eps == 0 else 1e-9
    ens = {
        k: propagate_branches(block, steps, prune_eps=prune_eps, kind=k)
        for k in ("full", "coarse")
    }
    for kind, e in ens.items():
        g = e.gram
        np.testing.assert_allclose(g, g.conj().T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() >= -1e-9
        assert abs(history_distribution(e).total() - 1.0) <= tol
        for disc, kept in label_masses(e).values():
            assert abs(disc + kept - 1.0) <= tol
        if prune_eps == 0:
            keys, gmat = dense_gram(block, steps, kind)
            index = {p: i for i, p in enumerate(word_paths(e.paths, frame_of(e).kept))}
            assert set(index) <= set(keys)
            for ya, yb in itertools.product(keys, keys):
                ia, ib = index.get(ya), index.get(yb)
                got = 0j if ia is None or ib is None else g[ia, ib]
                assert abs(got - gmat[(ya, yb)]) <= 1e-10
    if prune_eps == 0:
        full, coarse = ens["full"], ens["coarse"]
        finals = sorted(
            {p[-1] for p in word_paths(full.paths, frame_of(full).kept)}
            | {p[0] for p in word_paths(coarse.paths, frame_of(coarse).kept)}
        )
        for y, z in itertools.product(finals, finals):
            assert abs(coarse_dfunc(full, y, z) - coarse_dfunc(coarse, y, z)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    geometry=_geometries(max_qubits=12),
    prune_eps=st.sampled_from([1e-3, 1e-2]),
    arm=st.sampled_from(["fft", "dense"]),
)
# pruned on either arm, and mirrored through the FFT at freeq 2 and 3
@example(geometry=(8, 4, 1, 3, 2, "0110"), prune_eps=1e-3, arm="dense")
@example(geometry=(9, 4, 2, 4, 3, "011"), prune_eps=1e-2, arm="fft")
@example(geometry=(11, 5, 2, 5, 4, "0110"), prune_eps=1e-3, arm="fft")
def test_pruning_only_lowers_probabilities_and_books_what_it_drops(geometry, prune_eps, arm):
    # every retained probability q_y of a pruned kind-"full" run is at most the
    # exact p_y, and the probability it drops, sum(p - q), is discarded_total
    qubits, dot, left, right, steps, window = geometry
    block = make_block(qubits, dot, left, right, window)
    assume(_projected_bytes(block, steps, "full", 1) <= 64 << 20)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
        exact = propagate_branches(block, steps, prune_eps=0.0)
        assume(len(exact.paths) <= 4096)
        pruned = propagate_branches(block, steps, prune_eps=prune_eps)
        assert block_frame(block, steps, "full").dense == (arm == "dense" and steps > 1)
    p = dict(zip(map(tuple, exact.paths.tolist()), exact.probabilities.tolist()))
    q = dict(zip(map(tuple, pruned.paths.tolist()), pruned.probabilities.tolist()))
    assert set(q) <= set(p)
    assert all(q[y] <= p[y] + 1e-15 for y in q)
    dropped = math.fsum(p[y] - q.get(y, 0.0) for y in p)
    assert abs(dropped - pruned.discarded_total) <= 1e-12


def dense_coarse_dfunc(ens, gram, y, z):
    """coarse_dfunc of a kind-"full" ensemble, summed over the dense gram view."""
    finals = np.array([p[-1] for p in word_paths(ens.paths, frame_of(ens).kept)], dtype=str)
    rows, cols = np.flatnonzero(finals == y), np.flatnonzero(finals == z)
    if not rows.size or not cols.size:
        return 0j
    return complex(gram[np.ix_(rows, cols)].sum())


def dense_offdiagonal_norm(ens, gram):
    """offdiagonal_norm over the dense gram view, zeros included."""
    n = len(ens.paths)
    if n < 2:
        return 0.0, 0.0
    mags = np.abs(gram)[~np.eye(n, dtype=bool)]
    return float(mags.max()), math.sqrt(math.fsum((mags * mags).tolist()) / (n * (n - 1)))


@settings(max_examples=40, deadline=None)
@given(
    geometry=_geometries(max_qubits=12),
    kind=st.sampled_from(["full", "coarse"]),
    prune_eps=st.sampled_from([0.0, 1e-3, 0.01]),
    data=st.data(),
)
def test_block_functionals_equal_the_dense_view_exactly(geometry, kind, prune_eps, data):
    # the functionals read the Gram blocks; each must give the bits that the
    # same formula gives on the dense matrix the blocks assemble into
    qubits, dot, left, right, steps, window = geometry
    block = make_block(qubits, dot, left, right, window)
    assume(_projected_bytes(block, steps, kind, 1) <= 64 << 20)
    ens = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    assume(len(ens.paths) <= 1024)
    gram = ens.gram
    np.testing.assert_array_equal(ens.probabilities, gram.diagonal().real)
    assert offdiagonal_norm(ens) == dense_offdiagonal_norm(ens, gram)
    # every path with itself, and pairs drawn from the paths plus absent keys
    words = ["".join(b) for b in itertools.product("01", repeat=len(window))]
    width = steps if kind == "full" else 1
    paths = word_paths(ens.paths, frame_of(ens).kept)
    index = {p: i for i, p in enumerate(paths)}
    keys = list(paths) + [
        tuple(data.draw(st.sampled_from(words)) for _ in range(width)) for _ in range(4)
    ]
    pairs = [(p, p) for p in paths] + [
        (data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))) for _ in range(64)
    ]
    for ykey, zkey in pairs:
        i, j = index.get(ykey), index.get(zkey)
        want = 0j if i is None or j is None else complex(gram[i, j])
        if kind == "full":
            assert full_dfunc(ens, ykey, zkey) == want
        else:
            assert coarse_dfunc(ens, ykey[0], zkey[0]) == want
    if kind == "full":
        finals = sorted({p[-1] for p in paths})[:6] + [data.draw(st.sampled_from(words))]
        for y, z in itertools.product(finals, finals):
            assert coarse_dfunc(ens, y, z) == dense_coarse_dfunc(ens, gram, y, z)


@settings(max_examples=40, deadline=None)
@given(
    geometry=_geometries(max_qubits=12),
    kind=st.sampled_from(["full", "coarse"]),
    prune_eps=st.sampled_from([0.0, 0.01]),
    arm=st.sampled_from(["fft", "dense"]),
    seed=st.integers(0, 1 << 16),
)
# mirrored (freeq 2 and 3 through the FFT), pruned and unpruned
@example(geometry=(9, 4, 2, 4, 3, "011"), kind="full", prune_eps=0.01, arm="fft", seed=0)
@example(geometry=(11, 5, 2, 5, 4, "0110"), kind="coarse", prune_eps=0.0, arm="fft", seed=0)
def test_integer_paths_format_to_the_string_oracles_words(geometry, kind, prune_eps, arm, seed):
    # the same run named by the engine and by string_path_keys: the integer
    # rows format to the oracle's sorted word tuples, every block sits at the
    # same positions, and the functionals read the same entries
    qubits, dot, left, right, steps, window = geometry
    block = make_block(qubits, dot, left, right, window)
    assume(_projected_bytes(block, steps, kind, 1) <= 64 << 20)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
        ens = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
        patch.setattr(histories, "_path_keys", string_path_keys)
        named = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    assume(len(named.paths) <= 512)
    assert word_paths(ens.paths, len(window)) == named.paths
    for (at, got), (want_at, want) in zip(ens.blocks, named.blocks, strict=True):
        np.testing.assert_array_equal(at, want_at, strict=True)
        np.testing.assert_array_equal(got, want, strict=True)
    np.testing.assert_array_equal(ens.probabilities, named.probabilities, strict=True)
    # every path with itself, and pairs drawn from the paths plus an absent key
    rng = np.random.default_rng(seed)
    words = [format(w, f"0{len(window)}b") for w in range(1 << len(window))]
    width = steps if kind == "full" else 1
    keys = list(named.paths) + [tuple(rng.choice(words, width).tolist())]
    pairs = [(p, p) for p in named.paths] + [
        (keys[i], keys[j]) for i, j in rng.integers(len(keys), size=(32, 2))
    ]
    for ykey, zkey in pairs:
        if kind == "full":
            assert full_dfunc(ens, ykey, zkey) == string_full_dfunc(named, ykey, zkey)
        assert coarse_dfunc(ens, ykey[-1], zkey[-1]) == string_coarse_dfunc(named, ykey[-1], zkey[-1])
    if kind == "full":
        marginal = history_distribution(ens, kind="coarse")
        finals = sorted({p[-1] for p in named.paths})
        assert word_paths(marginal.paths, len(window)) == tuple((w,) for w in finals)
        want = [string_coarse_dfunc(named, w, w).real for w in finals]
        np.testing.assert_array_equal(marginal.probabilities, np.clip(want, 0.0, None))


def test_functional_lookup_validation(medium_full, medium_coarse):
    with pytest.raises(ParameterError, match="kind='full'"):
        full_dfunc(medium_coarse, ("000", "000"), ("000", "000"))
    with pytest.raises(ParameterError, match="window value"):
        full_dfunc(medium_full, ("000",), ("000",))
    with pytest.raises(ParameterError, match="bits"):
        full_dfunc(medium_full, ("0000", "000"), ("000", "000"))
    with pytest.raises(ParameterError, match="bits"):
        coarse_dfunc(medium_full, "00", "000")
    with pytest.raises(ParameterError, match="bits"):
        coarse_dfunc(medium_coarse, "00", "000")


def test_label_validation(medium_full):
    with pytest.raises(ParameterError, match="label"):
        decode_label(medium_full, "0" * 7)
    with pytest.raises(ParameterError, match="window"):
        # window slice of the label must match the block window "010"
        decode_label(medium_full, "00110000")


def test_distribution_kind_validation(medium_full, medium_coarse):
    with pytest.raises(ParameterError, match="cannot refine"):
        history_distribution(medium_coarse, kind="full")
    with pytest.raises(ParameterError, match="kind"):
        history_distribution(medium_full, kind="middling")


def test_entropy_examples():
    def dist(*probs):
        return HistoryDistribution(
            paths=np.arange(len(probs)).reshape(-1, 1),
            probabilities=np.array(probs),
            discarded=0.0,
        )

    assert entropy_bits(dist(1.0)) == 0.0
    assert abs(entropy_bits(dist(0.5, 0.5)) - 1.0) < 1e-15
    assert abs(entropy_bits(dist(0.25, 0.25, 0.25, 0.25)) - 2.0) < 1e-15
    assert entropy_bits(dist(1.0, 0.0, 1e-16)) == 0.0


def test_offdiagonal_norm_returns_max_and_rms(medium_full):
    mx, rms = offdiagonal_norm(medium_full)
    assert 0.0 < rms <= mx
    single = dataclasses.replace(
        medium_full, paths=medium_full.paths[:1], blocks=((np.zeros((1, 1), int), np.ones((1, 1))),)
    )
    assert offdiagonal_norm(single) == (0.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_offdiagonal_norm_equals_the_masked_reference(medium_full, n):
    rng = np.random.default_rng(n)
    gram = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram[rng.random((n, n)) < 0.5] = 0
    ens = dataclasses.replace(
        medium_full, paths=medium_full.paths[:n], blocks=((np.arange(n)[None, :], gram.copy()),)
    )
    mags = np.abs(gram)[~np.eye(n, dtype=bool)]
    assert offdiagonal_norm(ens) == (mags.max(), np.sqrt(math.fsum(mags**2) / (n * (n - 1))))
    np.testing.assert_array_equal(ens.gram, gram)


def test_offdiagonal_norm_sums_its_squares_without_a_list_of_floats(medium_full):
    # math.fsum reads one block's squares at a time, as lists of at most
    # 4096 floats: magnitudes, kept entries and squares, 24 bytes a term of
    # one block at the peak (traced); a Python list of all the squares and
    # its concatenated source would take 64, and four blocks' squares kept
    # at once 96
    rng = np.random.default_rng(3)
    for n, count in ((1024, 1), (512, 4)):
        grams = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        blocks = tuple((np.arange(k * n, (k + 1) * n)[None, :], grams[k]) for k in range(count))
        paths = np.zeros((n * count, 2), dtype=np.int64)
        ens = dataclasses.replace(medium_full, paths=paths, blocks=blocks)
        tracemalloc.start()
        try:
            offdiagonal_norm(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * n * n


def test_ideal_coarse_value():
    assert ideal_coarse_value("01", "01", 2) == 0.25
    assert ideal_coarse_value("01", "10", 2) == 0.0
    assert ideal_coarse_value("1", "1", 1) == 0.5
    # empty cores compare equal, as in the fully-consumed-window regime
    assert ideal_coarse_value("", "", 2) == 0.25
    with pytest.raises(ParameterError, match="equal length"):
        ideal_coarse_value("01", "010", 1)
    with pytest.raises(ParameterError, match="steps"):
        ideal_coarse_value("0", "0", -1)


def test_ideal_full_value_examples():
    assert ideal_full_value("011", ("110",), ("110",)) == 0.5
    assert ideal_full_value("011", ("010",), ("010",)) == 0.0
    assert ideal_full_value("011", ("110",), ("111",)) == 0.0
    assert ideal_full_value("01", ("10", "01"), ("10", "01")) == 0.25
    assert ideal_full_value("01", ("10", "00"), ("10", "00")) == 0.25
    assert ideal_full_value("01", ("10", "10"), ("10", "10")) == 0.0
    with pytest.raises(ParameterError, match="equal length"):
        ideal_full_value("01", ("10",), ("10", "01"))
    with pytest.raises(ParameterError, match="width"):
        ideal_full_value("01", ("100",), ("100",))


def test_ideal_full_value_alternate_form():
    # equivalent formulation: chain the windows pairwise and pin each
    # window's leading bits against the initial window directly
    def alternate(x, ys):
        g = len(x)
        k = len(ys)
        for j in range(1, k):
            if ys[j][: g - 1] != ys[j - 1][1:]:
                return 0.0
            if ys[j - 1][0] != x[j]:
                return 0.0
        if ys[k - 1][: g - k] != x[k:]:
            return 0.0
        return 2.0**-k

    words = ["".join(b) for b in itertools.product("01", repeat=3)]
    for x in words:
        for ys in itertools.product(words, repeat=2):
            assert ideal_full_value(x, ys, ys) == alternate(x, ys)


@pytest.mark.parametrize("qubits,dot,left,right", [(10, 5, 4, 4), (12, 6, 5, 5)])
def test_dominant_paths_are_shift_consistent(qubits, dot, left, right):
    block = make_block(qubits, dot, left, right, "01")
    ens = propagate_branches(block, 2, prune_eps=0.0)
    dist = history_distribution(ens)
    for path, p in zip(word_paths(dist.paths, 2), dist.probabilities):
        if p > 0.02:
            assert ideal_full_value("01", path, path) > 0.0


def test_entropy_bounds():
    block = make_block(10, 5, 4, 4, "01")
    for steps in (1, 2, 3):
        full = history_distribution(propagate_branches(block, steps, prune_eps=0.0))
        h = entropy_bits(full)
        assert 0.0 <= h <= block.graining.kept * steps
        coarse = history_distribution(
            propagate_branches(block, steps, prune_eps=0.0, kind="coarse")
        )
        assert 0.0 <= entropy_bits(coarse) <= block.graining.kept


def test_entropy_bits_of_an_engine_distribution_is_a_python_float():
    # the probabilities are a float64 array, whose items would make a
    # running sum np.float64
    dist = history_distribution(propagate_branches(make_block(8, 4, 2, 3, "010"), 2))
    assert type(dist.probabilities) is np.ndarray
    assert type(entropy_bits(dist)) is float


def test_distribution_total_includes_discarded():
    dist = HistoryDistribution(
        paths=np.array([[0], [1]]), probabilities=np.array([0.5, 0.25]), discarded=0.25
    )
    assert dist.total() == 1.0


_AGREE_CASES = [
    # (kind, qubits, dot, left, right, steps, window, prune_eps)
    ("full", 13, 9, 8, 3, 2, "01", 0.0),
    ("coarse", 13, 9, 8, 3, 2, "01", 0.0),
    # three steps: the FFT run carries only the fresh-bit-0 half through
    # steps 2 and 3, over several runs of rows on kind "full"; pruning zeroes
    # and drops rows between them
    ("full", 15, 9, 8, 4, 3, "011", 0.0),
    ("coarse", 15, 9, 8, 4, 3, "011", 0.0),
    ("full", 15, 9, 8, 4, 3, "011", 1e-3),
    ("coarse", 15, 9, 8, 4, 3, "011", 1e-3),
]


@pytest.mark.parametrize(
    "kind,qubits,dot,left,right,steps,window,prune_eps",
    _AGREE_CASES,
    ids=[case[0] if case[1] == 13 else "-".join(map(str, case)) for case in _AGREE_CASES],
)
def test_fft_and_dense_contractions_agree(
    monkeypatch, kind, qubits, dot, left, right, steps, window, prune_eps
):
    # contraction widths 2**8 (full) and 2**9 (coarse) both reach the FFT
    block = make_block(qubits, dot, left, right, window)
    fft_calls = []
    apply_columns = histories.apply_columns

    def counting(*args, **kwargs):
        fft_calls.append(1)
        return apply_columns(*args, **kwargs)

    monkeypatch.setattr(histories, "apply_columns", counting)
    # the FFT run also sends every Gram product to BLAS, the dense run none
    monkeypatch.setattr(histories, "_GEMM_MIN_MACS", 0)
    via_fft = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    assert fft_calls
    fft_calls.clear()
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 1 << 30)
    monkeypatch.setattr(histories, "_GEMM_MIN_MACS", 1 << 62)
    via_dense = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    assert not fft_calls
    np.testing.assert_array_equal(via_fft.paths, via_dense.paths, strict=True)
    np.testing.assert_allclose(via_fft.gram, via_dense.gram, rtol=0, atol=1e-12)
    np.testing.assert_allclose(via_fft.probabilities, via_dense.probabilities, rtol=0, atol=1e-12)
    assert (via_fft.discarded_total > 0) == (prune_eps > 0)
    assert via_fft.discarded_total == pytest.approx(via_dense.discarded_total, rel=0, abs=1e-12)
    assert (via_fft.cross_bound > 0) == (prune_eps > 0)
    assert via_fft.cross_bound == pytest.approx(via_dense.cross_bound, rel=0, abs=1e-12)


@st.composite
def _freeq_geometries(draw, freeq):
    """A valid geometry whose freeq is 0, 1, or (freeq=2) at least 2, with 2-4 steps."""
    steps = draw(st.integers(max(2, freeq + 1), 4))
    if freeq == 2:
        freeq = draw(st.integers(2, steps - 1))
    qwidth = draw(st.integers(1, 2))
    left = draw(st.integers(0, 3))
    # freeq = dot + steps - left - kept, clipped at 0
    kept = qwidth + steps - freeq + (draw(st.integers(0, 1)) if freeq == 0 else 0)
    right = draw(st.integers(steps + 1, steps + 2))
    window = draw(st.text("01", min_size=kept, max_size=kept))
    return left + kept + right, left + qwidth, left, right, steps, window


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("freeq", [0, 1, 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), prune_eps=st.sampled_from([0.0, 1e-3]))
def test_fft_runs_of_any_freeq_match_the_dense_arm(freeq, kind, data, prune_eps):
    # every run goes through the FFT, mirrored when freeq >= 1, against the
    # dense arm, which grows every group
    qubits, dot, left, right, steps, window = data.draw(_freeq_geometries(freeq))
    block = make_block(qubits, dot, left, right, window)
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        for arm, width in (("fft", 0), ("dense", 1 << 30)):
            patch.setattr(histories, "_FFT_MIN_WIDTH", width)
            runs[arm] = propagate_branches(block, steps, prune_eps=prune_eps, kind=kind)
    via_fft, via_dense = runs["fft"], runs["dense"]
    assert min(frame_of(via_fft).freeq, 2) == freeq
    np.testing.assert_array_equal(via_fft.paths, via_dense.paths, strict=True)
    for (at, got), (want_at, want) in zip(via_fft.blocks, via_dense.blocks, strict=True):
        np.testing.assert_array_equal(at, want_at)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(via_fft.probabilities, via_dense.probabilities, rtol=0, atol=1e-12)
    assert via_fft.discarded_total == pytest.approx(via_dense.discarded_total, rel=0, abs=1e-12)
    assert via_fft.cross_bound == pytest.approx(via_dense.cross_bound, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", ["full", "coarse"])
def test_a_mirrored_run_grows_only_the_groups_below_the_top_bit(monkeypatch, kind):
    # freeq 2: through the FFT, groups 2 and 3 are groups 0 and 1 with the
    # last feed bit set, so only 0 and 1 are grown; the dense arm grows all four
    block = make_block(9, 4, 2, 4, "011")
    run_unit = histories._run_unit
    grown = []

    def recording(frame, prune_eps, unit, ws):
        grown.append(unit[0])
        return run_unit(frame, prune_eps, unit, ws)

    monkeypatch.setattr(histories, "_run_unit", recording)
    for width, groups in ((0, {0, 1}), (1 << 30, {0, 1, 2, 3})):
        monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", width)
        frame = block_frame(block, 3, kind)
        assert frame.freeq == 2 and frame.dense == bool(width)
        grown.clear()
        ens = propagate_branches(block, 3, prune_eps=1e-3, kind=kind)
        assert set(grown) == groups
        assert abs(history_distribution(ens).total() - 1.0) < 1e-9


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("arm", ["fft", "dense"])
def test_a_partner_block_is_its_groups_read_only_matrix(monkeypatch, arm, kind):
    # on a mirrored kind "full" run the blocks of group g | mirror are group
    # g's matrices, the top bit of the last window value flipped, so no block
    # matrix may be written; the dense arm grows every group, and a kind
    # "coarse" block sums all groups, so their matrices are all distinct
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
    ens = propagate_branches(make_block(9, 4, 2, 4, "011"), 3, kind=kind)
    frame = frame_of(ens)
    assert frame.mirror == (2 if arm == "fft" else 0)
    h_count = 1 << frame.qwidth
    # unpruned, every (table, last window value) is a block, in that order
    matrices = [matrix for _, matrix in ens.blocks]
    assert len(matrices) == (1 if kind == "coarse" else 1 << frame.freeq) * h_count
    for matrix in matrices:
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
    distinct = len({id(matrix) for matrix in matrices})
    if arm == "dense" or kind == "coarse":
        assert distinct == len(matrices)
        return
    assert distinct == len(matrices) // 2
    for group, h in itertools.product(range(frame.mirror), range(h_count)):
        partner = (group | frame.mirror) * h_count + (h ^ h_count >> 1)
        assert matrices[partner] is matrices[group * h_count + h]


@pytest.mark.parametrize("prune_eps", [0.0, 1e-3])
@pytest.mark.parametrize("kind", ["full", "coarse"])
def test_a_halved_unit_carries_the_fresh_bit_0_half(monkeypatch, kind, prune_eps):
    # a unit of a run off the dense arm holds the half of the fresh
    # register where step 1's fresh bit, the fresh axis' leading digit, is 0;
    # the same unit on the dense arm holds both halves, and its bit-1 half is
    # its bit-0 half times each label's step-1 phase
    block = make_block(15, 9, 8, 4, "011")
    frame = block_frame(block, 3, kind)
    assert not frame.dense
    sent = []
    apply_columns = histories.apply_columns

    def recording(x, *args, **kwargs):
        sent.append(x.flags.c_contiguous)
        return apply_columns(x, *args, **kwargs)

    monkeypatch.setattr(histories, "apply_columns", recording)
    units = _unit_list(frame)
    halved = [materialized_unit(frame, prune_eps, unit) for unit in units]
    # every run of rows goes to the FFT as one contiguous block
    assert sent and all(sent)
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 1 << 30)
    assert frame.dense
    for unit, (disc, _, codes, amp) in zip(units, halved):
        want_disc, _, want_codes, whole = materialized_unit(frame, prune_eps, unit)
        np.testing.assert_array_equal(codes, want_codes)
        np.testing.assert_allclose(disc, want_disc, rtol=0, atol=1e-12)
        half = whole.shape[2] // 2
        # the fresh axis is half as wide
        assert amp.shape == whole[:, :, :half].shape
        np.testing.assert_allclose(amp, whole[:, :, :half], rtol=0, atol=1e-12)
        # equal up to the rounding of the dense products
        phase = step1_phase(frame, unit)[:, None, None]
        np.testing.assert_allclose(whole[:, :, half:], phase * whole[:, :, :half], rtol=0, atol=1e-15)
    assert any(disc.any() for disc, *_ in halved) == (prune_eps > 0)


@pytest.mark.parametrize("qubits,dot,left,right,window", [(8, 4, 2, 3, "010"), (13, 9, 8, 3, "01")])
def test_pruned_run_conserves_mass_and_leaves_the_twiddles_alone(qubits, dot, left, right, window):
    # pruning used to write through step-1 views of shared columns; the
    # twiddles an FFT run cached must be unchanged
    block = make_block(qubits, dot, left, right, window)
    ens = propagate_branches(block, 2, prune_eps=0.01)
    assert ens.discarded_total > 0.0
    assert abs(history_distribution(ens).total() - 1.0) < 1e-9
    for disc, kept in label_masses(ens).values():
        assert abs(disc + kept - 1.0) < 1e-9
    assert frame_of(ens).dense == (dot == 4)
    if not frame_of(ens).dense:
        shared = bakermap._step_twiddles(dot)
        fresh = bakermap._step_twiddles.__wrapped__(dot)
        for arr, want in zip(shared, fresh, strict=True):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, want)


def test_the_twiddle_cache_holds_one_dot():
    # coarse runs contract 2**dot columns, so dots 8 and 9 both reach the FFT
    for qubits, dot in ((12, 8), (13, 9)):
        block = make_block(qubits, dot, 2, 3, "0" * (qubits - 5))
        propagate_branches(block, 2, kind="coarse")
    assert bakermap._step_twiddles.cache_info().currsize == 1
    sizes = dict(histories._estimate_bytes(block_frame(block, 2, "coarse"), 1))
    # the item bounds the build, which holds more than the cache keeps
    tracemalloc.start()
    try:
        bakermap._step_twiddles.__wrapped__(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(v.nbytes for v in bakermap._step_twiddles(9)) < peak <= sizes["run builds"]


@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("arm", ["fft", "dense"])
def test_no_propagation_builds_the_transfer_kernel(monkeypatch, arm, kind, prune_eps):
    # the dense arm multiplies closed-form column blocks, and the FFT arm
    # (mirrored here, at freeq 2) applies them by transform; histories keeps
    # the name only for perfbench/traced.py to wrap
    assert histories.transfer_kernel is bakermap.transfer_kernel

    def refuse(dot):
        raise AssertionError(f"transfer_kernel({dot}) was built")

    for module in (bakermap, histories):
        monkeypatch.setattr(module, "transfer_kernel", refuse)
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 0 if arm == "fft" else 1 << 30)
    ens = propagate_branches(make_block(9, 4, 2, 4, "011"), 3, prune_eps=prune_eps, kind=kind)
    assert frame_of(ens).dense == (arm == "dense")
    assert frame_of(ens).mirror == (0 if arm == "dense" else 2)
    assert (ens.discarded_total > 0) == (prune_eps > 0)
    assert abs(history_distribution(ens).total() - 1.0) < 1e-9


def test_the_reduction_keeps_no_finished_units_results(monkeypatch):
    # with units run one at a time and in order, each unit is reduced before
    # the next starts, so at most the previous unit's arrays are still alive
    class Serial:
        # runs each unit as it is submitted
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    run_unit = histories._run_unit
    live, alive_at_start = set(), []

    def counting(frame, prune_eps, unit, ws):
        alive_at_start.append(len(live))
        result = run_unit(frame, prune_eps, unit, ws)
        live.add(unit)
        # result[4], the Gram accumulators, is the largest array a unit returns
        weakref.finalize(result[4], live.discard, unit)
        return result

    monkeypatch.setattr(histories, "ThreadPoolExecutor", Serial)
    monkeypatch.setattr(histories, "_run_unit", counting)
    propagate_branches(make_block(15, 9, 8, 4, "011"), 3, threads=1)
    assert len(alive_at_start) > 2
    assert max(alive_at_start) <= 1


def test_units_started_and_not_yet_added_stay_within_the_bound(monkeypatch):
    # a real 2-thread pool whose first unit sleeps: the other thread runs on
    # only while fewer than _AHEAD per thread are submitted and not yet added
    # in.  A unit counts as added once its results are freed
    monkeypatch.setattr(histories, "_CHUNK", 16)
    block = make_block(13, 9, 8, 3, "01")
    run_unit = histories._run_unit
    live, live_at_start = set(), []

    def counting(frame, prune_eps, unit, ws):
        live.add(unit)
        live_at_start.append(len(live))
        if unit[1] == 0:
            time.sleep(0.3)
        result = run_unit(frame, prune_eps, unit, ws)
        # result[4], the Gram accumulators, is the largest array a unit returns
        weakref.finalize(result[4], live.discard, unit)
        return result

    monkeypatch.setattr(histories, "_run_unit", counting)
    propagate_branches(block, 2, threads=2)
    assert len(live_at_start) == 16 and not live
    assert max(live_at_start) <= histories._AHEAD * 2


@pytest.mark.parametrize(
    "qubits,dot,left,right,window,kind,most_mib",
    [
        # the 2M x 2M kernel alone would be 64 MiB, three times the projection
        (14, 10, 6, 3, "01101", "full", 24),
        # a (2M, M) column block per thread is most of the traced peak
        (11, 7, 2, 3, "010101", "coarse", 2),
    ],
)
def test_a_dense_run_projects_no_kernel_and_stays_above_its_traced_peak(
    qubits, dot, left, right, window, kind, most_mib
):
    # a dense run holds one (2M, w) block of closed-form kernel columns per
    # thread and no kernel; the estimate must count the block, not the
    # kernel, and still bound what the run traces
    block = make_block(qubits, dot, left, right, window)
    frame = block_frame(block, 2, kind)
    assert frame.dense
    items = dict(histories._estimate_bytes(frame, 2))
    assert set(items) == {"step workspace", "unit accumulators", "path gram blocks", "run builds"}
    projected = sum(items.values())
    assert projected < most_mib << 20
    tracemalloc.start()
    try:
        propagate_branches(block, 2, prune_eps=0.0, kind=kind, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= projected

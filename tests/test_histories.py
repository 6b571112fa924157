"""Tests for branch propagation, functionals, and the asymptotic oracles."""

import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbaker import (
    BlockInitialState,
    CoarseGraining,
    HistoryDistribution,
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
    transfer_kernel,
)
from qbaker import histories

from _dense_reference import dense_branches, dense_gram

# largest register branch_vector rebuilds as a full 2**qubits vector
RECONSTRUCT_LIMIT = 20


def make_block(qubits, dot, left, right, window):
    return BlockInitialState(
        CoarseGraining(SystemShape(qubits, dot), left, right), window
    )


def decode_label(ens, label):
    """(low, group, omega) indices of an initial label of the ensemble's block."""
    frame = ens._frame
    if len(label) != frame.qubits or any(ch not in "01" for ch in label):
        raise ParameterError(f"label must be {frame.qubits} bits of '0'/'1', got {label!r}")
    window = label[frame.left : frame.left + frame.kept]
    if window != ens.block.window:
        raise ParameterError(
            f"label window {window!r} does not match block window {ens.block.window!r}"
        )
    low = histories._rev_int(label[: frame.left])
    group = histories._rev_int(label[frame.left + frame.kept : frame.dot + frame.steps])
    omega = histories._rev_int(label[frame.omega_start : frame.left + frame.kept + frame.steps])
    return low, group, omega


def _unit_kernel(ens):
    frame = ens._frame
    return transfer_kernel(frame.dot) if histories._needs_kernel(frame, ens.kind) else None


def label_masses(ens):
    """{label: (discarded, retained)} squared norms of every initial label.

    The engine books only the total discarded mass, so this regrows every
    (group, a-chunk) unit with histories._grow_unit and sums each label's
    pruned and final branch norms (norm units).
    """
    frame = ens._frame
    low_total = 1 << frame.left
    disc = np.zeros((1 << frame.freeq, low_total))
    kept = np.zeros_like(disc)
    for group in range(1 << frame.freeq):
        for a_lo in range(0, low_total, histories._CHUNK):
            a_hi = min(a_lo + histories._CHUNK, low_total)
            d, _, amp = histories._grow_unit(
                _unit_kernel(ens), frame, ens.kind, ens.prune_eps, group, a_lo, a_hi
            )
            flat = amp.view(np.float64)
            disc[group, a_lo:a_hi] = d
            kept[group, a_lo:a_hi] = np.einsum("rafl,rafl->ra", flat, flat).sum(axis=0)
    masses = {}
    for label in ens.block.labels():
        low, group, _ = decode_label(ens, label)
        masses[label] = (float(disc[group, low]), float(kept[group, low]))
    return masses


def branch_vector(ens, label, path):
    """Dot-basis coefficients of the branch grown from one initial label.

    The engine keeps no amplitudes, so this regrows the label's
    (group, a-chunk) unit with histories._grow_unit and rebuilds the full
    2**qubits coefficient vector from its compact register.
    """
    frame = ens._frame
    if frame.qubits > RECONSTRUCT_LIMIT:
        raise ResourceLimitError(
            f"branch reconstruction limited to qubits <= {RECONSTRUCT_LIMIT}, "
            f"got {frame.qubits}"
        )
    key = ens._check_path(path)
    low, group, omega = decode_label(ens, label)
    out = np.zeros(1 << frame.qubits, dtype=np.complex128)
    step_js = range(1, ens.steps + 1) if ens.kind == "full" else [ens.steps]
    # the path determines the definite window words; mismatch with this
    # label's group/omega bits means the branch is exactly zero
    for word, j in zip(key, step_js):
        if word[frame.qwidth :] != frame.definite_word(j, group, omega):
            return out
    code = 0
    for word in key:
        code = (code << frame.qwidth) + histories._rev_int(word[: frame.qwidth])
    a_lo = low - low % histories._CHUNK
    a_hi = min(a_lo + histories._CHUNK, 1 << frame.left)
    _, codes, amp = histories._grow_unit(
        _unit_kernel(ens), frame, ens.kind, ens.prune_eps, group, a_lo, a_hi
    )
    rows = np.flatnonzero(codes == code)
    if not rows.size:
        return out
    row = int(rows[0])
    coeffs = amp[row, low - a_lo].T
    head_base = int(codes[row] % (1 << frame.qwidth)) << frame.left
    mid = "".join(
        str(frame.label_bit(p + ens.steps, group, omega))
        for p in range(frame.dot + 1, frame.left + frame.kept + 1)
    )
    spect = label[frame.left + frame.kept + ens.steps :]
    # the coefficient of (lo_idx, f_idx) sits at bits head + mid + spect + tail:
    # head is the dot-bit reversed momentum index, tail the fresh register
    heads = [
        int(histories._rev_bits(head_base + lo_idx, frame.dot), 2)
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
    assert set(ens.paths) == set(keys)
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
        for label in block.labels():
            for path in ens.paths:
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


def test_coarse_equals_summed_full(medium_full):
    # summing the functional over intermediate window values on both sides
    # must reproduce the final-step-only functional entry for entry
    finals = sorted({p[-1] for p in medium_full.paths})
    for y, z in itertools.product(finals, finals):
        direct = coarse_dfunc(medium_full, y, z)
        acc = 0j
        for ya in medium_full.paths:
            for za in medium_full.paths:
                if ya[-1] == y and za[-1] == z:
                    acc += full_dfunc(medium_full, ya, za)
        assert abs(direct - acc) < 1e-10


def test_marginal_matches_coarse_run(medium_full, medium_coarse):
    dist_m = history_distribution(medium_full, kind="coarse")
    dist_c = history_distribution(medium_coarse)
    assert dist_m.paths == dist_c.paths
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
    ) - set(ens.paths)
    assert missing
    path = sorted(missing)[0]
    assert full_dfunc(ens, path, path) == 0j


@pytest.mark.parametrize("kind", ["full", "coarse"])
def test_pruned_multi_chunk_groups_match_summed_branch_overlaps(monkeypatch, kind):
    # left 8 puts four a-chunks in each of two groups, so each group's
    # accumulator sums the blocks of several units; on kind "full" pruning
    # also keeps different path lists in different units of one group
    block = make_block(13, 9, 8, 3, "01")
    ens = propagate_branches(block, 2, prune_eps=0.01, kind=kind)
    frame = ens._frame
    chunk = histories._CHUNK
    assert frame.freeq > 0 and (1 << frame.left) > chunk
    assert not histories._needs_kernel(frame, kind)
    # branch_vector regrows a whole unit per call; grow each unit once
    monkeypatch.setattr(histories, "_grow_unit", functools.lru_cache(histories._grow_unit))
    grow = functools.partial(histories._grow_unit, None, frame, kind, ens.prune_eps)
    path_lists = [
        {tuple(grow(group, a_lo, a_lo + chunk)[1]) for a_lo in range(0, 1 << frame.left, chunk)}
        for group in range(1 << frame.freeq)
    ]
    assert any(len(lists) > 1 for lists in path_lists) == (kind == "full")
    want = np.zeros_like(ens.gram)
    for label in block.labels():
        vecs = np.array([branch_vector(ens, label, path) for path in ens.paths])
        # want[i, j] = weight * <b_j | b_i>
        want += block.weight * (vecs @ vecs.conj().T)
    np.testing.assert_allclose(ens.gram, want, rtol=0, atol=1e-12)


def pair_dict_gram(ens):
    """paths and gram by the pair-dict reduction the engine used to run.

    Sums each group's per-unit overlaps pair by pair in unit order, scales
    them by the ensemble weight and adds them up per path-key pair in
    (group, omega) order: the order the array scatter must reproduce.
    """
    frame, kind = ens._frame, ens.kind
    low, h_count = 1 << frame.left, 1 << frame.qwidth
    step_js = list(range(1, ens.steps + 1)) if kind == "full" else [ens.steps]
    pairs = {}
    for group in range(1 << frame.freeq):
        per_group = {}
        for a_lo in range(0, low, histories._CHUNK):
            a_hi = min(a_lo + histories._CHUNK, low)
            _, codes, blocks = histories._run_unit(
                _unit_kernel(ens), frame, kind, ens.prune_eps, group, a_lo, a_hi
            )
            for lo, g in blocks:
                for i, j in itertools.product(range(len(g)), repeat=2):
                    pair = (int(codes[lo + i]), int(codes[lo + j]))
                    per_group[pair] = per_group.get(pair, 0j) + complex(g[i, j])
        for omega in range(1 << frame.nomega):

            def key(code):
                digits = [code // h_count**i % h_count for i in reversed(range(len(step_js)))]
                return tuple(
                    histories._rev_bits(d, frame.qwidth) + frame.definite_word(j, group, omega)
                    for d, j in zip(digits, step_js)
                )

            for (qa, qb), val in per_group.items():
                pair = (key(qa), key(qb))
                pairs[pair] = pairs.get(pair, 0j) + ens.weight * val
    paths = tuple(sorted({ka for ka, kb in pairs if ka == kb}))
    index = {p: i for i, p in enumerate(paths)}
    gram = np.zeros((len(paths), len(paths)), dtype=np.complex128)
    for (ka, kb), val in pairs.items():
        gram[index[ka], index[kb]] = val
    return paths, gram


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window",
    [
        (8, 4, 2, 3, 2, "010"),
        (8, 4, 1, 3, 2, "0110"),
        (9, 4, 2, 4, 3, "011"),
        (13, 9, 8, 3, 2, "01"),
    ],
)
def test_gram_equals_the_pair_dict_reduction(
    qubits, dot, left, right, steps, window, prune_eps, kind
):
    ens = propagate_branches(
        make_block(qubits, dot, left, right, window), steps, prune_eps=prune_eps, kind=kind
    )
    paths, gram = pair_dict_gram(ens)
    assert ens.paths == paths
    np.testing.assert_array_equal(ens.gram, gram)


def test_threads_bit_identical(medium_full):
    ens4 = propagate_branches(make_block(8, 4, 2, 3, "010"), 2, prune_eps=0.0, threads=4)
    assert ens4.paths == medium_full.paths
    assert np.array_equal(ens4.gram, medium_full.gram)


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
    big = make_block(20, 10, 9, 9, "01")
    with pytest.raises(ResourceLimitError, match="over budget"):
        propagate_branches(big, 8)


def _projected_bytes(block, steps, kind, threads):
    graining = block.graining
    frame = histories._Frame(
        graining.shape.qubits, graining.shape.dot, graining.left, graining.kept, steps,
        block.window,
    )
    return sum(size for _, size in histories._estimate_bytes(frame, kind, threads))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("prune_eps", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize(
    "qubits,dot,left,right,steps,window",
    [
        # contraction widths below _FFT_MIN_WIDTH: the dense kernel
        (8, 4, 2, 3, 2, "010"),
        (12, 7, 5, 4, 3, "001"),
        (12, 5, 1, 5, 2, "011010"),
        # widths at or above it: the FFT
        (13, 9, 8, 3, 2, "01"),
        (15, 9, 8, 4, 3, "011"),
    ],
)
def test_budget_bounds_the_traced_peak(
    qubits, dot, left, right, steps, window, kind, prune_eps, threads
):
    block = make_block(qubits, dot, left, right, window)
    # a dense run then builds its kernel inside the traced region
    transfer_kernel.cache_clear()
    tracemalloc.start()
    try:
        propagate_branches(block, steps, prune_eps=prune_eps, kind=kind, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _projected_bytes(block, steps, kind, threads)


def test_default_budget_admits_the_left_10_sweep_point():
    # sweep geometry at left 10: qubits 22, dot 11, right 10, a 2-bit window
    block = make_block(22, 11, 10, 10, "01")
    for threads in (1, 2, 8):
        assert _projected_bytes(block, 3, "full", threads) <= histories.DEFAULT_BUDGET_BYTES


def test_branch_reconstruction_gate():
    ens = propagate_branches(make_block(21, 10, 1, 9, "0" * 11), 1, prune_eps=0.0)
    label = "0" * 21
    with pytest.raises(ResourceLimitError, match="reconstruction"):
        branch_vector(ens, label, ens.paths[0])


@st.composite
def _geometries(draw):
    qubits = draw(st.integers(5, 10))
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
            index = {p: i for i, p in enumerate(e.paths)}
            assert set(e.paths) <= set(keys)
            for ya, yb in itertools.product(keys, keys):
                ia, ib = index.get(ya), index.get(yb)
                got = 0j if ia is None or ib is None else e.gram[ia, ib]
                assert abs(got - gmat[(ya, yb)]) <= 1e-10
    if prune_eps == 0:
        full, coarse = ens["full"], ens["coarse"]
        finals = sorted({p[-1] for p in full.paths} | {p[0] for p in coarse.paths})
        for y, z in itertools.product(finals, finals):
            assert abs(coarse_dfunc(full, y, z) - coarse_dfunc(coarse, y, z)) <= 1e-10


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
            paths=tuple(("p%d" % i,) for i in range(len(probs))),
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
    single = dataclasses.replace(medium_full, paths=medium_full.paths[:1], gram=np.ones((1, 1)))
    assert offdiagonal_norm(single) == (0.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_offdiagonal_norm_equals_the_masked_reference(medium_full, n):
    rng = np.random.default_rng(n)
    gram = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram[rng.random((n, n)) < 0.5] = 0
    ens = dataclasses.replace(medium_full, paths=medium_full.paths[:n], gram=gram.copy())
    mags = np.abs(gram)[~np.eye(n, dtype=bool)]
    assert offdiagonal_norm(ens) == (mags.max(), np.sqrt(np.mean(mags**2)))
    np.testing.assert_array_equal(ens.gram, gram)


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
    for path, p in zip(dist.paths, dist.probabilities):
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


def test_distribution_total_includes_discarded():
    dist = HistoryDistribution(
        paths=(("00",), ("01",)), probabilities=np.array([0.5, 0.25]), discarded=0.25
    )
    assert dist.total() == 1.0


@pytest.mark.parametrize("kind", ["full", "coarse"])
def test_fft_and_dense_contractions_agree(monkeypatch, kind):
    # contraction widths 2**8 (full) and 2**9 (coarse) both reach the FFT
    block = make_block(13, 9, 8, 3, "01")
    fft_calls = []
    apply_columns = histories.apply_columns

    def counting(*args, **kwargs):
        fft_calls.append(1)
        return apply_columns(*args, **kwargs)

    monkeypatch.setattr(histories, "apply_columns", counting)
    # the FFT run also sends every Gram product to BLAS, the dense run none
    monkeypatch.setattr(histories, "_GEMM_MIN_MACS", 0)
    via_fft = propagate_branches(block, 2, prune_eps=0.0, kind=kind)
    assert fft_calls
    fft_calls.clear()
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 1 << 30)
    monkeypatch.setattr(histories, "_GEMM_MIN_MACS", 1 << 62)
    via_dense = propagate_branches(block, 2, prune_eps=0.0, kind=kind)
    assert not fft_calls
    assert via_fft.paths == via_dense.paths
    np.testing.assert_allclose(via_fft.gram, via_dense.gram, rtol=0, atol=1e-12)


@pytest.mark.parametrize("qubits,dot,left,right,window", [(8, 4, 2, 3, "010"), (13, 9, 8, 3, "01")])
def test_pruned_run_conserves_mass_and_leaves_kernel_alone(qubits, dot, left, right, window):
    # pruning used to write through step-1 views of the cached kernel
    before = transfer_kernel(dot).copy()
    block = make_block(qubits, dot, left, right, window)
    ens = propagate_branches(block, 2, prune_eps=0.01)
    assert ens.discarded_total > 0.0
    assert abs(history_distribution(ens).total() - 1.0) < 1e-9
    for disc, kept in label_masses(ens).values():
        assert abs(disc + kept - 1.0) < 1e-9
    np.testing.assert_array_equal(transfer_kernel(dot), before)


def test_budget_counts_the_kernel_only_on_dense_runs(monkeypatch):
    # the 16 MiB dot-9 kernel fits no 8 MiB budget, but the FFT run never
    # builds it and its other projections stay under 8 MiB
    block = make_block(13, 9, 2, 3, "01101001")
    propagate_branches(block, 2, kind="coarse", budget_bytes=8 << 20)
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 1 << 30)
    with pytest.raises(ResourceLimitError, match="transfer kernel"):
        propagate_branches(block, 2, kind="coarse", budget_bytes=8 << 20)

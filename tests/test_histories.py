"""Tests for branch propagation, functionals, and the asymptotic oracles."""

import itertools

import numpy as np
import pytest

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


def make_block(qubits, dot, left, right, window):
    return BlockInitialState(
        CoarseGraining(SystemShape(qubits, dot), left, right), window
    )


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
    ens = propagate_branches(block, 2, prune_eps=0.0)
    ref = dense_branches(block, 2, "full")
    for label in block.labels():
        for path in ens.paths:
            got = ens.branch_vector(label, path)
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
    assert offdiagonal_norm(ens) == 0.0


def test_coarse_kind_decoheres_exactly(medium_coarse):
    assert offdiagonal_norm(medium_coarse) == 0.0


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
    for label in medium_full.block.labels():
        assert medium_full.discarded_mass(label) == 0.0
        assert abs(medium_full.retained_mass(label) - 1.0) < 1e-10


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
    for label in block.labels():
        disc = ens.discarded_mass(label)
        assert 0.0 <= disc <= bound
        assert abs(disc + ens.retained_mass(label) - 1.0) < 1e-9
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


def test_branch_reconstruction_gate():
    ens = propagate_branches(make_block(21, 10, 1, 9, "0" * 11), 1, prune_eps=0.0)
    label = "0" * 21
    with pytest.raises(ResourceLimitError, match="reconstruction"):
        ens.branch_vector(label, ens.paths[0])


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
        medium_full.retained_mass("0" * 7)
    with pytest.raises(ParameterError, match="window"):
        # window slice of the label must match the block window "010"
        medium_full.retained_mass("00110000")


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


def test_offdiagonal_norm_modes(medium_full):
    mx = offdiagonal_norm(medium_full, mode="max")
    rms = offdiagonal_norm(medium_full, mode="rms")
    assert mx > 0.0
    assert 0.0 < rms <= mx
    with pytest.raises(ParameterError, match="mode"):
        offdiagonal_norm(medium_full, mode="sum")


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
    via_fft = propagate_branches(block, 2, prune_eps=0.0, kind=kind)
    assert fft_calls
    fft_calls.clear()
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 1 << 30)
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
    for label in block.labels()[:: max(1, len(block.labels()) // 64)]:
        assert abs(ens.discarded_mass(label) + ens.retained_mass(label) - 1.0) < 1e-9
    np.testing.assert_array_equal(transfer_kernel(dot), before)


def test_budget_counts_the_kernel_only_on_dense_runs(monkeypatch):
    # the 16 MiB dot-9 kernel fits no 8 MiB budget, but the FFT run never
    # builds it and its other projections stay under 8 MiB
    block = make_block(13, 9, 2, 3, "01101001")
    propagate_branches(block, 2, kind="coarse", budget_bytes=8 << 20)
    monkeypatch.setattr(histories, "_FFT_MIN_WIDTH", 1 << 30)
    with pytest.raises(ResourceLimitError, match="transfer kernel"):
        propagate_branches(block, 2, kind="coarse", budget_bytes=8 << 20)

"""Acceptance gate: eight criteria, one printed verdict line each.

Each test computes its metrics, prints a single [PASS]/[FAIL] line with
the measured values, and only then asserts, so the verdict table is
complete even when a criterion fails.
"""

import csv
import itertools

import numpy as np

from qbaker import (
    BlockInitialState,
    CoarseGraining,
    SystemShape,
    analyze,
    baker_matrix,
    basis_state,
    bvs_reference_matrix,
    coarse_dfunc,
    full_dfunc,
    history_distribution,
    ideal_full_value,
    offdiagonal_norm,
    project,
    propagate_branches,
    synthesize,
)
from qbaker.cli import main as cli_main
from _dense_reference import dense_gram
from _string_paths import word_paths

TOL_EXACT = 1e-10


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")


def _read_table(path):
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return rows


def test_criterion_1_exact_structure_suite():
    worst = 0.0
    rng = np.random.default_rng(11)
    for qubits in range(1, 9):
        dim = 1 << qubits
        eye = np.eye(dim)
        labels = [format(j, f"0{qubits}b") for j in range(dim)]
        for dot in range(qubits + 1):
            shape = SystemShape(qubits, dot)
            basis = np.column_stack([basis_state(shape, dot, lb) for lb in labels])
            worst = max(worst, float(np.abs(basis.conj().T @ basis - eye).max()))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            back = synthesize(analyze(vec, shape, dot), shape, dot)
            worst = max(worst, float(np.abs(back - vec).max()))
            back = analyze(synthesize(vec, shape, dot), shape, dot)
            worst = max(worst, float(np.abs(back - vec).max()))
        for dot in range(qubits):
            u = baker_matrix(SystemShape(qubits, dot))
            worst = max(worst, float(np.abs(u.conj().T @ u - eye).max()))
        for left, right in ((0, 0), (1, 1), (2, 1)):
            if left + right >= qubits:
                continue
            graining = CoarseGraining(SystemShape(qubits, 0), left, right)
            words = [
                format(w, f"0{graining.kept}b") for w in range(1 << graining.kept)
            ]
            ones = np.ones(dim, dtype=np.complex128)
            # a partition of unity covers completeness and orthogonality at once
            cover = sum(project(ones, graining, w) for w in words)
            worst = max(worst, float(np.abs(cover - ones).max()))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for i, word in enumerate(words[:8]):
                part = project(vec, graining, word)
                again = project(part, graining, word)
                worst = max(worst, float(np.abs(again - part).max()))
                other = words[(i + 1) % len(words)]
                if other != word:
                    crossed = project(part, graining, other)
                    worst = max(worst, float(np.abs(crossed).max()))
    ok = worst <= TOL_EXACT
    verdict(
        1,
        "exact structure suite",
        ok,
        f"qubits 1..8, all dot positions, max deviation {worst:.2e}, tol 1e-10",
    )
    assert ok


def test_criterion_2_dense_oracle_equivalence():
    worst_pair = 0.0
    worst_off = 0.0
    worst_sum = 0.0
    paths_match = True
    for window in ("000", "010"):
        block = BlockInitialState(CoarseGraining(SystemShape(8, 4), 2, 3), window)
        ens_f = propagate_branches(block, 2, prune_eps=0.0)
        keys_f, gm_f = dense_gram(block, 2, "full")
        paths_match = paths_match and set(word_paths(ens_f.paths, 3)) == set(keys_f)
        for ya, yb in itertools.product(keys_f, keys_f):
            worst_pair = max(
                worst_pair, abs(full_dfunc(ens_f, ya, yb) - gm_f[(ya, yb)])
            )
        ens_c = propagate_branches(block, 2, prune_eps=0.0, kind="coarse")
        keys_c, gm_c = dense_gram(block, 2, "coarse")
        paths_match = paths_match and set(word_paths(ens_c.paths, 3)) == set(keys_c)
        for ya, yb in itertools.product(keys_c, keys_c):
            worst_pair = max(
                worst_pair, abs(coarse_dfunc(ens_c, ya[0], yb[0]) - gm_c[(ya, yb)])
            )
        worst_off = max(worst_off, offdiagonal_norm(ens_c)[0])
        finals = sorted({p[0] for p in keys_c})
        for y, z in itertools.product(finals, finals):
            worst_sum = max(
                worst_sum, abs(coarse_dfunc(ens_f, y, z) - coarse_dfunc(ens_c, y, z))
            )
    # contractions 2**8 columns wide: the FFT side of the step
    block = BlockInitialState(CoarseGraining(SystemShape(12, 8), 1, 3), "01101001")
    ens_c = propagate_branches(block, 2, prune_eps=0.0, kind="coarse")
    keys_c, gm_c = dense_gram(block, 2, "coarse")
    paths_match = paths_match and set(word_paths(ens_c.paths, 8)) == set(keys_c)
    for ya, yb in itertools.product(keys_c, keys_c):
        worst_pair = max(
            worst_pair, abs(coarse_dfunc(ens_c, ya[0], yb[0]) - gm_c[(ya, yb)])
        )
    worst_off = max(worst_off, offdiagonal_norm(ens_c)[0])
    ok = (
        paths_match
        and worst_pair <= TOL_EXACT
        and worst_off <= TOL_EXACT
        and worst_sum <= TOL_EXACT
    )
    verdict(
        2,
        "dense-oracle equivalence",
        ok,
        f"every pair within {worst_pair:.2e}, coarse offdiag {worst_off:.2e}, "
        f"sum rule {worst_sum:.2e}, tol 1e-10",
    )
    assert ok


def test_criterion_3_reference_map_correspondence():
    deltas = {}
    for qubits in (2, 3, 6):
        u = baker_matrix(SystemShape(qubits, qubits - 1))
        deltas[qubits] = float(np.abs(u - bvs_reference_matrix(qubits)).max())
    worst = max(deltas.values())
    ok = worst <= TOL_EXACT
    verdict(
        3,
        "terminal-dot reference correspondence",
        ok,
        ", ".join(f"{q} qubits: {d:.2e}" for q, d in deltas.items()) + ", tol 1e-10",
    )
    assert ok


def test_criterion_4_dominant_path_structure():
    block = BlockInitialState(CoarseGraining(SystemShape(14, 7), 6, 6), "01")
    ens = propagate_branches(block, 2)
    dist = history_distribution(ens)
    pairs = list(zip(word_paths(dist.paths, 2), dist.probabilities))
    dominant = [(p, v) for p, v in pairs if v > 0.01]
    near = max(abs(v - 0.25) for _, v in dominant) if dominant else float("inf")
    consistent = all(ideal_full_value("01", p, p) > 0 for p, _ in dominant)
    violating = sum(v for p, v in pairs if ideal_full_value("01", p, p) == 0.0)
    off = offdiagonal_norm(ens)[0]
    ok = (
        len(dominant) == 4
        and near <= 0.05
        and consistent
        and violating < 0.05
        and off < 0.05
    )
    verdict(
        4,
        "dominant-path structure",
        ok,
        f"{len(dominant)} paths with p > 0.01 (want 4), max |p - 1/4| {near:.4f}, "
        f"all shift-consistent: {consistent}, stray mass {violating:.4f}, "
        f"offdiag max {off:.2e}",
    )
    assert ok


def test_criterion_5_asymptotic_decoherence_trend(tmp_path):
    out = tmp_path / "trend.csv"
    code = cli_main(
        [
            "sweep", "--sweep-left", "4,6,8", "--sweep-steps", "2",
            "--init-x", "01", "--threads", "2", "--out", str(out),
        ]
    )
    rows = _read_table(out) if code == 0 else []
    offs = [float(r["offdiag_max"]) for r in rows]
    ents = [float(r["entropy_residual"]) for r in rows]
    fulls = [float(r["full_residual_max"]) for r in rows]
    coarses = [float(r["coarse_residual_max"]) for r in rows]

    def decreasing(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))

    ok = (
        code == 0
        and len(rows) == 3
        and decreasing(offs)
        and decreasing(ents)
        and decreasing(fulls)
        and max(coarses) <= TOL_EXACT
    )
    fmt = lambda seq: " -> ".join(f"{v:.2e}" for v in seq)
    verdict(
        5,
        "asymptotic decoherence trend",
        ok,
        f"offdiag {fmt(offs)}; |H - k| {fmt(ents)}; per-step residual {fmt(fulls)}; "
        f"final-window residual at the limit, max {max(coarses, default=1.0):.1e}",
    )
    assert ok


def test_criterion_6_entropy_growth_rate(tmp_path):
    out = tmp_path / "growth.csv"
    code = cli_main(
        [
            "sweep", "--sweep-left", "7", "--sweep-steps", "1,2,3",
            "--init-x", "01", "--threads", "2", "--out", str(out),
        ]
    )
    rows = _read_table(out) if code == 0 else []
    hs = [float(r["entropy_bits"]) for r in rows]
    slope = float(np.polyfit([1.0, 2.0, 3.0], hs, 1)[0]) if len(hs) == 3 else 0.0
    ok = (
        code == 0
        and len(hs) == 3
        and 0.9 <= slope <= 1.1
        and abs(hs[0] - 1.0) <= 0.15
        and abs(hs[1] - 2.0) <= 0.15
    )
    verdict(
        6,
        "entropy growth rate",
        ok,
        f"H(k) = {', '.join(f'{h:.4f}' for h in hs)}; slope {slope:.4f} "
        f"(want 0.9..1.1), |H - k| <= 0.15 for k <= 2",
    )
    assert ok


def test_criterion_7_probability_conservation():
    cases = []
    small = BlockInitialState(CoarseGraining(SystemShape(8, 4), 2, 3), "010")
    for kind in ("full", "coarse"):
        ens = propagate_branches(small, 2, prune_eps=0.0, kind=kind)
        cases.append((history_distribution(ens).total(), 1e-10))
    ens = propagate_branches(small, 2, prune_eps=1e-3)
    cases.append((history_distribution(ens).total(), 1e-9))
    medium = BlockInitialState(CoarseGraining(SystemShape(10, 5), 4, 4), "01")
    ens = propagate_branches(medium, 3, prune_eps=0.0)
    cases.append((history_distribution(ens).total(), 1e-10))
    large = BlockInitialState(CoarseGraining(SystemShape(14, 7), 6, 6), "01")
    ens = propagate_branches(large, 2, prune_eps=1e-12)
    cases.append((history_distribution(ens).total(), 1e-9))
    worst = max(abs(total - 1.0) for total, _ in cases)
    ok = all(abs(total - 1.0) <= tol for total, tol in cases)
    verdict(
        7,
        "probability conservation",
        ok,
        f"max |sum p + discarded - 1| = {worst:.2e} over {len(cases)} runs "
        "(tol 1e-10 unpruned, 1e-9 pruned)",
    )
    assert ok


def test_criterion_8_deterministic_output(tmp_path):
    ok = True
    base = [
        "full-histories",
        "--qubits", "10", "--dot", "5", "--left", "4", "--right", "4",
        "--steps", "2", "--init-x", "01",
    ]
    for fmt in ("csv", "json"):
        blobs = []
        for i, threads in enumerate(("1", "1", "4")):
            path = tmp_path / f"hist{i}.{fmt}"
            code = cli_main(
                base + ["--format", fmt, "--threads", threads, "--out", str(path)]
            )
            ok = ok and code == 0
            blobs.append(path.read_bytes())
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    # left 8 contracts 2**8 columns per row: the FFT side of the step
    for lefts in ("4,6", "8"):
        blobs = []
        for i, threads in enumerate(("1", "1", "4")):
            path = tmp_path / f"sweep{i}.csv"
            code = cli_main(
                [
                    "sweep", "--sweep-left", lefts, "--sweep-steps", "2",
                    "--init-x", "01", "--threads", threads, "--out", str(path),
                ]
            )
            ok = ok and code == 0
            blobs.append(path.read_bytes())
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    verdict(
        8,
        "deterministic output",
        ok,
        "byte-identical CSV and JSON across repeat runs and threads 1 vs 4",
    )
    assert ok

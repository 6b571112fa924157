"""Dense-vector reference propagation shared by the test modules.

Lists every label of a block initial state (enumerate_block, block_labels)
with its weight (block_weight), then propagates each label as a full
coefficient vector, projecting after each step (or only the last one), so
the fast reduced-register engine can be compared against it entry by entry.
index_to_bits spells an index as an MSB-first label, and kron_basis_state
builds a basis state as a chain of np.kron products.
dense_unitarity_deviation is max |A^H A - I| from one whole Gram product.
"""

import itertools
import math

import numpy as np

from qbaker import analyze, apply_baker, basis_state, project, synthesize
from qbaker.core import binary_fraction, bits_to_index, check_word


def index_to_bits(index, length):
    """MSB-first bit string of `index`, zero-padded to `length` bits."""
    if not 0 <= index < (1 << length):
        raise ValueError(f"index {index} out of range for {length} bits")
    return format(index, f"0{length}b") if length else ""


def kron_basis_state(shape, dot, bits):
    """basis_state's product form, one np.kron per momentum factor."""
    phase = np.exp(1j * np.pi * binary_fraction(bits[:dot][::-1], append_one=True))
    state = np.zeros(1 << (shape.qubits - dot), dtype=np.complex128)
    state[bits_to_index(bits[dot:])] = phase
    for t in range(1, dot + 1):
        factor = np.array(
            [1.0, np.exp(2j * np.pi * binary_fraction(bits[:t][::-1], append_one=True))],
            dtype=np.complex128,
        ) / np.sqrt(2.0)
        state = np.kron(state, factor)
    return state


def dense_unitarity_deviation(a):
    """max |A^H A - I| over every entry, from the whole n x n product."""
    n = a.shape[1]
    return float(np.abs(a.conj().T @ a - np.eye(n)).max())


def enumerate_block(graining, window):
    """All label strings with the given window value, leading bits major.

    Ordering is lexicographic in (leading bits, trailing bits).
    """
    check_word(window, graining.kept, "window")
    labels = []
    for a in range(1 << graining.left):
        head = index_to_bits(a, graining.left)
        for b in range(1 << graining.right):
            labels.append(head + window + index_to_bits(b, graining.right))
    return labels


def block_labels(block):
    """The labels a block initial state mixes, in enumerate_block order."""
    return enumerate_block(block.graining, block.window)


def block_weight(block):
    """Weight of each label of a block initial state: 2**-(left+right)."""
    return 2.0 ** -(block.graining.left + block.graining.right)


def dense_block_matrix(block):
    """Density matrix of a block initial state in computational coordinates."""
    shape = block.graining.shape
    rho = np.zeros((shape.dim, shape.dim), dtype=np.complex128)
    for label in block_labels(block):
        vec = basis_state(shape, shape.dot, label)
        rho += block_weight(block) * np.outer(vec, vec.conj())
    return rho


def dense_branches(block, steps, kind):
    shape = block.graining.shape
    g = block.graining
    out = {}
    for label in block_labels(block):
        branches = {(): basis_state(shape, shape.dot, label)}
        for j in range(1, steps + 1):
            nxt = {}
            for path, vec in branches.items():
                coeffs = analyze(apply_baker(vec, shape), shape, shape.dot)
                if kind == "full" or j == steps:
                    for w in range(1 << g.kept):
                        word = format(w, f"0{g.kept}b")
                        sub = project(coeffs, g, word)
                        if np.vdot(sub, sub).real > 0:
                            nxt[path + (word,)] = synthesize(sub, shape, shape.dot)
                else:
                    nxt[path] = synthesize(coeffs, shape, shape.dot)
            branches = nxt
        out[label] = {
            (p if kind == "full" else p[-1:]): analyze(v, shape, shape.dot)
            for p, v in branches.items()
        }
    return out


def dense_gram(block, steps, kind):
    ref = dense_branches(block, steps, kind)
    keys = sorted({p for per in ref.values() for p in per})
    w = block_weight(block)
    gmat = {}
    for ya, yb in itertools.product(keys, keys):
        acc = 0j
        for per in ref.values():
            if ya in per and yb in per:
                acc += np.vdot(per[yb], per[ya])
        gmat[(ya, yb)] = w * acc
    return keys, gmat


def dense_pruned_marginal(block, steps, eps):
    """(marginal, discarded, cross) masses of a pruned kind-"full" run.

    Each label's branches are projected on every window value after every
    step, and a branch whose squared norm falls below eps is dropped, as the
    engine prunes.  A label's final-window marginal is the squared norm of
    the sum of its retained final branches; its discarded mass is the sum of
    the dropped squared norms, and S the sum of the dropped norms.  Returned
    with the block weight applied: the marginal, the discarded mass and
    sum(2S + S**2).
    """
    shape, g = block.graining.shape, block.graining
    words = [format(w, f"0{g.kept}b") for w in range(1 << g.kept)]
    marginal = discarded = cross = 0.0
    for label in block_labels(block):
        branches = [basis_state(shape, shape.dot, label)]
        lost = root = 0.0
        for _ in range(steps):
            kept = []
            for vec in branches:
                coeffs = analyze(apply_baker(vec, shape), shape, shape.dot)
                for word in words:
                    sub = project(coeffs, g, word)
                    norm2 = np.vdot(sub, sub).real
                    if norm2 < eps:
                        lost += norm2
                        root += math.sqrt(norm2)
                    else:
                        kept.append(synthesize(sub, shape, shape.dot))
            branches = kept
        total = np.sum(branches, axis=0) if branches else np.zeros(shape.dim)
        marginal += block_weight(block) * np.vdot(total, total).real
        discarded += block_weight(block) * lost
        cross += block_weight(block) * root * (2.0 + root)
    return marginal, discarded, cross

"""Path names as tuples of window-word strings: the oracle of the integer paths.

The engine keeps each path as a row of int64 window words.  Here paths are
named with strings instead: string_path_keys is a drop-in for
histories._path_keys whose paths are tuples of word strings, sorted as
strings by np.unique, and string_full_dfunc and string_coarse_dfunc are
the functionals over an ensemble built with it.  word_paths formats the
engine's integer rows, so that tests compare paths with word tuples
through it alone.
"""

import bisect

import numpy as np


def word_paths(paths, kept):
    """Rows of integer window words as a tuple of tuples of `kept`-bit strings."""
    return tuple(tuple(format(w, f"0{kept}b") for w in row) for row in np.asarray(paths).tolist())


def rev_bits(value, width):
    """`width` bits of value, the low bit first: the inverse of histories._rev_int."""
    return format(value, f"0{width}b")[::-1] if width else ""


def definite_word(frame, j, group, omega):
    """Window bits at step j that come from definite label positions, as a string."""
    lo = frame.dot + 1 + j
    hi = frame.left + frame.kept + j
    return "".join(str(frame.label_bit(p, group, omega)) for p in range(lo, hi + 1))


def string_path_keys(frame, tables, codes):
    """Sorted path keys, and the (omega, key) array of each (table, code) key's position.

    A key's word at a recorded step is that step's window value (a digit of
    the path code, the first step's least significant) in reversed
    significance, then the step's definite word, read with the table as the
    group.  The (table, code) pairs are unique; their keys are listed once
    per omega, omega-major.
    """
    h_count = 1 << frame.qwidth
    heads = [rev_bits(h, frame.qwidth) for h in range(h_count)]
    groups = range(int(tables.max(initial=0)) + 1)
    keys = []
    for omega in range(1 << frame.nomega):
        key = np.zeros(len(codes), dtype="U1")
        for i, j in enumerate(frame.recorded):
            words = [[h + definite_word(frame, j, g, omega) for h in heads] for g in groups]
            key = key + np.array(words)[tables, codes // h_count**i % h_count]
        keys.append(key)
    # the words have equal widths, so joined keys sort as the key tuples do
    joined, where = np.unique(np.concatenate(keys), return_inverse=True)
    k = frame.kept
    paths = tuple(tuple(w[i : i + k] for i in range(0, len(w), k)) for w in joined.tolist())
    return paths, where.reshape(1 << frame.nomega, -1)


def string_full_dfunc(ensemble, ys, zs):
    """full_dfunc of an ensemble whose paths are string_path_keys' word tuples."""
    ykey, zkey = tuple(ys), tuple(zs)
    paths = ensemble.paths
    yi, zi = bisect.bisect_left(paths, ykey), bisect.bisect_left(paths, zkey)
    slot, local, matrices = ensemble._lookup
    if paths[yi : yi + 1] != (ykey,) or paths[zi : zi + 1] != (zkey,) or slot[yi] != slot[zi]:
        return 0j
    return complex(matrices[slot[yi]][local[yi], local[zi]])


def string_coarse_dfunc(ensemble, y, z):
    """coarse_dfunc of an ensemble whose paths are string_path_keys' word tuples."""
    finals = np.array([p[-1] for p in ensemble.paths], dtype=str)
    rows = np.flatnonzero(finals == y)
    cols = np.flatnonzero(finals == z)
    slot, local, matrices = ensemble._lookup
    sub = np.zeros((rows.size, cols.size), dtype=np.complex128)
    for s in set(slot[rows].tolist()) & set(slot[cols].tolist()):
        ri = np.flatnonzero(slot[rows] == s)
        ci = np.flatnonzero(slot[cols] == s)
        sub[np.ix_(ri, ci)] = matrices[s][np.ix_(local[rows[ri]], local[cols[ci]])]
    return complex(sub.sum())

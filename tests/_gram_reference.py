"""The path Gram reduction as dicts of matrices: the sum-order oracle of propagate_branches.

dict_reduction regrows each unit with histories._run_unit in unit order.  For
every last window value h that some row of the unit keeps, it marks the kept
codes seen and adds gram[h] at np.ix_(codes, codes) into the matrix of that
(group, head), a head being the key table above h.  After the last unit each
matrix keeps its seen codes and is scaled by the block weight; a mirrored
partner group takes its group's matrix, the top bit of h flipped, and each
head sums its terms in sorted (group, head) order.  propagate_branches holds
one accumulator array instead and must give the same bytes.
"""

import numpy as np

from qbaker import histories


def dict_reduction(frame, prune_eps: float):
    """The paths and (positions, matrix) blocks of a run, as propagate_branches returns them."""
    mirror, last_place, h_bits = frame.mirror, frame.last_place, frame.qwidth
    tables = 1 if frame.shared_keys else 1 << frame.freeq
    seen = np.zeros((tables << h_bits, last_place), dtype=bool)
    accs = {}
    ws = histories._Workspace()
    for group in range(mirror or 1 << frame.freeq):
        for a_lo in range(0, 1 << frame.left, frame.chunk):
            unit = (group, a_lo, a_lo + frame.chunk)
            *_, codes, keep, gram = histories._run_unit(frame, prune_eps, unit, ws)
            table = 0 if frame.shared_keys else group
            for h in np.flatnonzero(keep.any(axis=1)).tolist():
                head = table << h_bits | h
                seen[head, codes[keep[h]]] = True
                if (group, head) not in accs:
                    accs[group, head] = np.zeros((last_place, last_place), dtype=np.complex128)
                accs[group, head][np.ix_(codes, codes)] += gram[h]
    # a partner head flips the top bit of h and, unless the groups share a table,
    # the top group bit
    twin = mirror and (0 if frame.shared_keys else mirror << h_bits) | 1 << h_bits - 1
    seen |= seen[np.arange(len(seen)) ^ twin]
    keys = np.flatnonzero(seen)
    paths, where = histories._path_keys(frame, *np.divmod(keys, last_place << h_bits))
    block_weight = 2.0 ** -(frame.left + frame.steps - (not frame.dense))
    terms, matrices = {}, {}
    for group, head in sorted(accs):
        term = accs.pop((group, head))[np.ix_(seen[head], seen[head])]
        term *= block_weight
        terms[group, head] = terms[group | mirror, head ^ twin] = term
    for (_, head), term in sorted(terms.items()):
        matrices[head] = matrices[head] + term if head in matrices else term
    runs = histories._runs(keys // last_place)
    return paths, [(where[:, lo:hi], matrices[head]) for head, lo, hi in runs]

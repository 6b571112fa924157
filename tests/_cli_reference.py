"""Per-row output tables: the oracle of the CLI's column tables and renderers.

history_rows builds one (path, p, oracle_p, abs_residual) tuple per path,
calling ideal_full_value or ideal_coarse_value on each path's words.
render_csv writes each row through csv.writer with cell per value, and
render_json passes one dict per row to json.dumps(indent=2, sort_keys=True).
The CLI builds the same tables as columns and must render the same bytes.
"""

import csv
import io
import json

from qbaker.histories import ideal_coarse_value, ideal_full_value


def cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def shift_continuations(window: int, kept: int, steps: int) -> set[tuple[int, ...]]:
    """All per-step histories of `kept`-bit window values reachable by
    dropping the leading bit and appending a fresh bit each step: the
    `steps`-bit value `fresh` appends its bits, leading bit first."""
    mask = (1 << kept) - 1
    return {
        tuple((window << j | fresh >> steps - j) & mask for j in range(1, steps + 1))
        for fresh in range(1 << steps)
    }


def history_rows(dist, kind: str, window: str, steps: int) -> list[tuple]:
    """(path, p, oracle_p, abs_residual) rows against the shift-chain oracle.

    Kind "full" lists the retained paths and every shift continuation of the
    initial window; kind "coarse" lists all final window words, whose oracle
    compares the surviving core window[steps:] with the word's leading bits.
    """
    kept = len(window)
    prob = dict(zip(map(tuple, dist.paths.tolist()), dist.probabilities.tolist()))
    if kind == "full":
        paths = sorted(prob.keys() | shift_continuations(int(window, 2), kept, steps))
    else:
        paths = [(v,) for v in range(1 << kept)]
    rows = []
    for path in paths:
        words = [format(w, f"0{kept}b") for w in path]
        if kind == "full":
            oracle = ideal_full_value(window, words, words)
        else:
            oracle = ideal_coarse_value(window[steps:], words[0][: kept - steps], steps)
        p = prob.get(path, 0.0)
        rows.append((";".join(words), p, oracle, abs(p - oracle)))
    return rows


def render_csv(echo, header, rows, summary) -> str:
    buf = io.StringIO()
    for key, value in echo:
        buf.write(f"# {key} = {cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    for key, value in summary:
        buf.write(f"# {key} = {cell(value)}\n")
    return buf.getvalue()


def render_json(echo, header, rows, summary) -> str:
    obj = {
        "config": dict(echo),
        "rows": [dict(zip(header, row)) for row in rows],
        "summary": dict(summary),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

"""Command-line experiments over baker-map history ensembles.

Subcommands:

* ``check``: invariant suites (dense structure checks, exact decoherence
  of final-window-only runs, the full-to-coarse sum rule, and the
  terminal-dot reference-map correspondence), with a plain-text report.
* ``coarse-entropy``: final-window-only distribution for an initial
  window built from a surviving core string, with entropy and residual.
* ``full-histories``: per-step window records with the asymptotic
  shift-chain value as an oracle column.
* ``sweep``: asymptotic trends over a grid of window offsets and step
  counts, holding the window width fixed while the system grows.

``full-histories`` and ``coarse-entropy`` are one pipeline (cmd_histories)
run with kind "full" or "coarse": build the block state, propagate,
take the history distribution, tabulate it against the shift-chain oracle
(_history_rows), and summarize entropy, off-diagonal size and masses
(_summary).  ``sweep`` runs the same steps per grid point and keeps the
summary plus the largest oracle residual of each kind.

Each option is declared once, in _OPTIONS.  Flags override config-file
values (flat ``key = value`` lines, ``#`` comments allowed), and those
override the ``QBAKER_THREADS`` environment variable for ``threads``, all
through the option's one converter; built-in defaults fill the rest.  Data goes
to CSV ('#'-prefixed comment lines carry the config echo and the
summary block) or JSON (one object with keys "config", "rows",
"summary").  Tables travel as columns (float arrays or lists), not one
object per row; JSON rows are spliced from the C encoder's text of each
column.  CSV floats have 17 significant digits and JSON's are repr's,
row order is fixed, and the propagation engine reduces in a fixed order at
any thread count, so identical configurations produce byte-identical
output files.  Wall-clock timings go to stderr only, never into output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

from .bakermap import DENSE_LIMIT, baker_matrix, basis_matrix, bvs_reference_matrix
from .bakermap import basis_state  # noqa: F401  perfbench/traced.py wraps this name
from .coarsegrain import BlockInitialState, CoarseGraining, project, run_graining
from .core import DEFAULT_BUDGET_BYTES, SystemShape, check_word
from .errors import InvariantError, ParameterError, ResourceLimitError
from .histories import (
    coarse_dfunc,
    entropy_bits,
    history_distribution,
    offdiagonal_norm,
    propagate_branches,
)

_CHECK_TOL = 1e-10
# columns per block of check's Gram deviation.  On one BLAS thread a
# 1024-column deviation took 0.10 s in blocks of 64 or 128 columns, 0.14 s
# in blocks of 16 and 0.16 s whole
_GRAM_BLOCK = 64
_EXIT_CODES = {ParameterError: 2, InvariantError: 3, ResourceLimitError: 4}
_ROW_HEADER = ("path", "p", "oracle_p", "abs_residual")
_SWEEP_HEADER = (
    "left",
    "steps",
    "qubits",
    "dot",
    "right",
    "window",
    "entropy_bits",
    "entropy_residual",
    "offdiag_max",
    "coarse_residual_max",
    "full_residual_max",
    "discarded_mass",
)

# key -> (converter, default, help); the flag is "--" + key with "_" -> "-"
# (sweep_* on sweep only).  Defaults: left < dot < qubits - right, steps < right.
_OPTIONS = {
    "qubits": (int, 8, "total qubit count"),
    "dot": (int, 4, "dot position of the map"),
    "left": (int, 2, "ignored leading qubits"),
    "right": (int, 3, "ignored trailing qubits"),
    "steps": (int, 2, "number of map iterations"),
    "init_x": (str, None, "initial window bits (window core for coarse-entropy; "
               "defaults to all zeros)"),
    "prune": (float, 1e-12, "branch-norm pruning threshold"),
    "out": (str, None, "output file (default: stdout)"),
    "format": (str, "csv", "output format: csv or json"),
    "threads": (int, None, "propagation threads (default: available cores)"),
    "sweep_left": (str, "4,6,8", "comma-separated window offsets (empty for a "
                   "header-only table; write a list that starts with '-' as "
                   "--sweep-left=-1,2)"),
    "sweep_steps": (str, "2", "comma-separated step counts (write a list that "
                    "starts with '-' as --sweep-steps=-1,2)"),
}
_SWEEP_ONLY = ("sweep_left", "sweep_steps")
# rows _render_csv formats at a time, so it holds one slice's cell text
_RENDER_ROWS = 1024
# a JSON row's members as json.dumps(indent=2) separates them at depth 2
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """Flag text, else config-file text (else QBAKER_THREADS for threads),
    each through its converter; else default."""
    file_values = _read_config_file(args.config) if args.config is not None else {}
    unknown = sorted(set(file_values) - set(_OPTIONS))
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
    cfg: dict = {}
    for key, (conv, default, _) in _OPTIONS.items():
        text = getattr(args, key, None)
        if text is None:
            text = file_values.get(key)
        if text is None and key == "threads":
            text = os.environ.get("QBAKER_THREADS")
        try:
            cfg[key] = default if text is None else conv(text)
        except ValueError:
            raise ParameterError(f"{key} needs a {conv.__name__} value, got {text!r}") from None
    if cfg["format"] not in ("csv", "json"):
        raise ParameterError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    if not 0 <= cfg["prune"] < math.inf:
        raise ParameterError(f"prune must be a finite number >= 0, got {cfg['prune']}")
    if cfg["threads"] is None:
        cfg["threads"] = os.cpu_count() or 1
    return cfg


def _window_bits(value: str | None, width: int, what: str) -> str:
    return "0" * width if value is None else check_word(value, width, what)


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    out = []
    for item in text.split(","):
        try:
            out.append(int(item.strip()))
        except ValueError:
            raise ParameterError(
                f"{what} must be comma-separated integers, got {item.strip()!r}"
            ) from None
    return out


def _column_text(column) -> list[str]:
    """A column's CSV cells: a float array formatted in one pass, else _cell per value."""
    if isinstance(column, np.ndarray):
        return ("%.17g\n" * len(column) % tuple(column.tolist())).split("\n")[:-1]
    return [_cell(v) for v in column]


def _render_csv(echo, header, columns, summary) -> str:
    buf = io.StringIO()
    for key, value in echo:
        buf.write(f"# {key} = {_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for start in range(0, len(columns[0]), _RENDER_ROWS):
        writer.writerows(zip(*(_column_text(c[start : start + _RENDER_ROWS]) for c in columns)))
    for key, value in summary:
        buf.write(f"# {key} = {_cell(value)}\n")
    return buf.getvalue()


def _render_json(echo, header, columns, summary) -> str:
    """json.dumps(indent=2, sort_keys=True) of {"config", "rows", "summary"}, its
    rows the C encoder's text of each column's values in a row template."""
    obj = {"config": dict(echo), "rows": [], "summary": dict(summary)}
    skeleton = json.dumps(obj, indent=2, sort_keys=True)
    if not len(columns[0]):
        return skeleton + "\n"
    sep = _ROW_ENCODER.item_separator
    pairs = sorted(zip(header, columns), key=lambda pair: pair[0])
    members = [json.dumps(key).replace("%", "%%") + ": %s" for key, _ in pairs]
    template = "    {" + sep[1:] + sep.join(members) + "\n    }"
    listed = (c.tolist() if isinstance(c, np.ndarray) else c for _, c in pairs)
    values = [_ROW_ENCODER.encode(c)[1:-1].split(sep) for c in listed]
    rows = ",\n".join(map(template.__mod__, zip(*values)))
    head, tail = skeleton.split('\n  "rows": []', 1)
    return f'{head}\n  "rows": [\n{rows}\n  ]{tail}\n'


def _emit(cfg: dict, echo, header, columns, summary) -> None:
    render = _render_csv if cfg["format"] == "csv" else _render_json
    _write_text(render(echo, header, columns, summary), cfg["out"])


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file {out}: {exc}") from None


class _StageClock:
    """Wall-clock stage timings, reported on stderr only."""

    def __init__(self) -> None:
        self.marks: list[tuple[str, float]] = []
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.marks.append((stage, now - self._last))
        self._last = now

    def report(self) -> None:
        parts = " ".join(f"{stage}={secs:.3f}s" for stage, secs in self.marks)
        print(f"timings: {parts}", file=sys.stderr)


def _geometry(cfg: dict) -> CoarseGraining:
    shape = SystemShape(cfg["qubits"], cfg["dot"])
    return run_graining(shape, cfg["left"], cfg["right"], cfg["steps"])


def _row_bytes(kept: int, words: int, fmt: str) -> int:
    """Bytes an output-table row holds from its columns to its text, its path
    of `words` window words of `kept` bits.  tracemalloc measured at most 334
    (CSV) and 759 (JSON) per row at 2**10 coarse rows and 4096 full, and 633
    and 964 at 1024 full rows of five 13-bit words."""
    return (320 if fmt == "csv" else 1280) + words * (40 + 4 * kept)


def _check_coarse_table(kept: int, fmt: str = "csv") -> None:
    """Refuse, before propagating, a kind "coarse" table whose 2**kept rows,
    one per final word whatever the run gives (_history_rows), would not fit
    the budget.  Kind "full" lists 2**steps shift continuations, but its
    propagation estimate counts a Gram block's 2 * 4**(steps - 1) complex
    entries or more, which pass the budget by 15 steps; at 14 steps a window
    has at most 47 bits (right > 14 of 62 qubits), so the 2**14 rows of 14
    words take at most 73 MB as JSON."""
    size = _row_bytes(kept, 1, fmt) << kept
    if size > DEFAULT_BUDGET_BYTES:
        raise ResourceLimitError(
            f"output table of {1 << kept} rows needs {size} bytes, "
            f"over budget {DEFAULT_BUDGET_BYTES}"
        )


def _history_rows(dist, kind: str, window: str, steps: int) -> list:
    """(path, p, oracle_p, abs_residual) columns against the shift-chain oracle.

    Kind "full" lists the retained paths and every shift continuation of the
    initial window, whose oracle (ideal_full_value) is 2**-steps; kind
    "coarse" lists all final window words, 2**-steps where a word's leading
    bits are the surviving core window[steps:] (ideal_coarse_value).
    """
    kept, x = len(window), int(window, 2)
    mask = (1 << kept) - 1
    if kind == "full":
        fresh = np.arange(1 << steps)
        chains = [(x << j & mask) | (fresh >> steps - j & mask) for j in range(1, steps + 1)]
        words = np.concatenate([dist.paths, np.stack(chains, axis=1)])
        order = np.lexsort(words.T[::-1])  # stable: a retained path before its equal chain
        words = words[order]
        starts = np.flatnonzero(np.r_[True, (words[1:] != words[:-1]).any(axis=1)])
        oracle = np.maximum.reduceat(np.where(order < len(dist.paths), 0.0, 2.0**-steps), starts)
        p = np.r_[dist.probabilities, np.zeros(1 << steps)][order][starts]
        words = words[starts]
    else:
        words = np.arange(1 << kept)[:, None]
        oracle = np.where(words[:, 0] >> steps == x & (1 << kept - steps) - 1, 2.0**-steps, 0.0)
        p = np.zeros(1 << kept)
        p[dist.paths[:, 0]] = dist.probabilities
    # each distinct window word present is formatted once
    values, inverse = np.unique(words, return_inverse=True)
    table = [format(v, f"0{kept}b") for v in values.tolist()]
    cells = [map(table.__getitem__, col) for col in inverse.reshape(words.shape).T.tolist()]
    return [list(map(";".join, zip(*cells))), p, oracle, np.abs(p - oracle)]


def _summary(dist, steps, off_max, off_rms, discarded) -> list[tuple[str, object]]:
    h = entropy_bits(dist)
    return [
        ("entropy_bits", h),
        ("oracle_entropy", float(steps)),
        ("entropy_residual", abs(h - steps)),
        ("offdiag_max", off_max),
        ("offdiag_rms", off_rms),
        ("discarded_mass", discarded),
        ("total_mass", dist.total()),
    ]


def cmd_histories(cfg: dict, kind: str) -> int:
    """full-histories (kind "full") and coarse-entropy (kind "coarse")."""
    clock = _StageClock()
    graining = _geometry(cfg)
    steps = cfg["steps"]
    echo = [("experiment", "full-histories" if kind == "full" else "coarse-entropy")]
    echo += [(key, cfg[key]) for key in ("qubits", "dot", "left", "right", "steps")]
    if kind == "full":
        window = _window_bits(cfg["init_x"], graining.kept, "init-x")
        echo.append(("init_x", window))
    else:
        if steps > graining.kept:
            raise ParameterError(
                f"need steps <= window width {graining.kept} to leave a window core, "
                f"got steps={steps}"
            )
        core = _window_bits(cfg["init_x"], graining.kept - steps, "init-x window core")
        # the leading bits are consumed during the run; default them to zeros
        window = "0" * steps + core
        echo += [("init_x", core), ("window", window)]
    if kind == "coarse":
        _check_coarse_table(graining.kept, cfg["format"])
    block = BlockInitialState(graining, window)
    clock.mark("build")
    ens = propagate_branches(
        block, steps, prune_eps=cfg["prune"], kind=kind, threads=cfg["threads"]
    )
    clock.mark("propagate")
    dist = history_distribution(ens)
    columns = _history_rows(dist, kind, window, steps)
    off_max, off_rms = offdiagonal_norm(ens)
    clock.mark("functional")
    summary = _summary(dist, steps, off_max, off_rms, ens.discarded_total)
    clock.mark("entropy")
    echo.append(("prune", cfg["prune"]))
    _emit(cfg, echo, _ROW_HEADER, columns, summary)
    clock.mark("write")
    clock.report()
    return 0


def cmd_sweep(cfg: dict) -> int:
    window = cfg["init_x"] if cfg["init_x"] is not None else "01"
    check_word(window, len(window), "init-x")
    if not window:
        raise ParameterError("init-x must be a nonempty window for a sweep")
    kept = len(window)
    lefts = _parse_int_list(cfg["sweep_left"], "sweep-left")
    steps_list = _parse_int_list(cfg["sweep_steps"], "sweep-steps")
    points = []
    for left in lefts:
        for steps in steps_list:
            t0 = time.perf_counter()
            # grow the system symmetrically, window width held fixed
            qubits, dot, right = 2 * left + kept, left + (kept + 1) // 2, left
            graining = run_graining(SystemShape(qubits, dot), left, right, steps)
            if steps <= kept:
                # a point's tables are never rendered, so the CSV figure covers them
                _check_coarse_table(kept)
            block = BlockInitialState(graining, window)
            ens = propagate_branches(
                block, steps, prune_eps=cfg["prune"], threads=cfg["threads"]
            )
            dist = history_distribution(ens)
            point = dict(_summary(dist, steps, *offdiagonal_norm(ens), ens.discarded_total))
            point.update(left=left, steps=steps, qubits=qubits, dot=dot, right=right)
            full_residual = _history_rows(dist, "full", window, steps)[3]
            point.update(window=window, full_residual_max=float(full_residual.max()))
            point["coarse_residual_max"] = None
            if steps <= kept:
                marginal = history_distribution(ens, kind="coarse")
                coarse_residual = _history_rows(marginal, "coarse", window, steps)[3]
                point["coarse_residual_max"] = float(coarse_residual.max())
            points.append(point)
            print(
                f"sweep point left={left} steps={steps}: "
                f"runtime {time.perf_counter() - t0:.3f}s",
                file=sys.stderr,
            )
    echo = [
        ("experiment", "sweep"),
        ("init_x", window),
        ("sweep_left", cfg["sweep_left"]),
        ("sweep_steps", cfg["sweep_steps"]),
        ("prune", cfg["prune"]),
    ]
    columns = [[point[key] for point in points] for key in _SWEEP_HEADER]
    _emit(cfg, echo, _SWEEP_HEADER, columns, [("points", len(points))])
    return 0


def _gram_deviation(a: np.ndarray) -> float:
    """max |A^H A - I| over every entry, one _GRAM_BLOCK of columns at a time.

    Block i's conjugate meets only the columns from its own start onward,
    since |G_ji| = |G_ij|, so each column pair is formed once and nothing of
    dim x dim size is allocated.  On one BLAS thread, as the CLI runs, equal
    bit for bit to the dense np.abs(a.conj().T @ a - np.eye(n)).max().
    """
    n = a.shape[1]
    dev = 0.0
    for start in range(0, n, _GRAM_BLOCK):
        width = min(_GRAM_BLOCK, n - start)
        gram = a[:, start : start + width].conj().T @ a[:, start:]
        # the block's diagonal: entry (k, k) of each row's slice
        gram.reshape(-1)[:: n - start + 1] -= 1
        dev = max(dev, float(np.abs(gram).max()))
    return dev


def cmd_check(cfg: dict) -> int:
    graining = _geometry(cfg)
    shape = graining.shape
    if shape.qubits > DENSE_LIMIT:
        raise ParameterError(
            f"check needs qubits <= {DENSE_LIMIT} for its dense matrix suites, "
            f"got {shape.qubits}"
        )
    window = _window_bits(cfg["init_x"], graining.kept, "init-x")
    lines: list[str] = []
    failures: list[str] = []

    def record(name: str, dev: float) -> None:
        ok = dev <= _CHECK_TOL
        lines.append(
            f"{name}: max deviation {dev:.3e} (tol {_CHECK_TOL:g}) "
            f"{'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(name)

    # both dense suites fill one dim x dim buffer, freed before the suites
    # below.  A second matrix of 16 MiB would come from the heap, which
    # glibc keeps resident after it is freed; this one is mapped on its
    # own and goes back to the OS, so the later suites do not stack on it
    dim = shape.dim
    dense = np.empty((dim, dim), dtype=np.complex128)
    record("basis orthonormality", _gram_deviation(basis_matrix(shape, out=dense)))
    record("map unitarity", _gram_deviation(baker_matrix(shape, out=dense)))
    del dense

    rng = np.random.default_rng(7)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    words = [format(w, f"0{graining.kept}b") for w in range(1 << graining.kept)]
    parts = [project(vec, graining, w) for w in words]
    record("projector completeness", float(np.abs(sum(parts) - vec).max()))
    record(
        "projector orthogonality",
        max(
            float(np.abs(project(parts[i], graining, words[j])).max())
            for i in range(len(words))
            for j in range(len(words))
            if i != j
        ),
    )
    record(
        "projector idempotence",
        max(
            float(np.abs(project(parts[i], graining, words[i]) - parts[i]).max())
            for i in range(len(words))
        ),
    )

    block = BlockInitialState(graining, window)
    ens_c = propagate_branches(
        block, cfg["steps"], prune_eps=0.0, kind="coarse", threads=cfg["threads"]
    )
    record("coarse decoherence exactness", offdiagonal_norm(ens_c)[0])
    ens_f = propagate_branches(
        block, cfg["steps"], prune_eps=0.0, threads=cfg["threads"]
    )
    finals = [words[w] for w in np.union1d(ens_f.paths[:, -1], ens_c.paths[:, 0])]
    record(
        "full-to-coarse sum rule",
        max(
            abs(coarse_dfunc(ens_f, y, z) - coarse_dfunc(ens_c, y, z))
            for y in finals
            for z in finals
        ),
    )
    delta = np.abs(baker_matrix(SystemShape(6, 5)) - bvs_reference_matrix(6)).max()
    record("reference map correspondence (qubits=6, dot=5)", float(delta))

    verdict = f"invariant violated: {failures[0]}" if failures else "all checks passed"
    _write_text("\n".join(lines + [verdict]) + "\n", cfg["out"])
    if failures:
        raise InvariantError(verdict)
    return 0


# subcommand -> (function, help)
_COMMANDS = {
    "check": (
        cmd_check,
        "run the invariant suites and report deviations "
        "(always propagates unpruned: --prune is validated but not used)",
    ),
    "coarse-entropy": (
        functools.partial(cmd_histories, kind="coarse"),
        "final-window-only distribution and entropy for a window core",
    ),
    "full-histories": (
        functools.partial(cmd_histories, kind="full"),
        "per-step window histories against the shift-chain oracle",
    ),
    "sweep": (
        cmd_sweep,
        "trend table over window offsets and step counts "
        "(geometry derived from --init-x width; --qubits/--dot/--left/"
        "--right/--steps are ignored)",
    ),
}


def _add_options(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), help=_OPTIONS[key][2])


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_options(common, [key for key in _OPTIONS if key not in _SWEEP_ONLY])
    common.add_argument("--config", help="key = value config file; flags override")

    parser = argparse.ArgumentParser(
        prog="qbaker",
        description="Baker-map history experiments: invariant checks, "
        "entropy growth, and decoherence trends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        if name == "sweep":
            _add_options(command, _SWEEP_ONLY)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command][0](cfg)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))

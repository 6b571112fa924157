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

Flags override config-file values (flat ``key = value`` lines, ``#``
comments allowed); built-in defaults fill whatever remains.  Data goes
to CSV ('#'-prefixed comment lines carry the config echo and the
summary block) or JSON (one object with keys "config", "rows",
"summary").  Floats are written with 17 significant digits, row order
is fixed, and the propagation engine reduces in a fixed order at any
thread count, so identical configurations produce byte-identical output
files.  Wall-clock timings go to stderr only, never into output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from .bakermap import DENSE_LIMIT, baker_matrix, basis_state, bvs_reference_matrix
from .coarsegrain import BlockInitialState, CoarseGraining, project, validate_run
from .core import SystemShape
from .errors import InvariantError, ParameterError, ResourceLimitError
from .histories import (
    coarse_dfunc,
    entropy_bits,
    history_distribution,
    ideal_coarse_value,
    ideal_full_value,
    offdiagonal_norm,
    propagate_branches,
)

_CHECK_TOL = 1e-10
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

# defaults satisfy left < dot, right < qubits - dot, steps < right with margin
_DEFAULTS = {
    "qubits": 8,
    "dot": 4,
    "left": 2,
    "right": 3,
    "steps": 2,
    "prune": 1e-12,
    "format": "csv",
    "sweep_left": "4,6,8",
    "sweep_steps": "2",
}

_CONVERTERS = {
    "qubits": int,
    "dot": int,
    "left": int,
    "right": int,
    "steps": int,
    "init_x": str,
    "prune": float,
    "out": str,
    "format": str,
    "threads": int,
    "sweep_left": str,
    "sweep_steps": str,
}


def _fmt(value: float) -> str:
    return "%.17g" % value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
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
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """Flag value if given, else config-file value, else built-in default."""
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_CONVERTERS))
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
    cfg: dict = {}
    for key, conv in _CONVERTERS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif key in file_values:
            try:
                cfg[key] = conv(file_values[key])
            except ValueError:
                raise ParameterError(
                    f"config key {key} needs a {conv.__name__} value, "
                    f"got {file_values[key]!r}"
                ) from None
        else:
            cfg[key] = _DEFAULTS.get(key)
    if cfg["format"] not in ("csv", "json"):
        raise ParameterError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    if not cfg["prune"] >= 0:
        raise ParameterError(f"prune must be >= 0, got {cfg['prune']}")
    if cfg["threads"] is None:
        env = os.environ.get("QBAKER_THREADS")
        if env is not None:
            try:
                cfg["threads"] = int(env)
            except ValueError:
                raise ParameterError(
                    f"QBAKER_THREADS needs an int value, got {env!r}"
                ) from None
        else:
            cfg["threads"] = os.cpu_count() or 1
    return cfg


def _window_bits(value: str | None, width: int, what: str) -> str:
    if value is None:
        return "0" * width
    if len(value) != width or any(ch not in "01" for ch in value):
        raise ParameterError(f"{what} must be {width} bits of '0'/'1', got {value!r}")
    return value


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


def _shift_continuations(window: str, steps: int) -> set[tuple[str, ...]]:
    """All per-step window histories reachable by dropping one leading bit
    and appending one fresh bit each step."""
    grown = [((), window)]
    for _ in range(steps):
        grown = [
            (hist + (nxt,), nxt)
            for hist, last in grown
            for nxt in (last[1:] + "0", last[1:] + "1")
        ]
    return {hist for hist, _ in grown}


def _render_csv(echo, header, rows, summary) -> str:
    buf = io.StringIO()
    for key, value in echo:
        buf.write(f"# {key} = {_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    for key, value in summary:
        buf.write(f"# {key} = {_cell(value)}\n")
    return buf.getvalue()


def _render_json(echo, header, rows, summary) -> str:
    obj = {
        "config": dict(echo),
        "rows": [dict(zip(header, row)) for row in rows],
        "summary": dict(summary),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(cfg: dict, echo, header, rows, summary) -> None:
    if cfg["format"] == "csv":
        text = _render_csv(echo, header, rows, summary)
    else:
        text = _render_json(echo, header, rows, summary)
    _write_text(text, cfg["out"])


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
    left, right = cfg["left"], cfg["right"]
    # name the standing run inequalities before the structural window check,
    # so a config that breaks both reports the constraint that moved
    if left >= 0 and not left < shape.dot:
        raise ParameterError(f"need left < dot, got left={left}, dot={shape.dot}")
    if right >= 0 and not right < shape.qubits - shape.dot:
        raise ParameterError(
            f"need right < qubits - dot, got right={right}, "
            f"qubits={shape.qubits}, dot={shape.dot}"
        )
    graining = CoarseGraining(shape, left, right)
    validate_run(graining, cfg["steps"])
    return graining


def _history_rows(dist, kind: str, window: str, steps: int) -> list[tuple]:
    """(path, p, oracle_p, abs_residual) rows against the shift-chain oracle.

    Kind "full" lists the retained paths and every shift continuation of the
    initial window; kind "coarse" lists all final window words, whose oracle
    compares the surviving core window[steps:] with the word's leading bits.
    """
    kept = len(window)
    if kind == "full":
        paths = sorted(set(dist.paths) | _shift_continuations(window, steps))
        oracles = [ideal_full_value(window, path, path) for path in paths]
    else:
        paths = [(format(v, f"0{kept}b"),) for v in range(1 << kept)]
        core = window[steps:]
        oracles = [ideal_coarse_value(core, word[: kept - steps], steps) for (word,) in paths]
    prob = dict(zip(dist.paths, dist.probabilities))
    rows = []
    for path, oracle in zip(paths, oracles):
        p = float(prob.get(path, 0.0))
        rows.append((";".join(path), p, oracle, abs(p - oracle)))
    return rows


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
    block = BlockInitialState(graining, window)
    clock.mark("build")
    ens = propagate_branches(
        block, steps, prune_eps=cfg["prune"], kind=kind, threads=cfg["threads"]
    )
    clock.mark("propagate")
    dist = history_distribution(ens)
    rows = _history_rows(dist, kind, window, steps)
    off_max, off_rms = offdiagonal_norm(ens)
    clock.mark("functional")
    summary = _summary(dist, steps, off_max, off_rms, ens.discarded_total)
    clock.mark("entropy")
    echo.append(("prune", cfg["prune"]))
    _emit(cfg, echo, _ROW_HEADER, rows, summary)
    clock.mark("write")
    clock.report()
    return 0


def cmd_sweep(cfg: dict) -> int:
    window = cfg["init_x"] if cfg["init_x"] is not None else "01"
    window = _window_bits(window, len(window), "init-x")
    if not window:
        raise ParameterError("init-x must be a nonempty window for a sweep")
    kept = len(window)
    lefts = _parse_int_list(cfg["sweep_left"], "sweep-left")
    steps_list = _parse_int_list(cfg["sweep_steps"], "sweep-steps")
    rows = []
    for left in lefts:
        for steps in steps_list:
            t0 = time.perf_counter()
            # grow the system symmetrically, window width held fixed
            qubits, dot, right = 2 * left + kept, left + (kept + 1) // 2, left
            graining = CoarseGraining(SystemShape(qubits, dot), left, right)
            validate_run(graining, steps)
            block = BlockInitialState(graining, window)
            ens = propagate_branches(
                block, steps, prune_eps=cfg["prune"], threads=cfg["threads"]
            )
            dist = history_distribution(ens)
            point = dict(_summary(dist, steps, *offdiagonal_norm(ens), ens.discarded_total))
            point.update(left=left, steps=steps, qubits=qubits, dot=dot, right=right)
            full_rows = _history_rows(dist, "full", window, steps)
            point.update(window=window, full_residual_max=max(row[3] for row in full_rows))
            point["coarse_residual_max"] = None
            if steps <= kept:
                marginal = history_distribution(ens, kind="coarse")
                coarse_rows = _history_rows(marginal, "coarse", window, steps)
                point["coarse_residual_max"] = max(row[3] for row in coarse_rows)
            rows.append(tuple(point[key] for key in _SWEEP_HEADER))
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
    _emit(cfg, echo, _SWEEP_HEADER, rows, [("points", len(rows))])
    return 0


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

    dim = shape.dim
    basis = np.column_stack(
        [
            basis_state(shape, shape.dot, format(j, f"0{shape.qubits}b"))
            for j in range(dim)
        ]
    )
    record("basis orthonormality", float(np.abs(basis.conj().T @ basis - np.eye(dim)).max()))
    u = baker_matrix(shape)
    record("map unitarity", float(np.abs(u.conj().T @ u - np.eye(dim)).max()))

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
    finals = sorted({p[-1] for p in ens_f.paths} | {p[0] for p in ens_c.paths})
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
        print(f"error: invariant violated: {failures[0]}", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "check": cmd_check,
    "coarse-entropy": functools.partial(cmd_histories, kind="coarse"),
    "full-histories": functools.partial(cmd_histories, kind="full"),
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--qubits", type=int, help="total qubit count")
    common.add_argument("--dot", type=int, help="dot position of the map")
    common.add_argument("--left", type=int, help="ignored leading qubits")
    common.add_argument("--right", type=int, help="ignored trailing qubits")
    common.add_argument("--steps", type=int, help="number of map iterations")
    common.add_argument(
        "--init-x",
        dest="init_x",
        help="initial window bits (window core for coarse-entropy; "
        "defaults to all zeros)",
    )
    common.add_argument("--prune", type=float, help="branch-norm pruning threshold")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument(
        "--threads", type=int, help="propagation threads (default: available cores)"
    )
    common.add_argument("--config", help="key = value config file; flags override")

    parser = argparse.ArgumentParser(
        prog="qbaker",
        description="Baker-map history experiments: invariant checks, "
        "entropy growth, and decoherence trends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "check",
        parents=[common],
        help="run the invariant suites and report deviations "
        "(always propagates unpruned: --prune is validated but not used)",
    )
    sub.add_parser(
        "coarse-entropy",
        parents=[common],
        help="final-window-only distribution and entropy for a window core",
    )
    sub.add_parser(
        "full-histories",
        parents=[common],
        help="per-step window histories against the shift-chain oracle",
    )
    sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="trend table over window offsets and step counts "
        "(geometry derived from --init-x width; --qubits/--dot/--left/"
        "--right/--steps are ignored)",
    )
    sweep.add_argument(
        "--sweep-left",
        dest="sweep_left",
        help="comma-separated window offsets (empty for a header-only table)",
    )
    sweep.add_argument(
        "--sweep-steps", dest="sweep_steps", help="comma-separated step counts"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

"""Parse qbaker output files and decide whether an invocation succeeded.

An invocation fails when it exits nonzero, when its output cannot be parsed,
when it breaks one of the physical checks below, or, for an invocation whose
inputs have a recorded reference, when any number in its output differs from
the reference by more than REFERENCE_TOL or any text field differs at all.

Checks on every invocation that reports them:

* ``total_mass`` within MASS_TOL of 1;
* ``coarse-entropy``: ``offdiag_max`` at most COARSE_OFFDIAG_TOL (final-window
  histories decohere exactly);
* ``check``: the verdict line reads "all checks passed".

Checks a workload asks for by name (``Invocation.rules``):

* ``offdiag_falls``: ``offdiag_max`` strictly falls as ``left`` grows, and every
  ``entropy_residual`` is below MAX_ENTROPY_RESIDUAL;
* ``one_bit_per_step``: the least-squares slope of ``entropy_bits`` against
  ``steps`` lies in SLOPE_RANGE bits per step.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
from pathlib import Path

MASS_TOL = 1e-9
COARSE_OFFDIAG_TOL = 1e-10
MAX_ENTROPY_RESIDUAL = 0.15
SLOPE_RANGE = (0.9, 1.1)
REFERENCE_TOL = 1e-9
# stored reference values are rounded to this many decimals, far inside
# REFERENCE_TOL, so the file compresses well
REFERENCE_DECIMALS = 12
PASSED = "all checks passed"

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json.gz"

# fields that hold bit strings or names, never numbers
_TEXT_KEYS = {"path", "window", "init_x", "experiment", "sweep_left", "sweep_steps"}


def _value(key: str, raw):
    if raw is None or key in _TEXT_KEYS:
        return raw
    if isinstance(raw, str):
        return float(raw) if raw else None
    return float(raw)


def parse(text: str, fmt: str) -> dict:
    """Output text -> {"config": {}, "rows": [{}], "summary": {}} or, for
    ``check`` reports, {"checks": {name: deviation}, "verdict": str}."""
    if fmt == "text":
        lines = text.strip().splitlines()
        checks = {}
        for line in lines[:-1]:
            name, _, rest = line.rpartition(": max deviation ")
            checks[name] = float(rest.split()[0])
        return {"checks": checks, "verdict": lines[-1]}
    if fmt == "json":
        obj = json.loads(text)
        return {
            "config": {k: _value(k, v) for k, v in obj["config"].items()},
            "rows": [{k: _value(k, v) for k, v in r.items()} for r in obj["rows"]],
            "summary": {k: _value(k, v) for k, v in obj["summary"].items()},
        }
    config: dict = {}
    summary: dict = {}
    table: list[str] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            (summary if table else config)[key] = _value(key, val)
        else:
            table.append(line)
    reader = csv.DictReader(io.StringIO("\n".join(table)))
    rows = [{k: _value(k, v) for k, v in r.items()} for r in reader]
    return {"config": config, "rows": rows, "summary": summary}


def flatten(doc: dict) -> tuple[list, list[str]]:
    """Every number (None for an empty cell) and every text field, in a fixed
    order that does not depend on the output format."""
    numbers: list = []
    texts: list[str] = []
    if "checks" in doc:
        for name, dev in doc["checks"].items():
            texts.append(name)
            numbers.append(dev)
        texts.append(doc["verdict"])
        return numbers, texts
    for record in [doc["config"], *doc["rows"], doc["summary"]]:
        for key in sorted(record):
            value = record[key]
            if key in _TEXT_KEYS:
                texts.append(f"{key}={value}")
            else:
                numbers.append(value)
    return numbers, texts


def fingerprint(doc: dict) -> dict:
    """Reference record for one output: rounded numbers plus a text digest."""
    numbers, texts = flatten(doc)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {
        "numbers": [None if v is None else round(v, REFERENCE_DECIMALS) for v in numbers],
        "text_sha256": digest,
    }


def load_reference() -> dict:
    with gzip.open(REFERENCE_FILE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(records: dict) -> None:
    data = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0 keeps the file byte-identical when the references are unchanged
    with gzip.GzipFile(REFERENCE_FILE, "wb", mtime=0) as fh:
        fh.write(data)


def _slope(xs: list[float], ys: list[float]) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _rule_problems(doc: dict, rules: tuple[str, ...]) -> list[str]:
    problems = []
    rows = doc.get("rows", [])
    if "offdiag_falls" in rules:
        ordered = sorted(rows, key=lambda r: r["left"])
        offs = [r["offdiag_max"] for r in ordered]
        if len(offs) < 2 or any(b >= a for a, b in zip(offs, offs[1:])):
            problems.append(f"offdiag_max does not strictly fall with left: {offs}")
        worst = max(r["entropy_residual"] for r in rows)
        if not worst < MAX_ENTROPY_RESIDUAL:
            problems.append(f"entropy_residual {worst} not below {MAX_ENTROPY_RESIDUAL}")
    if "one_bit_per_step" in rules:
        steps = [r["steps"] for r in rows]
        if len(set(steps)) < 2:
            problems.append("entropy slope needs at least two step counts")
        else:
            slope = _slope(steps, [r["entropy_bits"] for r in rows])
            if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
                problems.append(f"entropy slope {slope} bits/step outside {SLOPE_RANGE}")
    return problems


def _reference_problems(doc: dict, ref: dict) -> list[str]:
    got = fingerprint(doc)
    if got["text_sha256"] != ref["text_sha256"]:
        return ["text fields differ from the reference"]
    if len(got["numbers"]) != len(ref["numbers"]):
        return [f"{len(got['numbers'])} numbers, reference has {len(ref['numbers'])}"]
    for i, (a, b) in enumerate(zip(flatten(doc)[0], ref["numbers"])):
        if (a is None) != (b is None) or (a is not None and abs(a - b) > REFERENCE_TOL):
            return [f"number {i} is {a}, reference {b}"]
    return []


def problems(
    subcommand: str,
    fmt: str,
    rules: tuple[str, ...],
    returncode: int,
    text: str | None,
    reference: dict | None = None,
) -> list[str]:
    """Everything wrong with one invocation's result; empty means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = parse(text or "", fmt)
        found = _output_problems(subcommand, doc)
        found += _rule_problems(doc, rules)
        if reference is not None:
            found += _reference_problems(doc, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return found


def _output_problems(subcommand: str, doc: dict) -> list[str]:
    if subcommand == "check":
        if doc["verdict"] != PASSED:
            return [f"check verdict {doc['verdict']!r}"]
        return []
    found = []
    summary = doc["summary"]
    if "total_mass" in summary and not abs(summary["total_mass"] - 1.0) <= MASS_TOL:
        found.append(f"total_mass {summary['total_mass']} not within {MASS_TOL} of 1")
    if subcommand == "coarse-entropy" and not summary["offdiag_max"] <= COARSE_OFFDIAG_TOL:
        found.append(f"coarse offdiag_max {summary['offdiag_max']} above {COARSE_OFFDIAG_TOL}")
    return found

"""Compare the command line of two source trees, invocation by invocation.

    python tests/compare_cli.py PARENT_SRC CHANGE_SRC

Runs a fixed list of qbaker command lines in fresh processes, once with
PYTHONPATH=PARENT_SRC and once with PYTHONPATH=CHANGE_SRC (each a directory
holding the qbaker package), one at a time.  For each it prints both exit
codes, whether the output files are byte-identical and whether stderr is
identical once timing lines are removed, then a summary.  Where the output
bytes differ it also prints whether the text fields match and the largest
absolute difference between numeric fields, and the summary says whether
every such difference is within TOLERANCE, so one run checks a declared
last-digit change.  Each --threads 1 invocation whose default-threads twin
is listed is also compared with that twin, CHANGE_SRC against CHANGE_SRC,
byte for byte.  It exits 1 when any invocation or twin differs.  The list
covers every perfbench invocation of seeds 0 and 7, pruned runs of the
three data commands, the sweep points left 10 / steps 3, left 11 / steps 2
and left 12 / steps 2 (26 qubits), left 8 / steps 5 and a pruned left 8 /
steps 4, --threads 1 against the default, both output formats and two
budget refusals.

Standard library only.  pytest does not collect this file.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402

TIMEOUT_S = 900
# largest numeric difference a declared last-digit change may make
TOLERANCE = 1e-12
# "timings: ..." of full-histories and coarse-entropy, "sweep point ...: runtime" of sweep
TIMING = re.compile(r"^(timings: |sweep point .*: runtime )")

# (qubits, dot, left, right, steps, init-x of full-histories): the default
# geometry, four groups of one a-chunk, and two groups of four a-chunks
GEOMETRIES = [
    (8, 4, 2, 3, 2, "010"),
    (12, 7, 5, 4, 3, "001"),
    (13, 9, 8, 3, 2, "01"),
    (15, 9, 8, 4, 3, "011"),
]


def invocations() -> list[list[str]]:
    out = []
    for seed in (0, 7):
        for name in perfbench.WORKLOADS:
            out += [list(inv.args) for inv in perfbench.invocations(name, seed)]
    # the perfbench runs with the most FFT runs of rows: step-entropy's sweep
    # to 4 steps and coarse-exact's coarse-entropy at 4 steps
    deep = [list(args) for args in dict.fromkeys(
        tuple(args) for args in out if "1,2,3,4" in args
        or args[0] == "coarse-entropy" and args[args.index("--steps") + 1] == "4")]
    for prune in ("0.01", "1e-3", "5"):
        for fmt in ("csv", "json"):
            for q, d, left, right, steps, window in GEOMETRIES:
                geometry = ["--qubits", str(q), "--dot", str(d), "--left", str(left),
                            "--right", str(right), "--steps", str(steps)]
                common = ["--prune", prune, "--format", fmt]
                out.append(["full-histories", *geometry, "--init-x", window, *common])
                # coarse-entropy takes the window core left after `steps` shifts
                core = window[steps:]
                out.append(["coarse-entropy", *geometry, *(["--init-x", core] if core else []),
                            *common])
            out.append(["sweep", "--sweep-left", "4,6,8", "--sweep-steps", "1,2,3",
                        "--prune", prune, "--format", fmt])
    threaded = deep + [args for args in out if "--prune" in args and "1e-3" in args]
    out += [args + ["--threads", "1"] for args in threaded]
    # sweep points of several a-chunks each, sized by the 16 MiB output cap,
    # so that regrouping the label sums shows against the --threads 1 twin
    for left, steps in ((10, 3), (11, 2), (12, 2)):
        point = ["sweep", "--sweep-left", str(left), "--sweep-steps", str(steps), "--init-x", "01"]
        out += [point, point + ["--threads", "1"]]
    # a unit's last step over 8 blocks of labels (one label each at five
    # steps), unpruned and pruned, so that the order of the blocks' Gram sums
    # shows against the parent and against the --threads 1 twin
    for point in (["sweep", "--sweep-left", "8", "--sweep-steps", "5"],
                  ["sweep", "--sweep-left", "8", "--sweep-steps", "4", "--prune", "1e-3"]):
        out += [point, point + ["--threads", "1"]]
    # two budget refusals, whose error lines carry the projected peak: at
    # this tree 19048874240 and 577905913088 bytes, so a change to
    # _estimate_bytes shows here as a stderr difference it must declare
    out += [
        ["full-histories", "--qubits", "20", "--dot", "10", "--left", "9", "--right", "9",
         "--steps", "8", "--init-x", "01"],
        ["sweep", "--sweep-left", "11", "--sweep-steps", "9"],
    ]
    return out


def run_once(src: str, args: list[str], out: Path) -> tuple[int, bytes | None, list[str]]:
    out.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in perfbench.THREAD_VARS}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-m", "qbaker", *args, "--out", str(out)],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=TIMEOUT_S,
    )
    err = proc.stderr.decode("utf-8", "replace").splitlines()
    text = out.read_bytes() if out.exists() else None
    return proc.returncode, text, [line for line in err if not TIMING.match(line)]


def fields(text: bytes) -> list[str]:
    """An output file's fields in order: JSON keys and leaves, or CSV cells."""
    doc = text.decode("utf-8")
    try:
        data = json.loads(doc)
    except ValueError:
        # CSV rows, and "# key = value" lines
        return [cell for line in doc.splitlines() for cell in re.split(r",| = ", line)]
    out = []

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                out.append(key)
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        else:
            out.append(str(node))

    walk(data)
    return out


def field_diff(a: bytes, b: bytes) -> tuple[bool, float]:
    """Whether two outputs agree in every text field, and their largest
    numeric difference (nan when they hold different numbers of fields).

    A pair of unequal fields is numeric when float() reads both and they are
    not both digit strings, such as windows or counts.
    """
    fa, fb = fields(a), fields(b)
    if len(fa) != len(fb):
        return False, math.nan
    text_same, largest = True, 0.0
    for x, y in zip(fa, fb):
        if x == y:
            continue
        if x.isdigit() and y.isdigit():
            text_same = False
            continue
        try:
            largest = max(largest, abs(float(x) - float(y)))
        except ValueError:
            text_same = False
    return text_same, largest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (str(Path(src).resolve()) for src in argv)
    same = {"exit": 0, "output": 0, "stderr": 0}
    text_same, largest = True, 0.0
    cases = invocations()
    # the change's output of each invocation, and how many --threads 1 ones
    # matched their default-threads twin
    outputs, twins, twins_same = {}, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for args in cases:
            code_a, text_a, err_a = run_once(parent, args, out)
            code_b, text_b, err_b = run_once(change, args, out)
            flags = {"exit": code_a == code_b, "output": text_a == text_b, "stderr": err_a == err_b}
            for key, ok in flags.items():
                same[key] += ok
            marks = " ".join(f"{key} {'same' if ok else 'DIFF'}" for key, ok in flags.items())
            print(f"exit {code_a}/{code_b}  {marks}  {' '.join(args)}", flush=True)
            if not flags["output"] and text_a is not None and text_b is not None:
                texts, diff = field_diff(text_a, text_b)
                text_same, largest = text_same and texts, max(largest, diff)
                print(f"    text fields {'same' if texts else 'DIFF'}, "
                      f"largest numeric difference {diff:.3g}", flush=True)
            if not flags["stderr"]:
                print(f"    parent stderr: {err_a}\n    change stderr: {err_b}", flush=True)
            outputs[tuple(args)] = text_b
            twin = tuple(args[:-2])
            if args[-2:] == ["--threads", "1"] and twin in outputs:
                twins += 1
                twins_same += outputs[twin] == text_b
                if outputs[twin] != text_b:
                    print("    change output DIFF from the default-threads run", flush=True)
    n = len(cases)
    print(f"{n} invocations: identical exit code {same['exit']}/{n}, output bytes "
          f"{same['output']}/{n}, non-timing stderr {same['stderr']}/{n}")
    if same["output"] < n:
        within = text_same and largest <= TOLERANCE
        print(f"outputs that differ: text fields {'same' if text_same else 'DIFF'}, largest "
              f"numeric difference {largest:.3g} ({'within' if within else 'OVER'} {TOLERANCE:g})")
    print(f"--threads 1 against the default, change: output bytes {twins_same}/{twins}")
    return 0 if min(same.values()) == n and twins_same == twins else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

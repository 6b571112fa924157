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
steps 4, check at three more geometries, full-histories and coarse-entropy
at a 13-bit window over five steps (a path of 65 bits), full-histories
of 32768 rows at (16, 6, 4, 6, 5) in CSV and JSON, full-histories
at dots 10 and 11 where the dense arm's closed-form column blocks are
tallest, a pruned mirrored coarse-entropy, a pruned mirrored
full-histories and two pruned dense-arm full-histories, the mirrored one
and one dense one of several units per group that keep different rows,
each with a --threads 1 twin, --threads 1 against the default, both output
formats and two budget refusals, each naming the projected peak and its
largest item.
check's report is compared line by line: a suite's name and verdict as
text, its numbers as numbers.  Each invocation's line also prints both
trees' peak RSS, read with os.wait4, and the summary names the largest
rise and the largest fall; these are information only and never change
the exit code.  A child's peak starts at its parent's RSS, and this
script, which loads no numpy, stays below every qbaker process.

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
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402

TIMEOUT_S = 900
# largest numeric difference a declared last-digit change may make
TOLERANCE = 1e-12
# "timings: ..." of full-histories and coarse-entropy, "sweep point ...: runtime" of sweep
TIMING = re.compile(r"^(timings: |sweep point .*: runtime )")
# a suite line of check's report: its name, deviation, tolerance and verdict
SUITE = re.compile(r"^(.*): max deviation (\S+) \(tol (\S+)\) (ok|FAIL)$")

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
    # check's dense suites at three more dots than perfbench's (10, 5): the
    # default geometry, then (10, 3) and (9, 6)
    out += [
        ["check"],
        ["check", "--qubits", "10", "--dot", "3", "--left", "1", "--right", "5",
         "--steps", "2", "--init-x", "1111"],
        ["check", "--qubits", "9", "--dot", "6", "--left", "4", "--right", "2",
         "--steps", "1", "--init-x", "101"],
    ]
    threaded = deep + [args for args in out if "--prune" in args and "1e-3" in args]
    out += [args + ["--threads", "1"] for args in threaded]
    # sweep points of several a-chunks each, sized by the block bound, so
    # that regrouping the label sums shows against the --threads 1 twin
    for left, steps in ((10, 3), (11, 2), (12, 2)):
        point = ["sweep", "--sweep-left", str(left), "--sweep-steps", str(steps), "--init-x", "01"]
        out += [point, point + ["--threads", "1"]]
    # a unit's last step over 4 blocks of one label at five steps and 8
    # blocks of two at four, unpruned and pruned, so that the order of the
    # blocks' Gram sums shows against the parent and the --threads 1 twin
    for point in (["sweep", "--sweep-left", "8", "--sweep-steps", "5"],
                  ["sweep", "--sweep-left", "8", "--sweep-steps", "4", "--prune", "1e-3"]):
        out += [point, point + ["--threads", "1"]]
    # a 13-bit window over five steps: a path's words span 65 bits, more than
    # one int64 holds; 1024 rows of full histories, 8192 coarse ones
    wide = ["--qubits", "30", "--dot", "2", "--left", "1", "--right", "16", "--steps", "5"]
    out += [["full-histories", *wide, "--init-x", "0110100110010", "--format", fmt]
            for fmt in ("csv", "json")]
    out.append(["coarse-entropy", *wide, "--init-x", "00110010"])
    # the largest table listed: 32768 rows of full histories
    out += [["full-histories", "--qubits", "16", "--dot", "6", "--left", "4", "--right", "6",
             "--steps", "5", "--init-x", "010110", "--format", fmt] for fmt in ("csv", "json")]
    # the dense arm at dots 10 and 11: each run of rows multiplies a block of
    # 64 closed-form kernel columns, 2048 and 4096 rows tall
    for qubits, dot, window in ((14, 10, "01101"), (15, 11, "011010")):
        out.append(["full-histories", "--qubits", str(qubits), "--dot", str(dot), "--left", "6",
                    "--right", "3", "--steps", "2", "--init-x", window])
    # partial pruning where no benchmark workload prunes: one-row units of a
    # mirrored FFT coarse run (0.0077 discarded), a mirrored FFT full run at
    # 16 units per group whose kept rows differ (0.0070 discarded), so a
    # partner's block keeps what its group's units kept, the dense arm at 16
    # blocks per unit (0.0083 discarded), and the dense arm at 8 units per
    # group whose kept rows differ (0.0019), each against its --threads 1 twin
    for point in (["coarse-entropy", "--qubits", "22", "--dot", "10", "--left", "9",
                   "--right", "9", "--steps", "4", "--prune", "0.3"],
                  ["full-histories", "--qubits", "15", "--dot", "9", "--left", "8",
                   "--right", "5", "--steps", "4", "--init-x", "00", "--prune", "0.01"],
                  ["full-histories", "--qubits", "16", "--dot", "6", "--left", "4",
                   "--right", "6", "--steps", "4", "--init-x", "010110", "--prune", "1e-3"],
                  ["full-histories", "--qubits", "15", "--dot", "8", "--left", "7",
                   "--right", "5", "--steps", "4", "--init-x", "011", "--prune", "1e-3"]):
        out += [point, point + ["--threads", "1"]]
    # two budget refusals, whose error lines carry the projected peak: at
    # this tree 6781513792 and 26109481024 bytes (2 threads), the largest
    # item the step workspace, so a change to _estimate_bytes shows here as a
    # stderr difference it must declare
    out += [
        ["full-histories", "--qubits", "21", "--dot", "10", "--left", "9", "--right", "10",
         "--steps", "9", "--init-x", "01"],
        ["sweep", "--sweep-left", "11", "--sweep-steps", "9"],
    ]
    return out


def run_once(src: str, args: list[str], out: Path) -> tuple[int, bytes | None, list[str], float]:
    """Exit code, output bytes, non-timing stderr lines and peak RSS in MiB."""
    out.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in perfbench.THREAD_VARS}
    env["PYTHONPATH"] = src
    with tempfile.TemporaryFile() as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qbaker", *args, "--out", str(out)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
        )
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        err = log.read().decode("utf-8", "replace").splitlines()
    text = out.read_bytes() if out.exists() else None
    kept = [line for line in err if not TIMING.match(line)]
    return proc.returncode, text, kept, usage.ru_maxrss / 1024


def _cells(line: str) -> list[str]:
    suite = SUITE.match(line)
    return list(suite.groups()) if suite else re.split(r",| = ", line)


def fields(text: bytes) -> list[str]:
    """An output file's fields in order: JSON keys and leaves, CSV cells, or
    the name, numbers and verdict of each suite line of check's report."""
    doc = text.decode("utf-8")
    try:
        data = json.loads(doc)
    except ValueError:
        # CSV rows, "# key = value" lines, and check's suite and verdict lines
        return [cell for line in doc.splitlines() for cell in _cells(line)]
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
    # (change minus parent peak RSS in MiB, the invocation) of the largest
    # rise and of the largest fall
    rise, fall = (-math.inf, []), (math.inf, [])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for args in cases:
            code_a, text_a, err_a, rss_a = run_once(parent, args, out)
            code_b, text_b, err_b, rss_b = run_once(change, args, out)
            rise, fall = max(rise, (rss_b - rss_a, args)), min(fall, (rss_b - rss_a, args))
            flags = {"exit": code_a == code_b, "output": text_a == text_b, "stderr": err_a == err_b}
            for key, ok in flags.items():
                same[key] += ok
            marks = " ".join(f"{key} {'same' if ok else 'DIFF'}" for key, ok in flags.items())
            print(f"exit {code_a}/{code_b}  {marks}  rss {rss_a:.1f}/{rss_b:.1f} MiB  "
                  f"{' '.join(args)}", flush=True)
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
    print(f"peak RSS, change minus parent: largest rise {rise[0]:+.1f} MiB "
          f"({' '.join(rise[1])}), largest fall {fall[0]:+.1f} MiB ({' '.join(fall[1])})")
    return 0 if min(same.values()) == n and twins_same == twins else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the qbaker command line, run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from the root of a qbaker source tree: the program under test is
``src/qbaker``, imported through PYTHONPATH, never an installed copy.  Each
CLI invocation is a fresh ``python -m qbaker`` process, one at a time, with
the default ``--threads`` and with QBAKER_THREADS and the BLAS/OpenMP thread
variables removed from its environment.  A workload's seed picks only the
``--init-x`` bits; its geometry is fixed.

Untraced run (--trace 0).  The end-to-end metrics:

* setup_s: median wall time of SETUP_REPEATS fresh processes that import
  qbaker and build the transfer kernel of every dot the workload uses;
* wall_s: wall time of one pass over the workload's invocations, including
  interpreter start; median over the passes that fit in --seconds (at least
  one);
* cpu_s: user+sys CPU of those processes, median over passes;
* peak_rss_mib: largest peak RSS of any single invocation.

failed_frac (failed over attempted operations: CLI invocations and set-up
processes) is printed and sits in the result's ``failed``/``attempted``
fields; it is not a metric in BENCHMARK.json, which admits only metrics that
are never 0.

Traced run (--trace 1).  The same set-up processes and one untraced pass,
then three passes of perfbench/traced.py, which wraps the layer entry points
in timing spans: default threads, ``--threads 1`` with single-threaded BLAS
(set only in that child's environment), and one with tracemalloc on inside
propagate_branches.  The per-layer metrics are listed in layers.py.  Traced
outputs must be byte-identical to the untraced ones.

Every invocation's output is checked (outputs.py).  The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  A fuller record, with the environment, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import outputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "traced.py"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# a pass is not started when the run could then overrun this many seconds
RUN_BUDGET_S = 140
DEFAULT_SEED = 0
THREAD_VARS = ("QBAKER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
}


@dataclass(frozen=True)
class Invocation:
    """One qbaker command line, without --out, and how to check its output."""

    args: tuple[str, ...]
    fmt: str
    rules: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    why: str
    dots: tuple[int, ...]
    build: Callable[[random.Random], list[Invocation]]


def _bits(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def _flank_sweep(rng):
    args = ("sweep", "--sweep-left", "8,9,10", "--sweep-steps", "2", "--init-x", _bits(rng, 2))
    return [Invocation(args, "csv", ("offdiag_falls",))]


def _step_entropy(rng):
    args = ("sweep", "--sweep-left", "8", "--sweep-steps", "1,2,3,4",
            "--init-x", _bits(rng, 2), "--format", "json")
    return [Invocation(args, "json", ("one_bit_per_step",))]


def _wide_window(rng):
    out = []
    # (qubits, dot, left, right, steps, format): each has 4096 paths
    for q, d, lft, rgt, s, fmt in [
        (14, 5, 2, 6, 3, "csv"),
        (14, 5, 2, 6, 3, "json"),
        (16, 6, 4, 6, 4, "csv"),
        (16, 6, 3, 7, 3, "json"),
    ]:
        args = ("full-histories", "--qubits", str(q), "--dot", str(d), "--left", str(lft),
                "--right", str(rgt), "--steps", str(s), "--init-x", _bits(rng, 6),
                "--format", fmt)
        out.append(Invocation(args, fmt))
    return out


def _coarse_exact(rng):
    out = []
    geometry = ("--qubits", "22", "--dot", "10", "--left", "9", "--right", "9")
    for steps in (2, 3, 4):
        core = _bits(rng, 4 - steps)  # window width 4 minus the consumed bits
        args = ("coarse-entropy", *geometry, "--steps", str(steps))
        out.append(Invocation(args + (("--init-x", core) if core else ()), "csv"))
    args = ("check", "--qubits", "10", "--dot", "5", "--left", "2", "--right", "4",
            "--steps", "3", "--init-x", _bits(rng, 4))
    out.append(Invocation(args, "text"))
    return out


WORKLOADS = {
    "flank-sweep": Workload(
        "decoherence vs flank size up to 22 qubits (left 8,9,10 at 2 steps); "
        "the cubic dense kernel build weighs most here",
        (9, 10, 11),
        _flank_sweep,
    ),
    "step-entropy": Workload(
        "one bit per step at left 8, steps 1-4: one small reused kernel, so almost "
        "pure step contraction, norms and branch store",
        (9,),
        _step_entropy,
    ),
    "wide-window": Workload(
        "full-histories with a 6-bit window and 4096 paths: tiny kernels, time in "
        "path bookkeeping, the functionals and CSV/JSON output",
        (5, 6),
        _wide_window,
    ),
    "coarse-exact": Workload(
        "final-window histories decohere exactly: coarse-entropy at 22 qubits plus "
        "check; the only user of the coarse contraction and the dense oracles",
        (10, 5),
        _coarse_exact,
    ),
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload].build(random.Random(seed))


def child_env(serial: bool = False) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if serial:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def run_child(argv: list[str], env: dict[str, str], log: Path) -> ChildResult:
    """Run one process to completion and measure it with wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


class Runner:
    """Runs and checks one workload's invocations, counting failures."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.invs = invocations(workload, seed)
        self.reference = reference
        self.dir = OUT / "work" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, inv: Invocation, code: int, out: Path, expect: bytes | None) -> bytes:
        self.attempted += 1
        text = out.read_bytes() if out.exists() else None
        found = outputs.problems(
            inv.args[0], inv.fmt, inv.rules, code,
            None if text is None else text.decode("utf-8", "replace"),
            self.reference.get(inv.key),
        )
        if expect is not None and text != expect:
            found.append("output differs from the untraced run's")
        if found:
            self.failed += 1
            self.problems.append(f"{inv.key}: {'; '.join(found)}")
        return text

    def setup(self, dots: tuple[int, ...]) -> float:
        """Median wall time of fresh processes that build the kernels for dots."""
        code = (
            "from qbaker.bakermap import transfer_kernel\n"
            f"for dot in {dots!r}:\n"
            "    transfer_kernel(dot)\n"
        )
        times = []
        for i in range(SETUP_REPEATS):
            log = self.dir / f"setup-{i}.log"
            res = run_child([sys.executable, "-c", code], child_env(), log)
            self.attempted += 1
            if res.returncode != 0:
                self.failed += 1
                self.problems.append(f"set-up exit code {res.returncode}, see {log}")
            times.append(res.wall_s)
        return statistics.median(times)

    def untraced_pass(self, tag: str) -> tuple[list[ChildResult], list[bytes]]:
        results, texts = [], []
        for i, inv in enumerate(self.invs):
            out = self.dir / f"{tag}-{i}.out"
            out.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "qbaker", *inv.args, "--out", str(out)]
            res = run_child(argv, child_env(), self.dir / f"{tag}-{i}.log")
            results.append(res)
            texts.append(self._check(inv, res.returncode, out, None))
        return results, texts

    def traced_pass(self, tag: str, expect: list[bytes], serial=False, memory=False):
        """One pass under traced.py; returns (wall, spans per invocation, output bytes)."""
        wall, spans, nbytes = 0.0, [], 0
        for i, inv in enumerate(self.invs):
            out = self.dir / f"{tag}-{i}.out"
            span_file = self.dir / f"{tag}-{i}.spans.json"
            out.unlink(missing_ok=True)
            span_file.unlink(missing_ok=True)
            args = [*inv.args, "--out", str(out)] + (["--threads", "1"] if serial else [])
            flags = ["--memory"] if memory else []
            argv = [sys.executable, str(TRACER), *flags, str(span_file), *args]
            res = run_child(argv, child_env(serial), self.dir / f"{tag}-{i}.log")
            wall += res.wall_s
            text = self._check(inv, res.returncode, out, expect[i])
            nbytes += len(text or b"")
            spans.append(json.loads(span_file.read_text()) if span_file.exists() else [])
        return wall, spans, nbytes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = outputs.load_reference() if seed == DEFAULT_SEED else {}
    runner = Runner(workload, seed, reference)
    # compile the package's bytecode once, as an installed copy would have it
    run_child([sys.executable, "-c", "import qbaker.cli"], child_env(), runner.dir / "warm.log")
    # set-up runs first in both modes, so that the untraced pass of a traced
    # run starts from the same state as the passes of an untraced run
    setup_s = runner.setup(WORKLOADS[workload].dots)
    metrics: dict[str, float] = {}
    detail: dict = {}
    if trace:
        results, texts = runner.untraced_pass("plain")
        untraced_wall = sum(r.wall_s for r in results)
        traced_wall, spans, nbytes = runner.traced_pass("traced", texts)
        _, serial_spans, _ = runner.traced_pass("serial", texts, serial=True)
        _, memory_spans, _ = runner.traced_pass("memory", texts, memory=True)
        metrics = layers.per_layer_metrics(
            spans, serial_spans, memory_spans, nbytes, traced_wall, untraced_wall
        )
        units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    else:
        metrics["setup_s"] = setup_s
        started = time.perf_counter()
        passes = []
        while True:
            passes.append(runner.untraced_pass(f"pass{len(passes)}")[0])
            elapsed = time.perf_counter() - started
            last = sum(r.wall_s for r in passes[-1])
            if elapsed >= seconds or elapsed + last > RUN_BUDGET_S:
                break
        metrics["wall_s"] = statistics.median(sum(r.wall_s for r in p) for p in passes)
        metrics["cpu_s"] = statistics.median(sum(r.cpu_s for r in p) for p in passes)
        metrics["peak_rss_mib"] = max(r.maxrss_mib for p in passes for r in p)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        detail = {"passes": [[vars(r) for r in p] for p in passes]}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": runner.problems,
        **detail,
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "stripped_env": list(THREAD_VARS),
    }


def _print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload}  failed_frac = {frac:.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"{workload}  FAILED {problem}", file=sys.stderr)


def record_reference() -> None:
    """Rewrite reference.json.gz from the default seed's outputs."""
    records = {}
    for workload in WORKLOADS:
        runner = Runner(workload, DEFAULT_SEED, {})
        results, texts = runner.untraced_pass("ref")
        if runner.failed:
            raise SystemExit(f"{workload}: {runner.problems}")
        for inv, text in zip(runner.invs, texts):
            records[inv.key] = outputs.fingerprint(outputs.parse(text.decode(), inv.fmt))
    outputs.save_reference(records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the stored default-seed reference outputs and exit")
    args = parser.parse_args(argv)
    if not (SRC / "qbaker" / "cli.py").is_file():
        print(f"error: no qbaker source tree at {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    env = environment()
    print(json.dumps({"environment": env}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_metrics(name, result)
        results[name] = result
        OUT.mkdir(exist_ok=True)
        record = {"workload": name, "seed": args.seed, "trace": args.trace,
                  "environment": env, **result}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
    if args.workload == "all":
        print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                          for n, r in results.items()}))
    else:
        r = results[args.workload]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

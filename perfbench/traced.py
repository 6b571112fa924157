"""Run one qbaker CLI invocation with timing spans around its layer entry points.

Usage: python3 perfbench/traced.py [--memory] SPANS.json QBAKER_ARG...

The qbaker package is imported from PYTHONPATH.  Before ``qbaker.cli.main``
runs, each public name that ``qbaker.cli`` and ``qbaker.histories`` import
from the package's layers is replaced, in those two module namespaces only,
by a wrapper that records a span.  No source file changes.  Spans stay in
memory, each with the index of the span that was open when it began, and are
written to SPANS.json when the invocation ends.  The exit code is the CLI's.

With --memory, each propagate_branches span also records the tracemalloc
peak inside it.  tracemalloc slows Python-heavy code many times over, so a
memory run's times are not used.

A span is ``[name, parent, start, end, hidden, attrs]``.  ``hidden`` is the
time the tracer itself spent inside that span, measuring what a child
returned; self time subtracts it along with the children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import numpy as np

# (module, public name) pairs that get a span; the span is named after the
# layer that defines the function
WRAPPED = {
    "bakermap.transfer_kernel": [("histories", "transfer_kernel")],
    "bakermap.baker_matrix": [("cli", "baker_matrix")],
    "bakermap.basis_state": [("cli", "basis_state")],
    "bakermap.bvs_reference_matrix": [("cli", "bvs_reference_matrix")],
    "coarsegrain.project": [("cli", "project")],
    "histories.propagate_branches": [("cli", "propagate_branches")],
    "histories.history_distribution": [("cli", "history_distribution")],
    "histories.coarse_dfunc": [("cli", "coarse_dfunc"), ("histories", "coarse_dfunc")],
    "histories.offdiagonal_norm": [("cli", "offdiagonal_norm")],
    "histories.entropy_bits": [("cli", "entropy_bits")],
}


class Tracer:
    """Span recorder for one single-threaded caller."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, describe=None, track_memory=False):
        """Return fn wrapped in a span; describe(args, kwargs, result) -> attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = [name, parent, 0.0, 0.0, 0.0, {}]
            self.spans.append(span)
            self._open.append(index)
            if track_memory:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if track_memory:
                span[5]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if describe is not None:
                span[5].update(describe(args, kwargs, result))
            if parent is not None:
                own = (span[2] - entered) + (time.perf_counter() - span[3])
                self.spans[parent][4] += own
            return result

        return traced


def _describe_kernel(args, kwargs, kernel):
    return {"nbytes": int(kernel.nbytes), "array_id": id(kernel)}


def _describe_ensemble(args, kwargs, ens):
    block, steps = args[0], args[1]
    graining = block.graining
    return {
        "kind": kwargs.get("kind", "full"),
        "qubits": graining.shape.qubits,
        "dot": graining.shape.dot,
        "left": graining.left,
        "kept": graining.kept,
        "steps": steps,
        "paths": len(ens.paths),
        "gram_bytes": int(ens.gram.nbytes),
        "gram_entries": int(ens.gram.size),
        "gram_nonzero": int(np.count_nonzero(ens.gram)),
    }


def install(tracer: Tracer, modules: dict, memory: bool = False) -> None:
    """Replace every WRAPPED name in the given module namespaces."""
    special = {
        "bakermap.transfer_kernel": {"describe": _describe_kernel},
        "histories.propagate_branches": {
            "describe": _describe_ensemble,
            "track_memory": memory,
        },
    }
    for span_name, targets in WRAPPED.items():
        mod, attr = targets[0]
        wrapped = tracer.wrap(
            span_name, getattr(modules[mod], attr), **special.get(span_name, {})
        )
        for mod, attr in targets:
            setattr(modules[mod], attr, wrapped)


def main(argv: list[str]) -> int:
    memory = argv[:1] == ["--memory"]
    if memory:
        argv = argv[1:]
    spans_path, cli_args = argv[0], argv[1:]
    import qbaker.cli
    import qbaker.histories

    tracer = Tracer()
    install(tracer, {"cli": qbaker.cli, "histories": qbaker.histories}, memory)
    run = tracer.wrap("cli.main", qbaker.cli.main)
    try:
        code = run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

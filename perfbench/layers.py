"""Per-layer metrics from the spans that traced.py writes.

Layers are the qbaker modules: ``bakermap`` (kernel build and the dense
oracles), ``coarsegrain`` (window projection), ``histories`` (propagation and
the functionals) and ``cli`` (everything ``cli.main`` does outside those
calls: config, row building, CSV/JSON rendering and writing).

Each metric is one of three kinds:

* measured: span times, tracemalloc peaks and ratios of them;
* count: calls, paths;
* computed: derived from returned objects, output files and run geometry,
  so it repeats exactly run to run for the same inputs.

Units of computed metrics end in "-computed".
"""

from __future__ import annotations

MIB = float(1 << 20)

# name -> (unit, better); README.md maps each to the end-to-end metric and
# workload it should move
PER_LAYER = {
    "bakermap.transfer_kernel.s": ("s", "lower"),
    "bakermap.transfer_kernel.calls": ("count", "lower"),
    "bakermap.transfer_kernel.mib": ("MiB-computed", "lower"),
    "histories.propagate_branches.self_s": ("s", "lower"),
    "histories.propagate_branches.calls": ("count", "lower"),
    "histories.propagate_branches.peak_mib": ("MiB", "lower"),
    "histories.propagate_branches.dense_equiv_gflop": ("GFLOP-computed", "lower"),
    "histories.propagate_branches.dense_equiv_gflops": ("GFLOP/s", "higher"),
    "histories.propagate_branches.serial_s": ("s", "lower"),
    "histories.propagate_branches.speedup": ("ratio", "higher"),
    "histories.paths": ("count", "lower"),
    "histories.gram_mib": ("MiB-computed", "lower"),
    "histories.gram_fill": ("ratio-computed", "higher"),
    "histories.history_distribution.self_s": ("s", "lower"),
    "histories.coarse_dfunc.s": ("s", "lower"),
    "histories.coarse_dfunc.calls": ("count", "lower"),
    "histories.offdiagonal_norm.s": ("s", "lower"),
    "histories.entropy_bits.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_kib": ("KiB-computed", "lower"),
    "bakermap.dense.s": ("s", "lower"),
    "coarsegrain.project.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_DENSE_ORACLES = ("bakermap.baker_matrix", "bakermap.basis_state", "bakermap.bvs_reference_matrix")


def dense_equiv_gflop(kind: str, dot: int, left: int, kept: int, steps: int) -> float:
    """Real GFLOP of the dense contractions one unpruned propagate_branches run does.

    Counts what ``histories._run_unit`` contracts, summed over its
    ``2**freeq`` groups and ``2**left`` initial low labels (the a-chunks), with
    m = 2**dot, low = 2**left and h = 2**(dot - left) window values per step:

    * step 1 slices kernel columns: no arithmetic;
    * kind "full", each step j >= 2: h**(j-1) live rows, each a
      (low x 2**(j-1)) block per label, contracted with a (2m x low) kernel
      slice: h**(j-1) * 2**(j-1) * low * 2m multiply-adds per label;
    * kind "coarse", each step j >= 2: one row of (m x 2**(j-1)) contracted with
      a (2m x m) slice: 2**(j-1) * m * 2m per label;
    * the final Gram product, rows grouped by last window value: full kind has
      h groups of h**(steps-1) rows, coarse kind h groups of one row, each
      entry summing low * 2**steps products per label.

    One complex multiply-add is 8 real floating-point operations.  Norm
    reductions are linear in the data and left out.
    """
    m = 1 << dot
    low = 1 << left
    h = 1 << (dot - left)
    freeq = max(0, dot + steps - left - kept)
    if kind == "full":
        per_label = sum(h ** (j - 1) * 2 ** (j - 1) * low * 2 * m for j in range(2, steps + 1))
        per_label += h * (h ** (steps - 1)) ** 2 * low * 2**steps
    else:
        per_label = sum(2 ** (j - 1) * m * 2 * m for j in range(2, steps + 1))
        per_label += h * low * 2**steps
    macs = (1 << freeq) * low * per_label
    return 8.0 * macs / 1e9


def span_times(spans: list) -> list[tuple[str, float, float]]:
    """(name, duration, self time) for each span of one invocation."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, hidden, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = []
    for i, (name, parent, start, end, hidden, attrs) in enumerate(spans):
        dur = end - start
        out.append((name, dur, dur - child_time[i] - hidden))
    return out


def _totals(invocations: list[list]) -> dict[str, list[float]]:
    """name -> [calls, total duration, total self time] over a pass."""
    acc: dict[str, list[float]] = {}
    for spans in invocations:
        for name, dur, self_s in span_times(spans):
            slot = acc.setdefault(name, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += dur
            slot[2] += self_s
    return acc


def per_layer_metrics(
    traced: list[list],
    serial: list[list],
    memory: list[list],
    output_bytes: int,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every PER_LAYER metric for one pass of a workload.

    traced, serial and memory hold one span list per invocation, from the
    default-thread pass, the --threads 1 single-threaded-BLAS pass and the
    tracemalloc pass.
    """
    tot = _totals(traced)

    def total(name: str, field: int) -> float:
        return float(tot.get(name, [0, 0.0, 0.0])[field])

    prop = "histories.propagate_branches"
    kernels = 0
    paths = gram_bytes = gram_entries = gram_nonzero = 0
    gflop = 0.0
    for spans in traced:
        seen = {}
        for name, _, _, _, _, attrs in spans:
            if name == "bakermap.transfer_kernel":
                seen[attrs["array_id"]] = attrs["nbytes"]
            elif name == prop:
                paths += attrs["paths"]
                gram_bytes += attrs["gram_bytes"]
                gram_entries += attrs["gram_entries"]
                gram_nonzero += attrs["gram_nonzero"]
                gflop += dense_equiv_gflop(
                    attrs["kind"], attrs["dot"], attrs["left"], attrs["kept"], attrs["steps"]
                )
        kernels += sum(seen.values())
    peaks = [s[5]["peak_bytes"] for spans in memory for s in spans if s[0] == prop]
    prop_self = total(prop, 2)
    serial_self = _totals(serial).get(prop, [0, 0.0, 0.0])[2]
    return {
        "bakermap.transfer_kernel.s": total("bakermap.transfer_kernel", 1),
        "bakermap.transfer_kernel.calls": total("bakermap.transfer_kernel", 0),
        "bakermap.transfer_kernel.mib": kernels / MIB,
        f"{prop}.self_s": prop_self,
        f"{prop}.calls": total(prop, 0),
        f"{prop}.peak_mib": max(peaks, default=0) / MIB,
        f"{prop}.dense_equiv_gflop": gflop,
        f"{prop}.dense_equiv_gflops": gflop / prop_self if prop_self > 0 else 0.0,
        f"{prop}.serial_s": serial_self,
        f"{prop}.speedup": serial_self / prop_self if prop_self > 0 else 0.0,
        "histories.paths": float(paths),
        "histories.gram_mib": gram_bytes / MIB,
        "histories.gram_fill": gram_nonzero / gram_entries if gram_entries else 0.0,
        "histories.history_distribution.self_s": total("histories.history_distribution", 2),
        "histories.coarse_dfunc.s": total("histories.coarse_dfunc", 1),
        "histories.coarse_dfunc.calls": total("histories.coarse_dfunc", 0),
        "histories.offdiagonal_norm.s": total("histories.offdiagonal_norm", 1),
        "histories.entropy_bits.s": total("histories.entropy_bits", 1),
        "cli.main.self_s": total("cli.main", 2),
        "cli.output_kib": output_bytes / 1024.0,
        "bakermap.dense.s": sum(total(n, 1) for n in _DENSE_ORACLES),
        "coarsegrain.project.s": total("coarsegrain.project", 1),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }

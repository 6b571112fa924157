"""Self-tests of the benchmark on tiny geometries.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(rng):
    return [
        run.Invocation(("sweep", "--sweep-left", "7,8", "--sweep-steps", "2",
                        "--init-x", run._bits(rng, 2)), "csv", ("offdiag_falls",)),
        run.Invocation(("full-histories", "--qubits", "8", "--dot", "4", "--left", "2",
                        "--right", "3", "--steps", "2", "--init-x", run._bits(rng, 3),
                        "--format", "json"), "json"),
        run.Invocation(("coarse-entropy", "--qubits", "8", "--dot", "4", "--left", "2",
                        "--right", "3", "--steps", "2", "--init-x", run._bits(rng, 1)), "csv"),
        run.Invocation(("check", "--qubits", "8", "--dot", "4", "--left", "2", "--right", "3",
                        "--steps", "2", "--init-x", run._bits(rng, 3)), "text"),
    ]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload("tiny", (4,), _tiny))
    return "tiny"


def test_benchmark_json_matches_the_metric_tables():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} \
        == layers.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_appears_with_its_unit(tiny, trace):
    result = run.run_workload(tiny, seed=5, seconds=0, trace=trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in table}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace:
        assert values["bakermap.dense.s"] > 0 and values["coarsegrain.project.s"] > 0
        assert values["histories.propagate_branches.calls"] == 6  # sweep and check run two
        assert values["histories.coarse_dfunc.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())


def _output(tiny_inv: run.Invocation, tmp_path: Path) -> str:
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "qbaker", *tiny_inv.args, "--out", str(out)]
    assert run.run_child(argv, run.child_env(), tmp_path / "log").returncode == 0
    return out.read_text()


def _problems(inv: run.Invocation, text: str, code: int = 0, reference=None):
    return outputs.problems(inv.args[0], inv.fmt, inv.rules, code, text, reference)


def test_doctored_outputs_count_as_failed(tmp_path):
    full, coarse, check = _tiny(random.Random(0))[1:]
    full_text = _output(full, tmp_path)
    coarse_text = _output(coarse, tmp_path)
    check_text = _output(check, tmp_path)
    for inv, text in [(full, full_text), (coarse, coarse_text), (check, check_text)]:
        assert _problems(inv, text) == []
        assert _problems(inv, text, code=1) == ["exit code 1"]

    doc = json.loads(full_text)
    doc["summary"]["total_mass"] += 1e-6
    assert any("total_mass" in p for p in _problems(full, json.dumps(doc)))

    lines = coarse_text.splitlines()
    lines = [("# offdiag_max = 1e-08" if ln.startswith("# offdiag_max") else ln) for ln in lines]
    assert any("offdiag" in p for p in _problems(coarse, "\n".join(lines)))

    failing = check_text.replace(outputs.PASSED, "invariant violated: map unitarity")
    assert _problems(check, failing)
    assert _problems(check, "")

    reference = outputs.fingerprint(outputs.parse(full_text, "json"))
    assert _problems(full, full_text, reference=reference) == []
    doc = json.loads(full_text)
    doc["rows"][0]["p"] += 1e-8
    assert _problems(full, json.dumps(doc), reference=reference)


def test_physical_trend_rules(tmp_path):
    sweep = _tiny(random.Random(0))[0]
    text = _output(sweep, tmp_path)
    assert _problems(sweep, text) == []
    rising = run.Invocation(sweep.args, "csv", ("offdiag_falls", "one_bit_per_step"))
    # both points have 2 steps: no slope can be fitted
    assert _problems(rising, text) == ["entropy slope needs at least two step counts"]


def test_seeds_change_only_the_init_x_bits():
    def strip(invs):
        out = []
        for inv in invs:
            args = list(inv.args)
            if "--init-x" in args:
                i = args.index("--init-x")
                assert set(args[i + 1]) <= {"0", "1"}
                args[i + 1] = "?" * len(args[i + 1])
            out.append((tuple(args), inv.fmt, inv.rules))
        return out

    changed = False
    for name in run.WORKLOADS:
        a, b = run.invocations(name, 0), run.invocations(name, 1)
        assert strip(a) == strip(b)
        assert run.invocations(name, 0) == a
        changed |= a != b
    assert changed


@pytest.mark.parametrize("kind", ["full", "coarse"])
@pytest.mark.parametrize("geometry", [(8, 4, 2, 3, 2), (10, 5, 2, 4, 3), (12, 6, 3, 4, 3)])
def test_dense_equiv_gflop_matches_the_contractions_numpy_sees(monkeypatch, kind, geometry):
    sys.path.insert(0, str(run.SRC))
    from qbaker import BlockInitialState, CoarseGraining, SystemShape, propagate_branches

    qubits, dot, left, right, steps = geometry
    macs = []
    tensordot, einsum = np.tensordot, np.einsum

    def counting_tensordot(a, b, axes):
        macs.append(a.size * b.shape[0])
        return tensordot(a, b, axes)

    def counting_einsum(spec, *ops, **kw):
        if spec == "ialf,jalf->ij":
            macs.append(ops[0].shape[0] * ops[1].size)
        return einsum(spec, *ops, **kw)

    monkeypatch.setattr(np, "tensordot", counting_tensordot)
    monkeypatch.setattr(np, "einsum", counting_einsum)
    graining = CoarseGraining(SystemShape(qubits, dot), left, right)
    block = BlockInitialState(graining, "0" * graining.kept)
    propagate_branches(block, steps, prune_eps=0.0, kind=kind)
    want = layers.dense_equiv_gflop(kind, dot, left, graining.kept, steps)
    assert 8.0 * sum(macs) / 1e9 == pytest.approx(want, rel=1e-12)

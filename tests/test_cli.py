"""End-to-end tests for the command-line front end."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import cli, histories
from qbaker.cli import main


def read_csv(path):
    comments = {}
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                comments[key.strip()] = value.strip()
            elif header is None:
                header = next(csv.reader([line]))
            else:
                rows.append(dict(zip(header, next(csv.reader([line])))))
    return comments, header, rows


def test_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "reference map correspondence" in out
    assert "FAIL" not in out


def test_check_failure_exits_3_after_writing_its_report(tmp_path, monkeypatch, capsys):
    # a negative tolerance fails every suite; the first one is reported
    monkeypatch.setattr(cli, "_CHECK_TOL", -1.0)
    out = tmp_path / "report.txt"
    assert main(["check", "--out", str(out)]) == 3
    report = out.read_text(encoding="utf-8")
    *suites, verdict = report.splitlines()
    assert len(suites) == 8 and all(line.endswith(" FAIL") for line in suites)
    assert verdict == "invariant violated: basis orthonormality"
    err = capsys.readouterr().err
    assert err == "error: invariant violated: basis orthonormality\n"


def test_check_names_violated_inequality(capsys):
    assert main(["check", "--left", "5"]) == 2
    assert "need left < dot" in capsys.readouterr().err
    assert main(["check", "--right", "4"]) == 2
    assert "need right < qubits - dot" in capsys.readouterr().err
    assert main(["check", "--steps", "3"]) == 2
    assert "need 1 <= steps < right" in capsys.readouterr().err


def test_check_rejects_large_dense_suite(capsys):
    code = main(
        ["check", "--qubits", "12", "--dot", "6", "--left", "2", "--right", "3"]
    )
    assert code == 2
    assert "dense" in capsys.readouterr().err


def test_resource_limit_exit_code(capsys):
    code = main(
        [
            "full-histories",
            "--qubits", "20", "--dot", "10", "--left", "9", "--right", "9",
            "--steps", "8", "--init-x", "01",
        ]
    )
    assert code == 4
    assert "over budget" in capsys.readouterr().err


def test_pruned_full_histories_exit_zero(tmp_path):
    out = tmp_path / "pruned.csv"
    code = main(
        [
            "full-histories",
            "--qubits", "20", "--dot", "9", "--left", "8", "--right", "8",
            "--steps", "3", "--init-x", "0110", "--prune", "0.01", "--out", str(out),
        ]
    )
    assert code == 0
    comments, _, _ = read_csv(out)
    assert float(comments["discarded_mass"]) > 0.0
    assert abs(float(comments["total_mass"]) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["full-histories", "--qubits", "13", "--dot", "9", "--left", "8", "--right", "3",
         "--steps", "2", "--init-x", "01"],
        ["coarse-entropy", "--qubits", "13", "--dot", "9", "--left", "8", "--right", "3",
         "--steps", "2"],
        ["sweep", "--sweep-left", "4,5", "--sweep-steps", "1,2"],
    ],
)
def test_a_fully_pruned_run_exits_zero_with_its_mass_discarded(tmp_path, argv):
    # --prune 5 is above every branch's squared norm, so no path is retained
    out = tmp_path / "pruned.csv"
    assert main(argv + ["--prune", "5", "--out", str(out)]) == 0
    comments, _, rows = read_csv(out)
    assert rows
    if argv[0] == "sweep":
        points = rows
    else:
        assert all(float(r["p"]) == 0.0 for r in rows)
        points = [comments]
    for point in points:
        assert float(point["entropy_bits"]) == 0.0
        assert abs(float(point["discarded_mass"]) - 1.0) < 1e-12


def test_full_histories_file_output(tmp_path):
    out = tmp_path / "hist.csv"
    code = main(
        [
            "full-histories",
            "--qubits", "7", "--dot", "3", "--left", "1", "--right", "3",
            "--steps", "2", "--init-x", "010", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == ["path", "p", "oracle_p", "abs_residual"]
    assert comments["experiment"] == "full-histories"
    assert comments["qubits"] == "7"
    assert comments["init_x"] == "010"
    for key in (
        "entropy_bits",
        "oracle_entropy",
        "entropy_residual",
        "offdiag_max",
        "offdiag_rms",
        "discarded_mass",
        "total_mass",
    ):
        assert key in comments
    assert abs(float(comments["total_mass"]) - 1.0) < 1e-9
    total = sum(float(r["p"]) for r in rows) + float(comments["discarded_mass"])
    assert abs(total - 1.0) < 1e-9
    for r in rows:
        semis = r["path"].split(";")
        assert len(semis) == 2 and all(len(w) == 3 for w in semis)
        assert abs(float(r["abs_residual"]) - abs(float(r["p"]) - float(r["oracle_p"]))) < 1e-15


def test_coarse_entropy_near_one_bit_per_step(tmp_path):
    out = tmp_path / "coarse.csv"
    code = main(
        [
            "coarse-entropy",
            "--qubits", "12", "--dot", "6", "--left", "5", "--right", "5",
            "--steps", "2", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == ["path", "p", "oracle_p", "abs_residual"]
    # empty surviving core: every final window is ideally equiprobable
    assert comments["init_x"] == ""
    assert comments["window"] == "00"
    assert len(rows) == 4
    for r in rows:
        assert abs(float(r["p"]) - 0.25) < 1e-10
        assert float(r["oracle_p"]) == 0.25
    assert float(comments["entropy_residual"]) < 1e-10
    assert float(comments["offdiag_max"]) == 0.0


def test_coarse_entropy_core_width_validation(capsys):
    # kept = 4 and steps = 2 leave a 2-bit surviving core
    geometry = [
        "coarse-entropy",
        "--qubits", "12", "--dot", "6", "--left", "4", "--right", "4",
        "--steps", "2",
    ]
    assert main(geometry + ["--init-x", "01"]) == 0
    capsys.readouterr()
    assert main(geometry + ["--init-x", "0101"]) == 2
    assert "window core" in capsys.readouterr().err


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--sweep-left", "4,6", "--sweep-steps", "2",
            "--init-x", "01", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == list(
        (
            "left", "steps", "qubits", "dot", "right", "window",
            "entropy_bits", "entropy_residual", "offdiag_max",
            "coarse_residual_max", "full_residual_max", "discarded_mass",
        )
    )
    assert comments["points"] == "2"
    assert [r["left"] for r in rows] == ["4", "6"]
    assert [r["qubits"] for r in rows] == ["10", "14"]
    assert [r["dot"] for r in rows] == ["5", "7"]
    # decoherence and oracle residuals improve as the system grows
    assert float(rows[1]["offdiag_max"]) < float(rows[0]["offdiag_max"])
    assert float(rows[1]["entropy_residual"]) < float(rows[0]["entropy_residual"])
    assert float(rows[1]["full_residual_max"]) < float(rows[0]["full_residual_max"])
    for r in rows:
        assert float(r["coarse_residual_max"]) < 1e-10


def test_sweep_blank_coarse_residual_when_core_vanishes(tmp_path):
    out = tmp_path / "sweep3.csv"
    code = main(
        [
            "sweep", "--sweep-left", "4", "--sweep-steps", "3",
            "--init-x", "01", "--out", str(out),
        ]
    )
    assert code == 0
    _, _, rows = read_csv(out)
    assert rows[0]["coarse_residual_max"] == ""
    assert float(rows[0]["entropy_bits"]) > 2.0


@pytest.mark.parametrize("steps,prune", [("2", "1e-12"), ("3", "0.01"), ("2", "0.01")])
def test_sweep_point_equals_full_histories_at_its_geometry(tmp_path, steps, prune):
    # a sweep point at left 6 with a 2-bit window is qubits 2*6 + 2, dot 6 + 1,
    # right 6; both commands must report the same numbers for it.  At steps 2
    # and prune 0.01 the sweep's final-window marginal misses conservation by
    # 3.7e-4, within the bound its pruned branches give
    sweep_out = tmp_path / "sweep.csv"
    assert main(
        [
            "sweep", "--sweep-left", "6", "--sweep-steps", steps, "--init-x", "01",
            "--prune", prune, "--out", str(sweep_out),
        ]
    ) == 0
    _, _, (point,) = read_csv(sweep_out)
    full_out = tmp_path / "full.csv"
    assert main(
        [
            "full-histories", "--qubits", point["qubits"], "--dot", point["dot"],
            "--left", point["left"], "--right", point["right"], "--steps", steps,
            "--init-x", "01", "--prune", prune, "--out", str(full_out),
        ]
    ) == 0
    summary, _, rows = read_csv(full_out)
    assert (point["qubits"], point["dot"], point["right"]) == ("14", "7", "6")
    for key in ("entropy_bits", "offdiag_max", "discarded_mass"):
        assert float(point[key]) == float(summary[key]), key
    assert float(point["full_residual_max"]) == max(float(r["abs_residual"]) for r in rows)
    if prune != "1e-12":
        assert float(point["discarded_mass"]) > 0.0


def test_empty_sweep_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--sweep-left", "", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert rows == []
    assert header == list(
        (
            "left", "steps", "qubits", "dot", "right", "window",
            "entropy_bits", "entropy_residual", "offdiag_max",
            "coarse_residual_max", "full_residual_max", "discarded_mass",
        )
    )
    assert comments["points"] == "0"


def test_json_structure(tmp_path):
    out = tmp_path / "hist.json"
    code = main(
        [
            "full-histories",
            "--qubits", "7", "--dot", "3", "--left", "1", "--right", "3",
            "--steps", "2", "--init-x", "010",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert set(obj) == {"config", "rows", "summary"}
    assert obj["config"]["experiment"] == "full-histories"
    assert obj["config"]["qubits"] == 7
    assert obj["config"]["init_x"] == "010"
    assert obj["rows"]
    for row in obj["rows"]:
        assert set(row) == {"path", "p", "oracle_p", "abs_residual"}
    assert abs(obj["summary"]["total_mass"] - 1.0) < 1e-9
    assert obj["summary"]["oracle_entropy"] == 2.0


def test_defaults_echoed_in_header(capsys):
    assert main(["full-histories"]) == 0
    out = capsys.readouterr().out
    assert "# qubits = 8" in out
    assert "# dot = 4" in out
    assert "# left = 2" in out
    assert "# right = 3" in out
    assert "# steps = 2" in out
    assert "# init_x = 000" in out


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "qubits = 7\n"
        "dot = 3\n"
        "left = 1\n"
        "right = 3\n"
        "steps = 2\n"
        "init_x = 010\n",
        encoding="utf-8",
    )
    assert main(["full-histories", "--config", str(cfg), "--init-x", "100"]) == 0
    out = capsys.readouterr().out
    assert "# qubits = 7" in out
    assert "# init_x = 100" in out


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("qubits 7\n", encoding="utf-8")
    assert main(["check", "--config", str(bad)]) == 2
    assert "key = value" in capsys.readouterr().err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("qubitz = 7\n", encoding="utf-8")
    assert main(["check", "--config", str(unknown)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    assert main(["check", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err

    notint = tmp_path / "notint.cfg"
    notint.write_text("qubits = seven\n", encoding="utf-8")
    assert main(["check", "--config", str(notint)]) == 2
    assert "needs a int value" in capsys.readouterr().err


def test_threads_env_override(monkeypatch, capsys):
    monkeypatch.setenv("QBAKER_THREADS", "2")
    assert main(["full-histories"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("QBAKER_THREADS", "two")
    assert main(["full-histories"]) == 2
    # the variable's text goes through the threads option's one converter
    assert "threads needs a int value, got 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_byte_identical_runs_and_threads(tmp_path, fmt):
    argv = [
        "full-histories",
        "--qubits", "10", "--dot", "5", "--left", "4", "--right", "4",
        "--steps", "2", "--init-x", "01", "--format", fmt,
    ]
    paths = [tmp_path / f"{i}.{fmt}" for i in range(3)]
    assert main(argv + ["--out", str(paths[0]), "--threads", "1"]) == 0
    assert main(argv + ["--out", str(paths[1]), "--threads", "1"]) == 0
    assert main(argv + ["--out", str(paths[2]), "--threads", "4"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sweep-left", "8", "--sweep-steps", "3", "--init-x", "01", "--format", "json"],
        ["full-histories", "--qubits", "15", "--dot", "9", "--left", "8", "--right", "4",
         "--steps", "3", "--init-x", "011", "--prune", "1e-3"],
        ["coarse-entropy", "--qubits", "22", "--dot", "10", "--left", "9", "--right", "9",
         "--steps", "4", "--prune", "0.01"],
    ],
)
def test_a_streamed_last_step_writes_the_same_bytes_at_threads_1_and_2(tmp_path, argv):
    # each unit's last step runs in 4 blocks of labels, and the order of the
    # blocks' sums does not depend on the thread count
    paths = [tmp_path / f"{threads}.out" for threads in (1, 2)]
    for threads, path in zip((1, 2), paths):
        assert main(argv + ["--threads", str(threads), "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["full-histories", "--init-x", "011"],
        ["full-histories", "--qubits", "12", "--dot", "6", "--left", "3", "--right", "5",
         "--steps", "3", "--init-x", "0110", "--prune", "0.01", "--format", "json"],
        ["coarse-entropy", "--init-x", "1"],
        ["sweep", "--sweep-left", "4,5", "--sweep-steps", "1,2,3", "--prune", "0.01"],
        ["check", "--init-x", "101"],
    ],
)
def test_no_subcommand_reads_the_dense_gram(monkeypatch, tmp_path, argv):
    # the functionals read the Gram blocks; the dense view is for tests only
    want, got = tmp_path / "want", tmp_path / "got"
    assert main(argv + ["--threads", "2", "--out", str(want)]) == 0

    def refuse(ens):
        raise AssertionError("BranchEnsemble.gram was read")

    monkeypatch.setattr(histories.BranchEnsemble, "gram", property(refuse))
    assert main(argv + ["--threads", "2", "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_wide_window_run_peaks_far_below_its_dense_gram():
    # 4096 paths: a dense Gram matrix alone would be 256 MiB.  A fresh
    # interpreter runs the CLI as its child and reads the child's peak RSS
    argv = ["full-histories", "--qubits", "14", "--dot", "5", "--left", "2", "--right", "6",
            "--steps", "3", "--init-x", "110111", "--out", os.devnull]
    script = (
        "import resource, subprocess, sys\n"
        f"code = subprocess.run([sys.executable, '-m', 'qbaker', *{argv!r}]).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib <= 150 * 1024


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = [
        "coarse-entropy",
        "--qubits", "8", "--dot", "4", "--left", "2", "--right", "3",
        "--steps", "2", "--init-x", "0",
    ]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "coarse.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert streamed == out.read_text(encoding="utf-8")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qbaker", "check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


# per option: a value a run accepts, then one it refuses ({tmp} is a directory)
_EITHER_WAY = {
    "qubits": ("9", "x"),
    "dot": ("3", "1.5"),
    "left": ("1", "x"),
    "right": ("3", "-1"),
    "steps": ("1", "1.5"),
    "init_x": ("010", "012"),
    "prune": ("0.01", "inf"),
    "out": ("{tmp}/out.csv", "{tmp}/missing/out.csv"),
    "format": ("json", "xml"),
    "threads": ("1", "two"),
    "sweep_left": ("4", "four"),
    "sweep_steps": ("1", "two"),
}


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_an_option_means_the_same_from_a_flag_and_a_config_file(
    tmp_path, monkeypatch, capsys, key, valid
):
    text = _EITHER_WAY[key][0 if valid else 1].format(tmp=tmp_path)
    if key.startswith("sweep_"):
        small = {"sweep_left": "4", "sweep_steps": "1"}
        argv = ["sweep"] + [f"--{k.replace('_', '-')}={v}" for k, v in small.items() if k != key]
    else:
        argv = ["full-histories"]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n", encoding="utf-8")
    monkeypatch.delenv("QBAKER_THREADS", raising=False)
    results = []
    for source in ([f"--{key.replace('_', '-')}={text}"], ["--config", str(config)]):
        code = main(argv + source)
        out, err = capsys.readouterr()
        if key == "out" and valid:
            out = (tmp_path / "out.csv").read_bytes()
            (tmp_path / "out.csv").unlink()
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        results.append((code, out if valid else errors))
    assert results[0] == results[1]
    code, seen = results[0]
    assert (code == 0) == valid and seen


_EVERY = ("check", "full-histories", "coarse-entropy", "sweep")
# sweep derives its geometry from --init-x and ignores these flags
_GEOMETRY = ("check", "full-histories", "coarse-entropy")
_BUDGET_REFUSED = [
    "--qubits", "20", "--dot", "10", "--left", "9", "--right", "9", "--steps", "8",
    "--init-x", "01",
]
_BAD_INPUTS = [
    (_GEOMETRY, ["--qubits", "0"], {}, 2),
    (_GEOMETRY, ["--qubits", "63"], {}, 2),
    (_GEOMETRY, ["--qubits", str(10**18)], {}, 2),
    (_GEOMETRY, ["--dot", "-1"], {}, 2),
    (_GEOMETRY, ["--dot", "9"], {}, 2),
    (_GEOMETRY, ["--left", "-1"], {}, 2),
    (_GEOMETRY, ["--left", "4"], {}, 2),
    (_GEOMETRY, ["--right", "-1"], {}, 2),
    (_GEOMETRY, ["--right", "5"], {}, 2),
    (_GEOMETRY, ["--steps", "0"], {}, 2),
    (_GEOMETRY, ["--steps", "3"], {}, 2),
    (("sweep",), ["--sweep-left", "-1"], {}, 2),
    (("sweep",), ["--sweep-left", "31"], {}, 2),
    (("sweep",), ["--sweep-steps", "0"], {}, 2),
    (("sweep",), ["--sweep-left", "four"], {}, 2),
    (_EVERY, ["--init-x", "012"], {}, 2),
    (_GEOMETRY, ["--init-x", "0101010"], {}, 2),
    (_EVERY, ["--config", "{unknown_key}"], {}, 2),
    (_EVERY, ["--config", "{not_utf8}"], {}, 2),
    (_EVERY, ["--config", ""], {}, 2),
    (_EVERY, [], {"QBAKER_THREADS": "two"}, 2),
    (_EVERY, ["--threads", "0"], {}, 2),
    (_EVERY, ["--prune", "-0.5"], {}, 2),
    (_EVERY, ["--prune", "nan"], {}, 2),
    (_EVERY, ["--prune", "inf"], {}, 2),
    (_EVERY, ["--prune", "1e400"], {}, 2),
    (("check",), ["--qubits", "12", "--dot", "6", "--left", "2", "--right", "3"], {}, 2),
    (_EVERY, ["--out", "{unwritable}"], {}, 2),
    (("full-histories",), _BUDGET_REFUSED, {}, 4),
    (("sweep",), ["--sweep-left", "11", "--sweep-steps", "9"], {}, 4),
]


@pytest.mark.parametrize(
    "command,args,env,code",
    [
        pytest.param(command, args, env, code, id=f"{command}:{' '.join(args) or env}")
        for commands, args, env, code in _BAD_INPUTS
        for command in commands
    ],
)
def test_bad_inputs_exit_with_a_code_and_an_error_line(
    tmp_path, monkeypatch, capsys, command, args, env, code
):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("qubitz = 7\n", encoding="utf-8")
    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"\xff\xfequbits = 8\n")
    places = {
        "unknown_key": str(unknown),
        "not_utf8": str(not_utf8),
        "unwritable": str(tmp_path / "missing" / "out.csv"),
    }
    monkeypatch.delenv("QBAKER_THREADS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main([command] + [a.format(**places) for a in args]) == code
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err




_GEOMETRY_KEYS = ("qubits", "dot", "left", "right", "steps")


def _geometry_args(values):
    return [arg for key, value in zip(_GEOMETRY_KEYS, values) for arg in (f"--{key}", str(value))]


@pytest.mark.parametrize("command", ["full-histories", "coarse-entropy"])
def test_spectator_qubits_change_only_the_echo(tmp_path, command):
    # the right - steps trailing label bits ride along untouched, so a wider
    # right flank changes nothing but the echoed qubits and right
    outputs = []
    for values in [(12, 6, 5, 4, 2), (40, 6, 5, 32, 2), (62, 6, 5, 54, 2)]:
        out = tmp_path / "out.csv"
        assert main([command, *_geometry_args(values), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        outputs.append([line for line in lines if not line.startswith(("# qubits =", "# right ="))])
        assert len(outputs[-1]) == len(lines) - 2
    assert outputs[0] == outputs[1] == outputs[2]


# valid runs the budget refuses: by the propagation estimate, whose exact
# sizes run to hundreds of digits, or by the rows a coarse table lists in
# advance (2**60 final words; 2**30 on a 34-qubit sweep point whose
# propagation alone fits)
_REFUSED_RUNS = {
    "full-histories": [_geometry_args((62, 31, 1, 30, 29)), _geometry_args((62, 40, 1, 20, 10))],
    "coarse-entropy": [_geometry_args((62, 31, 1, 30, 29)), _geometry_args((62, 1, 0, 2, 1))],
    "sweep": [["--sweep-left", "2", "--sweep-steps", "1", "--init-x", "0" * 30]],
}


@pytest.mark.parametrize("command", list(_REFUSED_RUNS))
def test_absurd_sizes_fail_fast_without_a_pool(monkeypatch, capsys, command):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused run started a thread pool")

    monkeypatch.setattr(histories, "ThreadPoolExecutor", no_pool)
    for args in _REFUSED_RUNS[command]:
        assert main([command, *args]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(_REFUSED_RUNS[command])
    for line in err:
        assert line.startswith("error: ") and "over budget" in line and len(line) < 200


_FREE_GEOMETRY = {
    "qubits": st.integers(-1, 10) | st.sampled_from([12, 63, 10**18]),
    "dot": st.integers(-1, 12),
    "left": st.integers(-1, 10),
    "right": st.integers(-1, 10),
    "steps": st.integers(-1, 5),
}
_BAD_WORDS = st.text("01", max_size=7) | st.text("012a ", min_size=1, max_size=3)


def _lists(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))
    )


# per knob: values a run accepts, and values it refuses (the sweep lists
# stay small: "-1,0" is refused by argparse, which reads it as a flag)
_KNOBS = {
    "prune": (st.sampled_from(["0", "1e-12", "1e-3", "0.01"]), st.sampled_from(["-0.5", "nan", "inf"])),
    "format": (st.sampled_from(["csv", "json"]), st.just("xml")),
    "threads": (st.integers(1, 3), st.integers(-1, 0)),
}
_SWEEP_KNOBS = {
    "sweep-left": (_lists(2, 4), st.sampled_from(["", "four", "1,,2", "-1,0", "-1"])),
    "sweep-steps": (_lists(1, 3), st.sampled_from(["two", "2,", "0"])),
}


@st.composite
def _run_geometry(draw, qubit_cap):
    """A valid run geometry, the budget-refused one, or five free values."""
    pick = draw(st.sampled_from(["valid"] * 3 + ["free", "budget"]))
    if pick == "budget":
        return dict(zip(_GEOMETRY_KEYS, (20, 10, 9, 9, 8)))
    if pick == "free":
        return {k: draw(st.none() | _FREE_GEOMETRY[k]) for k in _GEOMETRY_KEYS}
    qubits = draw(st.integers(4, qubit_cap))
    dot = draw(st.integers(1, qubits - 3))
    left = draw(st.integers(0, dot - 1))
    right = draw(st.integers(2, min(qubits - dot, qubits - left) - 1))
    steps = draw(st.integers(1, right - 1))
    return dict(zip(_GEOMETRY_KEYS, (qubits, dot, left, right, steps)))


def _knob(draw, good, bad):
    mode = draw(st.sampled_from(["omit"] * 2 + ["good"] * 5 + ["bad"]))
    return None if mode == "omit" else draw(good if mode == "good" else bad)


@st.composite
def _argvs(draw):
    """(argv, config-file lines, --config name, --out name, QBAKER_THREADS) for one run."""
    command = draw(st.sampled_from(_EVERY))
    # check's dense suites grow as 4**qubits
    values = draw(_run_geometry(8 if command == "check" else 10))
    if command == "sweep":
        width = draw(st.integers(1, 3))
    elif None in values.values():
        width = draw(st.integers(0, 6))
    else:
        kept = values["qubits"] - values["left"] - values["right"]
        # a free geometry's kept may be near 10**18; past 64 bits no run is valid
        width = min(max(kept - values["steps"] if command == "coarse-entropy" else kept, 0), 64)
    values["init-x"] = _knob(draw, st.text("01", min_size=width, max_size=width), _BAD_WORDS)
    knobs = dict(_KNOBS, **_SWEEP_KNOBS) if command == "sweep" else _KNOBS
    for key, (good, bad) in knobs.items():
        values[key] = _knob(draw, good, bad)
    argv, lines = [command], []
    for key, value in values.items():
        if value is None:
            continue
        if draw(st.booleans()):
            argv += [f"--{key}", str(value)]
        else:
            lines.append(f"{key.replace('-', '_')} = {value}".encode())
    # the config file is written as bytes, so a line need not be UTF-8
    bad_lines = [b"qubitz = 7", b"qubits 7", b"out = .", b"\xff\xfequbits = 8", b"dot = \xe9"]
    bad_line = draw(st.sampled_from([None] * 8 + bad_lines))
    if bad_line is not None:
        lines.append(bad_line)
    # "" stands for `--config ""`, a path no file can have
    config = draw(st.sampled_from(["run.cfg"] * 9 + [""]))
    out = draw(st.sampled_from([None, None, "out.txt", "missing/out.txt"]))
    env = draw(st.sampled_from([None, None, None, "1", "two"]))
    return argv, lines, config, out, env


@settings(max_examples=200, deadline=None)
@given(case=_argvs())
def test_random_argv_exits_with_a_code_and_an_error_line(tmp_path_factory, case):
    argv, lines, config, out, env = case
    work = tmp_path_factory.mktemp("argv")
    if not config:
        argv = argv + ["--config", ""]
    elif lines:
        (work / config).write_bytes(b"\n".join(lines) + b"\n")
        argv = argv + ["--config", str(work / config)]
    if out is not None:
        argv = argv + ["--out", str(work / out)]
    stderr = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        os.environ.pop("QBAKER_THREADS", None)
        if env is not None:
            os.environ["QBAKER_THREADS"] = env
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refuses the command line itself, e.g. a value "-1,0"
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, lines, err)
    assert "Traceback" not in err
    if code:
        # our own "error: " line, or argparse's "qbaker <command>: error: "
        errors = [ln for ln in err.splitlines() if re.match(r"(qbaker[\w -]*: )?error: ", ln)]
        assert errors, (argv, lines, err)

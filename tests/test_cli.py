"""End-to-end tests for the command-line front end."""

import csv
import json
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("steps,prune", [("2", "1e-12"), ("3", "0.01")])
def test_sweep_point_equals_full_histories_at_its_geometry(tmp_path, steps, prune):
    # a sweep point at left 6 with a 2-bit window is qubits 2*6 + 2, dot 6 + 1,
    # right 6; both commands must report the same numbers for it
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
    assert "QBAKER_THREADS" in capsys.readouterr().err


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


_EVERY = ("check", "full-histories", "coarse-entropy", "sweep")
# sweep derives its geometry from --init-x and ignores these flags
_GEOMETRY = ("check", "full-histories", "coarse-entropy")
_BUDGET_REFUSED = [
    "--qubits", "20", "--dot", "10", "--left", "9", "--right", "9", "--steps", "8",
    "--init-x", "01",
]
_BAD_INPUTS = [
    (_GEOMETRY, ["--qubits", "0"], {}, 2),
    (_GEOMETRY, ["--qubits", "25"], {}, 2),
    (_GEOMETRY, ["--dot", "-1"], {}, 2),
    (_GEOMETRY, ["--dot", "9"], {}, 2),
    (_GEOMETRY, ["--left", "-1"], {}, 2),
    (_GEOMETRY, ["--left", "4"], {}, 2),
    (_GEOMETRY, ["--right", "-1"], {}, 2),
    (_GEOMETRY, ["--right", "5"], {}, 2),
    (_GEOMETRY, ["--steps", "0"], {}, 2),
    (_GEOMETRY, ["--steps", "3"], {}, 2),
    (("sweep",), ["--sweep-left", "-1"], {}, 2),
    (("sweep",), ["--sweep-left", "12"], {}, 2),
    (("sweep",), ["--sweep-steps", "0"], {}, 2),
    (("sweep",), ["--sweep-left", "four"], {}, 2),
    (_EVERY, ["--init-x", "012"], {}, 2),
    (_GEOMETRY, ["--init-x", "0101010"], {}, 2),
    (_EVERY, ["--config", "{unknown_key}"], {}, 2),
    (_EVERY, [], {"QBAKER_THREADS": "two"}, 2),
    (_EVERY, ["--threads", "0"], {}, 2),
    (_EVERY, ["--prune", "-0.5"], {}, 2),
    (_EVERY, ["--prune", "nan"], {}, 2),
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
    places = {"unknown_key": str(unknown), "unwritable": str(tmp_path / "missing" / "out.csv")}
    monkeypatch.delenv("QBAKER_THREADS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main([command] + [a.format(**places) for a in args]) == code
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err

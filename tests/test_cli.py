"""Command-line surface: subcommands, file formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import gepsolve
from gepsolve import SymmetricMatrix, SyntheticSpec, gen_synthetic
from gepsolve.cli import main
from gepsolve.linalg import (read_dense_text, read_matrix_market, write_dense_text,
                             write_matrix_market)
from gepsolve.solvers import TRACE_HEADER


def gen_files(tmp_path, n=10, kappa_b=10.0, seed=0, fmt="mm"):
    prefix = str(tmp_path / "pair")
    rc = main(["gen", "--n", str(n), "--kappa-b", str(kappa_b),
               "--seed", str(seed), "--out", prefix, "--format", fmt])
    assert rc == 0
    ext = "mtx" if fmt == "mm" else "txt"
    return f"{prefix}_A.{ext}", f"{prefix}_B.{ext}"


def test_gen_round_trips_through_matrix_market(tmp_path, capsys):
    a_path, b_path = gen_files(tmp_path, n=8, kappa_b=10.0, seed=3)
    out = capsys.readouterr().out
    assert "wrote" in out
    direct = gen_synthetic(SyntheticSpec(n=8, kappa_b=10.0, seed=3))
    assert read_matrix_market(a_path).fingerprint() == direct.a.fingerprint()
    assert read_matrix_market(b_path).fingerprint() == direct.b.fingerprint()


def test_gen_dense_format(tmp_path):
    a_path, b_path = gen_files(tmp_path, n=6, kappa_b=5.0, seed=1, fmt="dense")
    direct = gen_synthetic(SyntheticSpec(n=6, kappa_b=5.0, seed=1))
    npt.assert_array_equal(read_dense_text(a_path).dense(), direct.a.dense())
    npt.assert_array_equal(read_dense_text(b_path).dense(), direct.b.dense())


def test_gen_invalid_order_exit_three(tmp_path, capsys):
    rc = main(["gen", "--n", "1", "--kappa-b", "5", "--out",
               str(tmp_path / "x")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_solve_converged_exit_zero_and_trace(tmp_path, capsys):
    a_path, b_path = gen_files(tmp_path)
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", "--a", a_path, "--b", b_path, "--method", "split-merge",
               "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status      converged" in out
    assert "lambda" in out and "reference" in out
    lines = open(trace_path, encoding="ascii").read().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) >= 2


def test_solve_every_method_runs(tmp_path):
    a_path, b_path = gen_files(tmp_path, n=12, kappa_b=5.0, seed=4)
    for method in ("gd", "pmd", "power", "split-merge", "lanczos"):
        rc = main(["solve", "--a", a_path, "--b", b_path, "--method", method,
                   "--tol", "1e-4"])
        assert rc == 0, method


def test_solve_reference_free_mode(tmp_path, capsys):
    a_path, b_path = gen_files(tmp_path)
    rc = main(["solve", "--a", a_path, "--b", b_path, "--ref", "none"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "criterion   gradient" in out
    assert "reference   " not in out


def test_solve_iteration_cap_exit_two(tmp_path, capsys):
    a_path, b_path = gen_files(tmp_path, n=16, kappa_b=50.0, seed=5)
    rc = main(["solve", "--a", a_path, "--b", b_path, "--method", "power",
               "--max-iters", "1"])
    assert rc == 2
    assert "status      max-iterations" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["power", "split-merge", "gd"])
def test_solve_degenerate_exit_five(tmp_path, capsys, method):
    """These runs end degenerate on an indefinite A, and degenerate is not an
    iteration cap."""
    a_path, b_path = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
    write_matrix_market(SymmetricMatrix.from_dense(np.diag([1.0, -2.0, 0.5, 0.3])), a_path)
    write_matrix_market(SymmetricMatrix.from_dense(np.eye(4)), b_path)
    rc = main(["solve", "--a", a_path, "--b", b_path, "--method", method, "--ref", "none"])
    assert "status      degenerate" in capsys.readouterr().out
    assert rc == 5


@pytest.mark.parametrize("method_args", [["--method", "pmd"],
                                         ["--method", "pmd", "--precond", "diag"]])
def test_solve_diverged_exit_six(tmp_path, capsys, method_args):
    # a definite pair at the edge of the float range: from the CLI's start
    # x'Bx overflows and x'Ax's mixed-sign products give inf - inf, so the
    # objective is not finite and the run has diverged at k = 0
    n = 32
    a_path, b_path = tmp_path / "huge_A.txt", tmp_path / "huge_B.txt"
    write_dense_text(SymmetricMatrix.from_dense(1e308 * np.ones((n, n))), a_path)
    write_dense_text(SymmetricMatrix.from_dense(1e307 * np.eye(n)), b_path)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["solve", "--a", str(a_path), "--b", str(b_path), "--format", "dense",
                   "--ref", "none", *method_args])
    assert "status      diverged" in capsys.readouterr().out
    assert rc == 6


def test_solve_missing_file_exit_three(tmp_path, capsys):
    rc = main(["solve", "--a", str(tmp_path / "no_A.mtx"),
               "--b", str(tmp_path / "no_B.mtx")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_solve_corrupt_file_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2\n",
                   encoding="ascii")
    rc = main(["solve", "--a", str(bad), "--b", str(bad)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["0 0 0", "-1 -1 0"])
def test_solve_order_below_one_exit_three(tmp_path, capsys, sizes):
    bad = tmp_path / "bad.mtx"
    bad.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{sizes}\n",
                   encoding="ascii")
    rc = main(["solve", "--a", str(bad), "--b", str(bad)])
    assert rc == 3
    assert "line 2: bad order" in capsys.readouterr().err


def test_solve_indefinite_metric_exit_four(tmp_path, capsys):
    a_path, _ = gen_files(tmp_path, n=6, kappa_b=5.0, seed=6, fmt="dense")
    bad_b = tmp_path / "indefinite_B.txt"
    rows = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -2.0])
    lines = ["6"]
    for i in range(6):
        for j in range(i + 1):
            lines.append(repr(float(rows[i, j])))
    bad_b.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc = main(["solve", "--a", a_path, "--b", str(bad_b), "--format", "dense"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method_args", [
    ["--method", "gd"], ["--method", "pmd", "--precond", "diag"],
    ["--method", "gd", "--linsolve", "pcg", "--max-iters", "200"],
    ["--method", "pmd", "--precond", "diag", "--linsolve", "pcg", "--max-iters", "200"]])
def test_solve_indefinite_b_exit_four_without_a_b_solve(tmp_path, capsys, method_args):
    # gd and a diagonal-metric pmd never factor B in their runs, with either
    # --linsolve; B's positive diagonal passes the diagonal metric, yet B is
    # indefinite
    a_path, _ = gen_files(tmp_path, n=6, kappa_b=5.0, seed=6, fmt="dense")
    b = np.eye(6)
    b[0, 1] = b[1, 0] = 2.0
    bad_b = tmp_path / "indefinite_B.txt"
    write_dense_text(SymmetricMatrix.from_dense(b), bad_b)
    rc = main(["solve", "--a", a_path, "--b", str(bad_b), "--format", "dense",
               "--ref", "none", *method_args])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_topk_json_output(tmp_path, capsys):
    a_path, b_path = gen_files(tmp_path, n=10, kappa_b=8.0, seed=7)
    out_path = tmp_path / "pairs.json"
    rc = main(["topk", "--a", a_path, "--b", b_path, "--k", "3",
               "--tol", "1e-7", "--out", str(out_path)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "lambda_1" in stdout and "lambda_3" in stdout
    payload = json.loads(out_path.read_text(encoding="ascii"))
    assert len(payload["lambdas"]) == 3
    assert len(payload["vectors"]) == 3
    assert len(payload["vectors"][0]) == 10
    pair = gen_synthetic(SyntheticSpec(n=10, kappa_b=8.0, seed=7))
    vals = scipy.linalg.eigh(pair.a.dense(), pair.b.dense(), eigvals_only=True)
    npt.assert_allclose(payload["lambdas"], vals[::-1][:3], rtol=0,
                        atol=1e-5 * float(vals[-1]))
    assert payload["lambdas"] == sorted(payload["lambdas"], reverse=True)


def test_topk_pmd_builds_the_requested_metric_once(tmp_path, monkeypatch):
    # Every stage of top_k must run in the metric named by --precond, and
    # the metric is factored once for all stages, not once per stage.
    import gepsolve.precond

    a_path, b_path = gen_files(tmp_path, n=10, kappa_b=8.0, seed=7)
    real = gepsolve.precond.build_preconditioner
    built = []

    def spy(b, kind, *args, **kwargs):
        built.append(kind)
        return real(b, kind, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gepsolve") and hasattr(module, "build_preconditioner"):
            monkeypatch.setattr(module, "build_preconditioner", spy)
    rc = main(["topk", "--a", a_path, "--b", b_path, "--k", "3",
               "--method", "pmd", "--precond", "diag", "--tol", "1e-6"])
    assert rc == 0
    assert built == ["diagonal"]


def test_topk_k_out_of_range_exit_three(tmp_path, capsys):
    a_path, b_path = gen_files(tmp_path, n=6, kappa_b=5.0, seed=8)
    rc = main(["topk", "--a", a_path, "--b", b_path, "--k", "99"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--method", "bogus"], ["solve", "--tol", "abc"],
                                     ["topk", "--k", "2", "--ref", "none"]])
def test_invalid_argument_exit_three(tmp_path, capsys, command):
    # argparse's own usage-error code, 2, is the code for an iteration cap hit
    a_path, b_path = gen_files(tmp_path, n=6, kappa_b=5.0, seed=8)
    rc = main([command[0], "--a", a_path, "--b", b_path, *command[1:]])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_help_exit_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--ref" in capsys.readouterr().out


def test_bench_custom_suite(tmp_path, capsys):
    suite = {"cells": [{"n": 8, "kappa_b": 5.0}], "methods": ["power"],
             "trials": 2, "seed": 1}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite), encoding="ascii")
    out_dir = tmp_path / "report"
    rc = main(["bench", "--suite", str(suite_path), "--out", str(out_dir)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text(encoding="ascii"))
    assert report["schema_version"] == 1
    assert len(report["cells"]) == 1
    assert (out_dir / "report.csv").exists()


def test_bench_trace_bundling(tmp_path):
    suite = {"cells": [{"n": 8, "kappa_b": 5.0}], "methods": ["power"],
             "trials": 1, "seed": 1}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite), encoding="ascii")
    out_dir = tmp_path / "report"
    rc = main(["bench", "--suite", str(suite_path), "--out", str(out_dir),
               "--traces"])
    assert rc == 0
    trace = out_dir / "n8_kb5" / "power_t0.csv"
    assert trace.exists()


def test_bench_malformed_suite_exit_three(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text("{broken", encoding="ascii")
    rc = main(["bench", "--suite", str(suite_path), "--out",
               str(tmp_path / "report")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("pmd_precond", "diag"), ("trials", 0), ("cells", [{"n": 8}]),
    ("cells", [{"n": "x", "kappa_b": 5.0}]), ("cells", {"n": 8}), ("trials", "2"),
    ("tol", "1e-5"), ("tol", -1), ("max_iterations", 0), ("rho", 0.5), ("methods", []),
    ("seed", -1), ("cells", [{"n": 1, "kappa_b": 5.0}]), ("cells", [{"n": 8, "kappa_b": 0.5}]),
    ("kappa_a", 0.5), ("pcg_cap", 0)])
def test_bench_suite_bad_value_exit_three(tmp_path, capsys, key, value):
    # "diag" is the CLI's --precond spelling, not a metric kind; a suite's
    # type and range errors are caught before any run, not tallied as runs
    suite = {"cells": [{"n": 8, "kappa_b": 5.0}], "methods": ["power", "pmd"],
             "trials": 1, key: value}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite), encoding="ascii")
    out_dir = tmp_path / "report"
    rc = main(["bench", "--suite", str(suite_path), "--out", str(out_dir)])
    assert rc == 3
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["--methods", ""], ["--suite", "missing.json"]])
def test_bench_no_methods_or_no_suite_file_exit_three(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc = main(["bench", *argv, "--out", "report"])
    assert rc == 3
    assert argv[0].lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_solve_pcg_cap_below_one_exit_three(tmp_path, capsys, cap):
    a_path, b_path = gen_files(tmp_path, n=6, kappa_b=5.0, seed=8)
    rc = main(["solve", "--a", a_path, "--b", b_path, "--method", "power",
               "--linsolve", "pcg", "--pcg-cap", cap])
    assert rc == 3
    assert "cap" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    prefix = str(tmp_path / "pair")
    # the child imports gepsolve from where this process did, installed or not
    src = str(Path(gepsolve.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "gepsolve", "gen", "--n", "4", "--kappa-b", "5",
         "--out", prefix],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


@pytest.mark.parametrize("command", [["solve", "--ref", "none"], ["topk", "--k", "2"]])
def test_pmd_factors_b_once(tmp_path, factorizations, command):
    # pmd's default metric takes B's cached factor: one factorization
    # serves the exact solver's definiteness check and the metric
    a_path, b_path = gen_files(tmp_path, n=10, kappa_b=8.0, seed=7)
    rc = main([command[0], "--a", a_path, "--b", b_path, "--method", "pmd",
               *command[1:]])
    assert rc == 0
    assert factorizations == [10]


@pytest.mark.parametrize("method", ["gd", "pmd", "power", "split-merge", "lanczos"])
def test_solve_with_reference_factors_b_once(tmp_path, factorizations, method):
    # the reference's definiteness check, the exact B-solver and pmd's
    # metric all take B's cached factor
    a_path, b_path = gen_files(tmp_path, n=10, kappa_b=8.0, seed=7)
    rc = main(["solve", "--a", a_path, "--b", b_path, "--method", method, "--ref", "internal"])
    assert rc == 0
    assert factorizations == [10]

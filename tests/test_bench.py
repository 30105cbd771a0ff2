"""Suite orchestration: fairness, aggregation, export, determinism."""

import json

import numpy as np
import pytest

import gepsolve.bench
import gepsolve.solvers
from gepsolve.bench import (
    CI_N,
    FULL_KAPPA_B,
    FULL_N,
    STATISTICS,
    BenchmarkReport,
    SuiteCell,
    SuiteConfig,
    ci_suite,
    export_report,
    full_suite,
    matvec_equivalent_cost,
    read_report,
    run_suite,
)
from gepsolve.errors import InputError
from gepsolve.precond import transformed_dominant_eigenvalue
from gepsolve.solvers import TRACE_HEADER


def strip_timing(report_dict):
    """Report dict with wall-time statistics removed, for comparisons."""
    out = json.loads(json.dumps(report_dict))
    for cell in out["cells"]:
        for m in cell["methods"]:
            m.pop("elapsed_ns_median", None)
            m.pop("elapsed_ns_mean", None)
    return out


def test_config_validation():
    with pytest.raises(InputError):
        SuiteConfig(cells=[SuiteCell(8, 5.0)], methods=["newton"])
    with pytest.raises(InputError):
        SuiteConfig(cells=[SuiteCell(8, 5.0)], methods=["power"], linsolve="lu")
    with pytest.raises(InputError):
        SuiteConfig(cells=[], methods=["power"])


def test_config_from_dict_rejects_unknown_keys():
    base = {"cells": [{"n": 8, "kappa_b": 5.0}], "methods": ["power"]}
    cfg = SuiteConfig.from_dict(base)
    assert cfg.cells[0].n == 8
    assert cfg.trials == 100
    with pytest.raises(InputError):
        SuiteConfig.from_dict({**base, "warmup": 3})
    with pytest.raises(InputError):
        SuiteConfig.from_dict({"methods": ["power"]})


def test_config_json_round_trip(tmp_path):
    cfg = SuiteConfig(cells=[SuiteCell(16, 10.0)], methods=["power"], trials=4,
                      seed=9, linsolve="pcg", pcg_cap=40)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="ascii")
    again = SuiteConfig.from_json(path)
    assert again.to_dict() == cfg.to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="ascii")
    with pytest.raises(InputError):
        SuiteConfig.from_json(bad)


def test_builtin_grids():
    ci = ci_suite(["power", "split-merge"])
    assert len(ci.cells) == len(CI_N) * len(FULL_KAPPA_B)
    assert ci.trials == 20
    full = full_suite(["power"])
    assert len(full.cells) == len(FULL_N) * len(FULL_KAPPA_B)
    assert full.trials == 100


def test_protocol_single_cell_shared_start():
    cfg = SuiteConfig(cells=[SuiteCell(16, 10.0)],
                      methods=["power", "split-merge"], trials=1, seed=0)
    report = run_suite(cfg)
    assert report.schema_version == 1
    cell = report.cells[0]
    assert len(cell.x0_fingerprints) == 1
    assert {m.method for m in cell.methods} == {"power", "split-merge"}
    assert all(m.successes == 1 for m in cell.methods)
    assert cell.reference_lambda > 0.0
    again = run_suite(cfg)
    assert again.cells[0].x0_fingerprints == cell.x0_fingerprints


def test_split_merge_beats_power_cell():
    cfg = SuiteConfig(cells=[SuiteCell(64, 100.0)],
                      methods=["power", "split-merge"], trials=20, seed=0)
    report = run_suite(cfg)
    cell = report.cells[0]
    stats = {m.method: m for m in cell.methods}
    assert stats["power"].success_rate == 1.0
    assert stats["split-merge"].success_rate == 1.0
    assert stats["split-merge"].iterations_median < stats["power"].iterations_median
    assert cell.speedup is not None
    ratio = stats["power"].iterations_median / stats["split-merge"].iterations_median
    assert cell.speedup["iterations_ratio"] == pytest.approx(ratio)
    assert ratio > 1.0


def test_gd_power_cost_crossover_under_iterative_solves():
    # With solves paid in inner matvecs, first-order descent wins the
    # well-conditioned metric and loses the ill-conditioned one.
    cfg = SuiteConfig(cells=[SuiteCell(64, 3.0), SuiteCell(64, 100.0)],
                      methods=["gd", "power"], trials=20, seed=0, linsolve="pcg")
    report = run_suite(cfg)
    costs = {}
    for cell in report.cells:
        for m in cell.methods:
            assert m.success_rate == 1.0
            costs[(cell.kappa_b, m.method)] = matvec_equivalent_cost(
                m.matvecs_mean, m.solves_mean, cell.n, exact_mode=False)
        pcg_inner = {m.method: m.pcg_inner_mean for m in cell.methods}
        assert pcg_inner["power"] > 0.0
        assert pcg_inner["gd"] == 0.0
    assert costs[(3.0, "gd")] < costs[(3.0, "power")]
    assert costs[(100.0, "gd")] > costs[(100.0, "power")]


def test_statistics_cover_only_successes():
    cfg = SuiteConfig(cells=[SuiteCell(64, 100.0)], methods=["power"],
                      trials=10, seed=0, max_iterations=13)
    report = run_suite(cfg)
    m = report.cells[0].methods[0]
    assert m.trials == 10
    assert 0 < m.successes < 10
    assert m.success_rate == m.successes / 10.0
    assert len(m.failures) == 10 - m.successes
    assert all(f["status"] == "max-iterations" for f in m.failures)
    assert m.iterations_median <= 13.0


def test_all_failures_yield_nan_statistics():
    cfg = SuiteConfig(cells=[SuiteCell(64, 100.0)], methods=["power"],
                      trials=5, seed=0, max_iterations=5)
    report = run_suite(cfg)
    m = report.cells[0].methods[0]
    assert m.successes == 0
    assert m.success_rate == 0.0
    assert np.isnan(m.iterations_median)
    assert len(m.failures) == 5


def test_export_report_shapes(tmp_path):
    cfg = SuiteConfig(cells=[SuiteCell(8, 5.0)],
                      methods=["power", "split-merge"], trials=2, seed=1)
    report = run_suite(cfg)
    json_path, csv_path = export_report(report, tmp_path)
    lines = open(csv_path, encoding="ascii").read().splitlines()
    assert lines[0] == "n,kappa_b,method,statistic,value"
    assert len(lines) == 1 + 2 * len(STATISTICS)
    assert read_report(json_path) == report.to_dict()


def test_export_empty_report(tmp_path):
    report = BenchmarkReport(1, {}, [])
    _, csv_path = export_report(report, tmp_path)
    lines = open(csv_path, encoding="ascii").read().splitlines()
    assert lines == ["n,kappa_b,method,statistic,value"]


def test_suite_determinism_excluding_timing():
    cfg = SuiteConfig(cells=[SuiteCell(16, 10.0)],
                      methods=["power", "split-merge"], trials=3, seed=5)
    first = strip_timing(run_suite(cfg).to_dict())
    second = strip_timing(run_suite(cfg).to_dict())
    assert first == second


def test_trace_directory_output(tmp_path):
    cfg = SuiteConfig(cells=[SuiteCell(8, 5.0)], methods=["power"], trials=2,
                      seed=2)
    run_suite(cfg, trace_dir=tmp_path)
    trace = tmp_path / "n8_kb5" / "power_t1.csv"
    assert trace.exists()
    assert open(trace, encoding="ascii").readline().rstrip("\n") == TRACE_HEADER


def test_matvec_equivalent_cost_accounting():
    assert matvec_equivalent_cost(10, 4, 60, exact_mode=True) == 24.0
    assert matvec_equivalent_cost(10, 4, 60, exact_mode=False) == 10.0


def test_pmd_transformed_bound_is_estimated_once_per_cell(monkeypatch):
    """Each cell builds B and the pmd metric once, so the bound they set is
    the same for every trial; the trial eigenvalues are those of a
    per-trial estimate."""
    bounds = []
    lams = []

    def counted(b, p):
        bounds.append(transformed_dominant_eigenvalue(b, p))
        return bounds[-1]

    def recorded(pair, config, x0):
        trace = solve(pair, config, x0)
        lams.append(trace.final().lam)
        return trace

    solve = gepsolve.bench.solve
    monkeypatch.setattr(gepsolve.bench, "solve", recorded)
    for module in (gepsolve.bench, gepsolve.solvers):
        monkeypatch.setattr(module, "transformed_dominant_eigenvalue", counted, raising=False)
    report = run_suite(SuiteConfig(cells=[SuiteCell(64, 10.0)], methods=["pmd"], trials=5,
                                   pmd_precond="diagonal"))
    assert report.cells[0].methods[0].success_rate == 1.0
    assert bounds == [pytest.approx(1.8719929791099172, rel=1e-12)]
    assert lams == pytest.approx([5.38618593256042, 5.386186860112775, 5.386186856965631,
                                  5.386185934254441, 5.386185928642408], rel=1e-12, abs=0)

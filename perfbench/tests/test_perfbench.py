"""Tests of the benchmark's own code, on small versions of its workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from gepsolve import MatrixPair, SolverConfig

import clock
import pencils
import run
from tracing import Tracer, layer_ns_by_op
from workloads import METHODS, DenseLoop, GridCi, Run, SparsePcg, call_runner, sin_angle

ROOT = Path(__file__).resolve().parents[2]


def small_workloads():
    return [GridCi(ns=(16,), kappas=(10.0,), trials=1, starts=2),
            DenseLoop(n=48, starts=2, lanczos_starts=3, topk_calls=1),
            SparsePcg(m=12, starts=2)]


def traced(workload, tmp_path, seed=0):
    result = run.measure(workload, seed, 0.0, True, tmp_path)
    return (*result, run.per_layer(workload, *result))


def test_clock_cuts_out_calibrations_and_scales_each_stretch():
    c = clock.Clock()
    c.starts, c.ends = [0, 100, 300], [10, 130, 310]  # calibrations of 10, 30, 10 ns
    # stretch 20..100 lies between calibrations of 10 and 30 ns, 130..200
    # between 30 and 10 ns; the calibration inside the window is cut out
    expected = (80 + 70) * clock.REFERENCE_NS / 20
    assert c.ns(20, 200) == pytest.approx(expected)
    assert c.ns(140, 150) == pytest.approx(10 * clock.REFERENCE_NS / 20)
    with pytest.raises(ValueError):
        c.ns(305, 400)


def test_clock_calibrates_while_started():
    c = clock.Clock()
    c.start()
    try:
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 0.2e9:
            pass
        t1 = time.perf_counter_ns()
    finally:
        c.stop()
    assert len(c.starts) >= 4
    assert all(e <= s for e, s in zip(c.ends, c.starts[1:]))
    assert 0 < c.ns(t0, t1) < float("inf")


def test_grid_pencil_is_deterministic_and_its_oracle_certified():
    a1, b1 = pencils.grid_pencil(64, layout_seed=3)
    a2, b2 = pencils.grid_pencil(64, layout_seed=3)
    a3, _ = pencils.grid_pencil(64, layout_seed=4)
    assert (a1 != a2).nnz == 0 and (b1 != b2).nnz == 0
    assert (a1 != a3).nnz > 0
    assert np.array_equal(pencils.perturbed_starts(4096, 2, 5),
                          pencils.perturbed_starts(4096, 2, 5))

    w, v = pencils.sparse_oracle(a1, b1, 4)
    assert np.all(np.diff(w) < 0)
    assert np.all(pencils.residuals(a1, b1, w, v) <= 1e-8 * w)


def test_sin_angle_resolves_angles_below_the_runners_test():
    u = np.zeros(256)
    u[0] = 1.0
    x = u.copy()
    x[1] = 3e-9
    assert sin_angle(7.0 * x, u) == pytest.approx(3e-9, rel=1e-6)


def test_eigenpair_check_passes_the_oracle_vector_and_flags_the_second():
    a, b = pencils.rng(1).standard_normal((2, 48, 48))
    a, b = a @ a.T, b @ b.T + 48 * np.eye(48)
    pair = MatrixPair(pencils.to_symmetric(a), pencils.to_symmetric(b))
    w, v = pencils.dense_oracle(a, b, 2)
    config = SolverConfig(method="power", tol=1e-7, reference=v[:, 0])
    assert Run.eigenpair_problem(pair, -3.0 * v[:, 0], w[0], config) is None
    assert "misses oracle" in Run.eigenpair_problem(pair, v[:, 1], w[0], config)
    tilted = v[:, 0] + 1e-6 * v[:, 1]
    assert "sin theta" in Run.eigenpair_problem(pair, tilted, w[0], config)


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_layer_spans_of_an_op_never_sum_past_the_op(workload, tmp_path):
    result, *_ = traced(workload, tmp_path)
    spans = result.tracer.spans
    assert spans
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
            assert span.op == parent.op
    by_op = layer_ns_by_op(spans)
    for span in spans:
        if span.parent is None:
            assert sum(by_op[span.op].values()) <= span.ns


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_reported_counters_equal_the_trace_counters(workload, tmp_path):
    result, *_, layers = traced(workload, tmp_path)
    calls = workload.solves(workload.set_up(Tracer(False)))
    for m in METHODS:
        recorded = [s.attrs for s in result.tracer.named(f"solvers.{m}") if s.attrs]
        direct = []
        for method, pair, config, x0, *_ in calls:
            if method != m:
                continue
            try:
                trace = call_runner(m, pair, config, x0)
            except Exception:  # the benchmark records no counters for these
                continue
            direct.append(trace.counters)
        assert direct
        cycles = len(recorded) // len(direct)  # traced rounds, and repeats within one
        for key in ("matvecs", "solves", "pcg_inner"):
            assert [r[key] for r in recorded] == [getattr(c, key) for c in direct] * cycles

            expected = sum(getattr(c, key) for c in direct) / len(direct)
            if (m, key) in run.NEVER_COUNTED:
                assert expected == 0, (m, key)
            else:
                assert layers[f"solvers.{m}.{key}"] == expected, (m, key)


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_count_metrics_repeat_at_a_fixed_seed(workload, tmp_path):
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        *_, layers = traced(workload, workdir, seed=7)
        counts.append({k: v for k, v in layers.items() if run.PER_LAYER.get(k) == "count"})
    assert counts[0] == counts[1]
    assert set(counts[0]) == {k for k, u in run.PER_LAYER.items() if u == "count"}


def test_every_listed_metric_is_reported(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    workload = small_workloads()[1]
    result, rounds, _, layers = traced(workload, tmp_path)
    assert set(run.PER_LAYER) <= set(layers)
    assert set(run.end_to_end(result)) == set(run.END_TO_END)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-loop",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

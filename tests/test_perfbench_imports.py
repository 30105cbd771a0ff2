"""The benchmark in perfbench/ imports the package and calls its runners.

A change that breaks those imports or calls fails here, in the package's
own suite, instead of only when the benchmark runs.
"""

from pathlib import Path

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from gepsolve import (LinearSolver, MatrixPair, SolverConfig, SymmetricMatrix,
                      build_preconditioner)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def spd(n, seed):
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return (q * np.linspace(0.2, 1.0, n)) @ q.T


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes  # noqa: F401  (imports jacobi_eigh and the kernels it probes)
    import workloads

    return workloads


class StubClock:
    """The benchmark clock's interface without its calibration kernel."""

    def calibrate(self):
        pass

    def ns(self, t0, t1):
        return t1 - t0


def test_benchmark_calls_every_runner_with_a_configured_metric(workloads):
    a, b = spd(6, 0), spd(6, 1)
    pair = MatrixPair(SymmetricMatrix.from_dense(a), SymmetricMatrix.from_dense(b))
    vals, vecs = scipy.linalg.eigh(a, b)
    precond = build_preconditioner(pair.b, "diagonal")
    x0 = np.random.default_rng(2).standard_normal(6)
    for method in workloads.METHODS:
        config = SolverConfig(method=method, tol=1e-8, preconditioner=precond,
                              reference=vecs[:, -1])
        trace = workloads.call_runner(method, pair, config, x0)
        assert trace.status == "converged", method
        assert trace.final().lam == pytest.approx(vals[-1], rel=1e-6), method
        assert workloads.sin_angle(trace.x, vecs[:, -1]) <= 2e-8, method
    # the diagonal metric was used: the exact one would report a bound of 1
    pmd = workloads.call_runner("pmd", pair, SolverConfig(
        method="pmd", tol=1e-8, preconditioner=precond), x0)
    assert pmd.diagnostics["transformed_bound"] != 1.0


def test_kernel_probes_run_on_a_sparse_pencil_with_an_ic0_metric(workloads):
    import pencils
    import probes

    a, b = pencils.grid_pencil(6, layout_seed=0)
    pair = MatrixPair(pencils.to_symmetric(a), pencils.to_symmetric(b))
    vecs = pencils.dense_oracle(a.toarray(), b.toarray(), 3)[1]
    ops = workloads.Operands(pair, LinearSolver.pcg(pair.b, cap=30),
                             build_preconditioner(pair.b, "incomplete-cholesky"), None)
    workload = SimpleNamespace(probe_calls={"matvec": 2, "solve": 2, "factor": 2})
    out = probes.kernels(StubClock(), workload, ops, vecs)
    assert set(out) == {
        "linalg.matvec.A.us", "linalg.matvec.B.us", "linalg.solve_spd.us",
        "linalg.solve_spd.pcg_inner_per_solve", "linalg.CholeskyFactor.solve.us",
        "precond.apply_gram_inverse.us", "linalg.jacobi_eigh.tri20.us",
        "precond.transformed_dominant_eigenvalue.ms",
        "deflation.DeflatedOperator.matvec.depth1.us",
        "deflation.DeflatedOperator.matvec.depth2.us",
        "deflation.DeflatedOperator.matvec.depth3.us",
    }
    assert all(np.isfinite(v) and v > 0 for v in out.values()), out

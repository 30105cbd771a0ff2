"""The benchmark in perfbench/ imports the package and calls its runners.

A change that breaks those imports or calls fails here, in the package's
own suite, instead of only when the benchmark runs.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gepsolve import MatrixPair, SolverConfig, SymmetricMatrix, build_preconditioner

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

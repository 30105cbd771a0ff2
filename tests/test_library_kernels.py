"""No library path runs the pure-Python Jacobi eigensolver.

`jacobi_eigh` stays exported, but the reference, pair validation and the
Lanczos Ritz step use LAPACK; it is about a thousand times slower at the
orders the benchmark grid uses. Every module attribute bound to it is made
to raise, then each of those paths runs.
"""

import sys

import numpy as np
import pytest

import gepsolve.linalg
from gepsolve import (MatrixPair, SolverConfig, SymmetricMatrix, SyntheticSpec,
                      gen_synthetic, reference_solution, run_lanczos, validate_pair)
from gepsolve.bench import SuiteCell, SuiteConfig, run_suite
from gepsolve.solvers import METHODS


def forbid_jacobi(monkeypatch):
    original = gepsolve.linalg.jacobi_eigh

    def forbidden(*args, **kwargs):
        raise AssertionError("jacobi_eigh called from a library path")

    for name, module in list(sys.modules.items()):
        if name == "gepsolve" or name.startswith("gepsolve."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)


def test_reference_validation_and_runners_avoid_jacobi(monkeypatch):
    forbid_jacobi(monkeypatch)
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=3))
    ref = reference_solution(pair)
    assert ref.residual <= 1e-8 * ref.lam
    assert validate_pair(pair).a_positive_semidefinite

    x0 = np.random.default_rng(0).standard_normal(pair.n)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-8, reference=ref.u), x0)
    assert trace.converged
    assert abs(trace.final().lam - ref.lam) <= 1e-8 * ref.lam

    report = run_suite(SuiteConfig(cells=[SuiteCell(16, 10.0)], methods=list(METHODS),
                                   trials=1))
    assert all(m.success_rate == 1.0 for m in report.cells[0].methods)


def test_indefinite_a_validation_avoids_jacobi(monkeypatch):
    forbid_jacobi(monkeypatch)
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([1.0, -2.0, 0.5])),
                      SymmetricMatrix.from_dense(np.eye(3)))
    diag = validate_pair(pair)
    assert not diag.a_positive_semidefinite
    assert diag.min_generalized_eigenvalue == pytest.approx(-2.0, rel=1e-12)

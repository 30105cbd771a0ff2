"""No library path runs the pure-Python Jacobi eigensolver, and no dense
B-solve goes through scipy's `solve_triangular` wrapper.

`jacobi_eigh` stays exported, but the reference, pair validation and the
Lanczos Ritz step use LAPACK; it is about a thousand times slower at the
orders the benchmark grid uses. Every module attribute bound to it is made
to raise, then each of those paths runs. Dense triangular solves call
LAPACK's `trtrs` directly; the wrapper's Python overhead cost more than the
substitution itself at the grid's orders. CSR products call scipy's
compiled `csr_matvec`, which lives in a private module; its contract with
`csr_array @ x` is pinned here.
"""

import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import gepsolve.linalg
from gepsolve import (Counters, MatrixPair, SolverConfig, SymmetricMatrix, SyntheticSpec,
                      gen_synthetic, read_matrix_market, reference_solution, run_lanczos,
                      solve, top_k, validate_pair, write_matrix_market)
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


def test_dense_b_solves_avoid_solve_triangular(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_triangular called from a library path")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    pair = gen_synthetic(SyntheticSpec(n=32, kappa_b=10.0, seed=0))
    x0 = np.random.default_rng(0).standard_normal(pair.n)
    for method in METHODS:
        assert solve(pair, SolverConfig(method=method, tol=1e-6), x0).converged
    for method in ("split-merge", "pmd"):
        assert len(top_k(pair, 2, SolverConfig(method=method, tol=1e-6))) == 2


def csr_cases(tmp_path):
    """CSR matrices with int64 indices (read from a file), int32 indices
    (from_sparse), and an all-zero row and column."""
    side = 12
    t = scipy.sparse.diags_array([-1.0, 2.5, -1.0], offsets=[-1, 0, 1], shape=(side, side))
    eye = scipy.sparse.eye_array(side)
    grid = scipy.sparse.csr_array(scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye))
    write_matrix_market(SymmetricMatrix.from_sparse(grid), tmp_path / "grid.mtx")
    from_file = read_matrix_market(tmp_path / "grid.mtx")
    in_memory = SymmetricMatrix.from_sparse(grid)
    holed = grid.tolil()
    holed[5, :] = 0.0
    holed[:, 5] = 0.0
    with_zero_row = SymmetricMatrix.from_sparse(holed.tocsr())
    return {"int64": from_file, "int32": in_memory, "zero-row": with_zero_row}


def test_csr_products_call_the_compiled_kernel_bitwise(tmp_path, monkeypatch):
    # an ImportError here means scipy moved its private kernel: linalg.py
    # imports it from the same place
    from scipy.sparse._sparsetools import csr_matvec

    assert gepsolve.linalg.csr_matvec is csr_matvec
    calls = []

    def spy(*args):
        calls.append(args[-1])
        return csr_matvec(*args)

    monkeypatch.setattr(gepsolve.linalg, "csr_matvec", spy)
    cases = csr_cases(tmp_path)
    assert cases["int64"].kind == "csr" and cases["int64"]._m.indices.dtype == np.int64
    assert cases["int32"]._m.indices.dtype == np.int32
    assert cases["zero-row"]._m.indptr[5] == cases["zero-row"]._m.indptr[6]

    rng = np.random.default_rng(4)
    for name, mat in cases.items():
        basis = rng.standard_normal((mat.n, 3))
        strided = basis[:, 1]
        assert not strided.flags.c_contiguous
        inputs = [rng.standard_normal(mat.n), strided, list(rng.standard_normal(mat.n))]
        counters = Counters()
        for i, x in enumerate(inputs, 1):
            y = mat.matvec(x, counters)
            want = mat._m @ np.asarray(x, dtype=np.float64)
            assert y.dtype == want.dtype and y.shape == want.shape, name
            assert y.tobytes() == want.tobytes(), name
            assert calls[-1] is y
            assert counters.matvecs == i
        if name == "zero-row":
            assert y[5] == 0.0
    assert len(calls) == 3 * len(cases)

"""Golden seeded traces: fixed pencils, fixed starts, pinned outcomes.

The expected values were produced by the runners before they shared one
driver loop, and they pin what a restructuring of the solvers must leave
unchanged: terminal status, iteration count and the operation counters
exactly, final objective and eigenvalue estimate to 1e-12 relative. A
change that moves any of them changes behaviour, not only code.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gepsolve import (
    LinearSolver,
    MatrixPair,
    SolverConfig,
    SymmetricMatrix,
    SyntheticSpec,
    build_preconditioner,
    gen_synthetic,
    run_gd,
    run_lanczos,
    run_pmd,
    run_power,
    run_split_merge,
    top_k,
)

RTOL = 1e-12

RUNNERS = {
    "gd": run_gd,
    "pmd": lambda pair, config, x0: run_pmd(pair, config, None, x0),
    "power": run_power,
    "split-merge": run_split_merge,
    "lanczos": run_lanczos,
}

# (kappa_b, reference, method): (status, iterations, matvecs, solves,
# pcg_inner, final f, final lambda) on gen_synthetic(64, kappa_b, seed 0)
# from the seed-1 normal start at tol 1e-6.
SYNTHETIC = {
    (10.0, "eigh", "gd"): ("converged", 305, 612, 0, 0, -1.5099392430673864, 6.039757049111056),
    (10.0, "eigh", "pmd"): ("converged", 134, 270, 134, 0, -1.5099392430610696, 6.039756612260292),
    (10.0, "eigh", "power"): ("converged", 62, 63, 62, 0, -1.5099392430674206, 6.039756972269682),
    (10.0, "eigh", "split-merge"): ("converged", 12, 25, 24, 0, -1.5099392430675043, 6.039756972270017),
    (10.0, "eigh", "lanczos"): ("converged", 20, 41, 20, 0, -1.5099392430676657, 6.039756972270663),
    (10.0, "none", "gd"): ("converged", 219, 440, 0, 0, -1.509939242681003, 6.039759839840879),
    (10.0, "none", "pmd"): ("converged", 131, 264, 131, 0, -1.5099392430558418, 6.03975744275564),
    (10.0, "none", "power"): ("converged", 45, 92, 45, 0, -1.5099392427842904, 6.0397569711371615),
    (10.0, "none", "split-merge"): ("converged", 10, 32, 20, 0, -1.5099392430483904, 6.039756972193562),
    (10.0, "none", "lanczos"): ("converged", 20, 43, 20, 0, -1.5099392430676657, 6.039756972270663),
    (100.0, "eigh", "gd"): ("converged", 691, 1384, 0, 0, -12.876482360836032, 51.50576874585234),
    (100.0, "eigh", "pmd"): ("converged", 123, 248, 123, 0, -12.876482359356835, 51.505478417176235),
    (100.0, "eigh", "power"): ("converged", 16, 17, 16, 0, -12.876482360972508, 51.50592944389003),
    (100.0, "eigh", "split-merge"): ("converged", 5, 11, 10, 0, -12.876482360979091, 51.505929443916365),
    (100.0, "eigh", "lanczos"): ("converged", 20, 41, 20, 0, -12.87648236098036, 51.50592944392144),
    (100.0, "none", "gd"): ("converged", 525, 1052, 0, 0, -12.876482292819237, 51.50244081238684),
    (100.0, "none", "pmd"): ("converged", 121, 244, 121, 0, -12.876482358646872, 51.50539031892208),
    (100.0, "none", "power"): ("converged", 11, 24, 11, 0, -12.876482331008289, 51.505929324033154),
    (100.0, "none", "split-merge"): ("converged", 4, 14, 8, 0, -12.87648236058401, 51.50592944233604),
    (100.0, "none", "lanczos"): ("converged", 20, 43, 20, 0, -12.87648236098036, 51.50592944392144),
}


def synthetic(kappa_b):
    pair = gen_synthetic(SyntheticSpec(n=64, kappa_b=kappa_b, seed=0))
    u = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())[1][:, -1]
    return pair, u, np.random.default_rng(1).standard_normal(64)


def grid_pencil(g=10):
    """A = 5-point Laplacian on a g x g grid, B = I + |A| / 16."""
    d2 = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g))
    lap = scipy.sparse.kron(scipy.sparse.eye(g), d2) + \
        scipy.sparse.kron(d2, scipy.sparse.eye(g))
    a = SymmetricMatrix.from_sparse(scipy.sparse.csr_matrix(lap))
    b = SymmetricMatrix.from_sparse(
        scipy.sparse.csr_matrix(scipy.sparse.eye(g * g) + 0.0625 * abs(lap)))
    return MatrixPair(a, b)


def assert_pinned(trace, expected):
    status, iterations, matvecs, solves, pcg_inner, f, lam = expected
    c = trace.counters
    assert (trace.status, trace.iterations, c.matvecs, c.solves, c.pcg_inner) == \
        (status, iterations, matvecs, solves, pcg_inner)
    assert trace.final().f == pytest.approx(f, rel=RTOL, abs=0)
    assert trace.final().lam == pytest.approx(lam, rel=RTOL, abs=0)


@pytest.mark.parametrize("key", sorted(SYNTHETIC), ids=lambda k: f"kb{k[0]:g}-{k[1]}-{k[2]}")
def test_synthetic_trace_is_pinned(key):
    kappa_b, ref, method = key
    pair, u, x0 = synthetic(kappa_b)
    config = SolverConfig(method=method, tol=1e-6, seed=0,
                          reference=u if ref == "eigh" else None)
    assert_pinned(RUNNERS[method](pair, config, x0), SYNTHETIC[key])


def test_restarted_lanczos_trace_is_pinned():
    pair, u, x0 = synthetic(10.0)
    config = SolverConfig(method="lanczos", tol=1e-6, reference=u, lanczos_cycle=5)
    assert_pinned(run_lanczos(pair, config, x0),
                  ("converged", 25, 55, 25, 0, -1.509939243067659, 6.039756972270636))


def test_power_with_pcg_on_grid_pencil_is_pinned():
    pair = grid_pencil()
    u = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())[1][:, -1]
    x0 = np.random.default_rng(2).standard_normal(pair.n)
    solver = LinearSolver.pcg(pair.b, cap=30, tol=1e-10, inner="jacobi")
    config = SolverConfig(method="power", tol=1e-6, reference=u, linear_solver=solver)
    assert_pinned(run_power(pair, config, x0),
                  ("converged", 338, 1430, 338, 1091, -1.9398485990183374, 7.75939439607335))


def test_pmd_with_ic0_metric_on_grid_pencil_is_pinned():
    """pmd in the IC(0) metric of B = 10 x 10 Laplacian + 0.5 I: every
    iteration, and the transformed-bound estimate, go through the sparse
    triangular solves of the incomplete factor."""
    grid = grid_pencil()
    lap = grid.a.dense()
    pair = MatrixPair(grid.b, SymmetricMatrix.from_sparse(
        scipy.sparse.csr_matrix(lap + 0.5 * np.eye(grid.n))))
    u = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())[1][:, -1]
    x0 = np.random.default_rng(2).standard_normal(pair.n)
    config = SolverConfig(method="pmd", tol=1e-6, seed=0, reference=u,
                          preconditioner=build_preconditioner(pair.b, "incomplete-cholesky"))
    trace = run_pmd(pair, config, None, x0)
    assert_pinned(trace, ("converged", 43, 88, 43, 0, -0.5626170667571296, 2.250468265381885))
    assert trace.diagnostics["transformed_bound"] == pytest.approx(
        1.137183612040044, rel=RTOL, abs=0)


@pytest.mark.parametrize("method, lams", [
    ("split-merge", [6.039756972130266, 4.90865096850745, 4.556993929139017]),
    ("pmd", [6.039756972251004, 4.908650968840849, 4.556993929078418]),
])
def test_top_k_eigenvalues_are_pinned(method, lams):
    pair, _, _ = synthetic(10.0)
    got = [lam for lam, _ in top_k(pair, 3, SolverConfig(method=method, tol=1e-6, seed=0))]
    assert got == pytest.approx(lams, rel=RTOL, abs=0)

"""Restarted Lanczos runner: Ritz extraction, drift diagnostic, breakdown."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gepsolve.solvers
from gepsolve import (
    LinearSolver,
    MatrixPair,
    SolverConfig,
    SymmetricMatrix,
    SyntheticSpec,
    gen_synthetic,
    reference_solution,
    run_lanczos,
)
from gepsolve.errors import Breakdown, InputError, NumericalError
from gepsolve.solvers import _top_ritz


def rot_diag(vals, seed):
    rng = np.random.default_rng(seed)
    vals = np.asarray(vals, dtype=np.float64)
    q, _ = np.linalg.qr(rng.standard_normal((vals.size, vals.size)))
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def rand_pair(n, seed, cond_a=50.0, cond_b=10.0):
    a = SymmetricMatrix.from_dense(rot_diag(np.linspace(1.0 / cond_a, 1.0, n), seed))
    b = SymmetricMatrix.from_dense(rot_diag(np.linspace(1.0 / cond_b, 1.0, n), seed + 1))
    return MatrixPair(a, b)


def clustered_pair():
    """Tightly clustered bulk under a separated top value; the classic
    setup where basis orthogonality decays without reorthogonalization."""
    n = 120
    avals = np.concatenate([np.linspace(0.5, 0.6, n - 1), [5.0]])
    a = SymmetricMatrix.from_dense(rot_diag(avals, 3))
    b = SymmetricMatrix.from_dense(rot_diag(np.linspace(0.2, 1.0, n), 4))
    return MatrixPair(a, b)


def top_pair(pair):
    vals, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())
    return float(vals[-1]), vecs[:, -1]


def test_diagonal_pair_exact_after_n_builds():
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag(np.arange(1.0, 9.0))),
                      SymmetricMatrix.from_dense(np.diag(np.linspace(1.0, 2.0, 8))))
    lam, u = top_pair(pair)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-9,
                                           reference=u, max_iterations=100),
                        np.ones(8))
    assert trace.status == "converged"
    assert trace.iterations <= 8
    assert abs(trace.final().lam - lam) <= 1e-10 * lam
    k = trace.iterations
    assert trace.counters.solves == k
    assert trace.counters.matvecs == 1 + 2 * k


def test_start_at_top_eigenvector_converges_in_one_build():
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag(np.arange(1.0, 9.0))),
                      SymmetricMatrix.from_dense(np.diag(np.linspace(1.0, 2.0, 8))))
    _, u = top_pair(pair)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-5,
                                           reference=u, max_iterations=100),
                        u.copy())
    assert trace.status == "converged"
    assert trace.iterations == 1
    assert len(trace.records) == 1
    assert trace.counters.matvecs == 3


def test_breakdown_on_non_top_eigenvector_start():
    # The start spans an invariant subspace without the top eigenvector: the
    # continuation norm vanishes at build 1, and the restart from the Ritz
    # vector plus a random direction outside that subspace finds the top.
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([3.0, 2.0, 1.0])),
                      SymmetricMatrix.from_dense(np.eye(3)))
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-5,
                                           reference=np.array([1.0, 0.0, 0.0]),
                                           max_iterations=100),
                        np.array([0.0, 1.0, 0.0]))
    assert trace.status == "converged"
    assert trace.records[0].k == 1 and trace.records[0].lam == 2.0
    assert trace.final().lam == pytest.approx(3.0, rel=1e-12, abs=0)


def test_breakdown_when_the_basis_spans_the_space():
    # Three builds span R^3, so the Ritz pair is exact yet misses tol 1e-300:
    # no direction is left to restart along.
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([3.0, 2.0, 1.0])),
                      SymmetricMatrix.from_dense(np.eye(3)))
    with pytest.raises(Breakdown):
        run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-300, max_iterations=100),
                    np.ones(3))


def test_vanishing_continuation_with_converged_ritz_is_success():
    # Same zero continuation norm as the breakdown case, but the Ritz pair
    # is the answer, so the run must end converged rather than raise.
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([3.0, 2.0, 1.0])),
                      SymmetricMatrix.from_dense(np.eye(3)))
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-5,
                                           reference=np.array([1.0, 0.0, 0.0]),
                                           max_iterations=100),
                        np.array([1.0, 0.0, 0.0]))
    assert trace.status == "converged"
    assert trace.iterations == 1


def test_single_build_cycles_return_the_rayleigh_quotient():
    # A one-vector basis is a 1x1 tridiagonal: its Ritz value is the
    # Rayleigh quotient of the start, both at a cap of one build and in a
    # last cycle that the cap cuts to one build.
    pair = rand_pair(10, 40)
    x0 = np.random.default_rng(41).standard_normal(10)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-300,
                                           max_iterations=1), x0)
    assert trace.status == "max-iterations"
    assert [r.k for r in trace.records] == [1]
    rq = float(x0 @ pair.a.matvec(x0)) / float(x0 @ pair.b.matvec(x0))
    assert trace.final().lam == pytest.approx(rq, rel=1e-12, abs=0)
    assert trace.final().lam == pytest.approx(1.014926099576347, rel=1e-12, abs=0)

    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-300, max_iterations=7,
                                           lanczos_cycle=3), x0)
    assert trace.status == "max-iterations"
    assert [r.k for r in trace.records] == [3, 6, 7]
    assert len(trace.diagnostics["basis_drift"]) == 3  # the truncated cycle's too
    assert [r.lam for r in trace.records] == pytest.approx(
        [7.115432819992731, 7.129897824055492, 7.129897824055494], rel=1e-12, abs=0)


def test_drift_small_with_reorthogonalization():
    pair = clustered_pair()
    x0 = np.random.default_rng(0).standard_normal(pair.n)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-300,
                                           max_iterations=20), x0)
    assert trace.status == "max-iterations"
    assert len(trace.diagnostics["basis_drift"]) == 1
    assert trace.diagnostics["basis_drift"][0] < 1e-12


def test_random_pair_agrees_with_reference():
    pair = rand_pair(40, 17)
    lam, u = top_pair(pair)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-6,
                                           reference=u, max_iterations=2000),
                        np.random.default_rng(5).standard_normal(40))
    assert trace.status == "converged"
    assert trace.records[-1].sin_theta <= 1e-6
    assert abs(trace.final().lam - lam) <= 1e-8 * lam


def test_reference_free_mode_converges():
    pair = rand_pair(30, 23)
    lam, _ = top_pair(pair)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-8,
                                           max_iterations=2000),
                        np.random.default_rng(9).standard_normal(30))
    assert trace.status == "converged"
    assert trace.criterion == "gradient"
    assert abs(trace.final().lam - lam) <= 1e-6 * lam
    cycles = len(trace.records)
    k = trace.iterations
    assert trace.counters.solves == k
    assert trace.counters.matvecs == 3 * cycles + 2 * k


def test_cycle_length_validation():
    pair = rand_pair(8, 2)
    with pytest.raises(InputError):
        run_lanczos(pair, SolverConfig(method="lanczos", lanczos_cycle=1),
                    np.ones(8))


def test_deterministic():
    pair = rand_pair(24, 41)
    x0 = np.random.default_rng(3).standard_normal(24)
    config = SolverConfig(method="lanczos", tol=1e-8, max_iterations=2000)
    first = run_lanczos(pair, config, x0)
    second = run_lanczos(pair, config, x0)
    assert [r.lam for r in first.records] == [r.lam for r in second.records]
    assert first.diagnostics["basis_drift"] == second.diagnostics["basis_drift"]
    npt.assert_array_equal(first.x, second.x)


def test_vanished_continuation_restarts_on_the_clustered_pencil():
    # The first cycle ends on a Ritz vector that is an eigenvector to
    # rounding, so the cycle started from it vanishes after one build (21)
    # with tol 1e-300 unmet; the run restarts each time instead of raising.
    pair = clustered_pair()
    x0 = np.random.default_rng(0).standard_normal(pair.n)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-300,
                                           max_iterations=45), x0)
    assert trace.status == "max-iterations"
    assert [r.k for r in trace.records] == [20, 21, 41, 42, 45]
    lam = trace.records[0].lam
    assert [r.lam for r in trace.records[:4]] == pytest.approx([lam] * 4, rel=1e-14, abs=0)
    assert max(trace.diagnostics["basis_drift"]) < 1e-12


@pytest.mark.parametrize("start", [0, 1, 2])
def test_pcg_lanczos_restarts_past_a_vanished_continuation(start):
    # PCG capped at 40 steps leaves relative residuals near 1e-4, which hold
    # the Ritz vector at a sine of about 2.75e-6 from the exact eigenvector;
    # at that floor the fourth cycle's continuation vanishes (build 61), and
    # the run restarts and stays near the floor until its cap.
    pair = gen_synthetic(SyntheticSpec(n=128, kappa_b=100.0, seed=1))
    ref = reference_solution(pair)
    config = SolverConfig(method="lanczos", tol=1e-6, reference=ref.u, max_iterations=130,
                          linear_solver=LinearSolver.pcg(pair.b, cap=40))
    trace = run_lanczos(pair, config, np.random.default_rng(start).standard_normal(128))
    assert trace.status == "max-iterations"
    assert [r.k for r in trace.records][:4] == [20, 40, 60, 61]
    assert trace.iterations == 130
    assert trace.counters.pcg_capped > 0
    assert all(r.sin_theta < 3e-6 for r in trace.records[2:])
    assert trace.final().lam == pytest.approx(ref.lam, rel=1e-7, abs=0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 30))
def test_ritz_step_is_eigh_tridiagonal_bitwise(data, m):
    """The direct dstebz/dstein pair gives eigh_tridiagonal's bytes, for
    the value and the vector, zero off-diagonals (split blocks) included."""
    alphas = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))
    betas = data.draw(st.lists(st.floats(0.0, 1e3), min_size=m - 1, max_size=m - 1))
    theta, vec = _top_ritz(alphas, betas)
    evals, vecs = scipy.linalg.eigh_tridiagonal(
        alphas, betas, select="i", select_range=(m - 1, m - 1))
    assert type(theta) is float
    assert np.float64(theta).tobytes() == evals.tobytes()
    assert vec.tobytes() == vecs[:, 0].tobytes()


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_ritz_step_lapack_failure_raises(monkeypatch, routine):
    real = getattr(gepsolve.solvers, routine)
    monkeypatch.setattr(gepsolve.solvers, routine, lambda *args: (*real(*args)[:-1], 3))
    pair = rand_pair(16, 0)
    with pytest.raises(NumericalError, match="info 3"):
        run_lanczos(pair, SolverConfig(method="lanczos"), np.ones(pair.n))

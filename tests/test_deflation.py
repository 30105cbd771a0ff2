"""Rank-one deflation operator and the staged top-k driver."""

import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import gepsolve.solvers
from gepsolve import (
    DeflatedOperator,
    MatrixPair,
    SolverConfig,
    SymmetricMatrix,
    SyntheticSpec,
    build_preconditioner,
    deflate,
    gen_synthetic,
    run_split_merge,
    top_k,
    transformed_dominant_eigenvalue,
    validate_pair,
)
from gepsolve.errors import DimensionMismatch, NotNormalized, StageFailure


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


def gen_spectrum(pair):
    vals, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())
    return vals, vecs


# ---------------------------------------------------------------------------
# The deflation operator


def test_deflate_diagonal_example():
    a = SymmetricMatrix.from_dense(np.diag([4.0, 1.0]))
    b = SymmetricMatrix.from_dense(np.eye(2))
    op = deflate(a, b, np.array([1.0, 0.0]))
    npt.assert_allclose(op.dense(), np.diag([0.0, 1.0]), atol=1e-15)
    npt.assert_allclose(op.matvec(np.array([3.0, 5.0])), np.array([0.0, 5.0]),
                        atol=1e-15)


def test_deflate_requires_b_normalization():
    a = SymmetricMatrix.from_dense(np.diag([4.0, 1.0]))
    b = SymmetricMatrix.from_dense(np.diag([1.0, 2.0]))
    with pytest.raises(NotNormalized):
        deflate(a, b, np.array([1.0, 1.0]))
    # e2 has b-norm sqrt(2); scaling it down passes
    u = np.array([0.0, 1.0]) / np.sqrt(2.0)
    op = deflate(a, b, u)
    assert op.n == 2


def test_deflate_moves_top_eigenvalue_to_zero():
    pair = rand_pair(6, 10)
    vals, vecs = gen_spectrum(pair)
    u = vecs[:, -1]  # scipy returns b-normalized generalized eigenvectors
    op = deflate(pair.a, pair.b, u)
    got = scipy.linalg.eigh(op.dense(), pair.b.dense(), eigvals_only=True)
    want = np.sort(np.concatenate([vals[:-1], [0.0]]))
    npt.assert_allclose(got, want, atol=1e-8 * float(np.max(np.abs(vals))))


def test_deflate_twice_removes_two_eigenvalues():
    pair = rand_pair(6, 11)
    vals, vecs = gen_spectrum(pair)
    op = deflate(pair.a, pair.b, vecs[:, -1])
    op = deflate(op, pair.b, vecs[:, -2])
    assert op.depth == 2
    got = scipy.linalg.eigh(op.dense(), pair.b.dense(), eigvals_only=True)
    want = np.sort(np.concatenate([vals[:-2], [0.0, 0.0]]))
    npt.assert_allclose(got, want, atol=1e-8 * float(np.max(np.abs(vals))))


def test_deflate_annihilates_accepted_directions():
    pair = rand_pair(8, 12)
    _, vecs = gen_spectrum(pair)
    norm_a = float(np.linalg.norm(pair.a.dense(), 2))
    op = pair.a
    accepted = []
    for j in (7, 6, 5):
        accepted.append(vecs[:, j])
        op = deflate(op, pair.b, vecs[:, j])
        for u in accepted:
            assert float(np.linalg.norm(op.matvec(u))) <= 1e-9 * norm_a


def test_deflate_matvec_matches_dense():
    pair = rand_pair(7, 13)
    _, vecs = gen_spectrum(pair)
    op = deflate(pair.a, pair.b, vecs[:, -1])
    rng = np.random.default_rng(0)
    dense = op.dense()
    for _ in range(10):
        x = rng.standard_normal(7)
        npt.assert_allclose(op.matvec(x), dense @ x, rtol=1e-12, atol=1e-13)


def test_deflated_matvec_rejects_a_vector_of_another_shape():
    """A wrong-shaped vector raises DimensionMismatch, a GepSolveError, where
    the rank-one corrections would raise f2py's own error; a list still
    gives the array's bytes."""
    pair = rand_pair(8, 13)
    _, vecs = gen_spectrum(pair)
    op = deflate(pair.a, pair.b, vecs[:, -1])
    for x in (np.ones(9), np.ones(7), np.ones((8, 2))):
        with pytest.raises(DimensionMismatch):
            op.matvec(x)
    x = np.random.default_rng(1).standard_normal(8)
    assert op.matvec(x.tolist()).tobytes() == op.matvec(x).tobytes()
    from_list = deflate(pair.a, pair.b, vecs[:, -1].tolist())
    assert from_list.matvec(x).tobytes() == op.matvec(x).tobytes()


def test_validate_pair_materializes_a_deflated_a_once(monkeypatch):
    pair = rand_pair(6, 15)
    _, vecs = gen_spectrum(pair)
    real = DeflatedOperator.dense
    calls = []

    def counted(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(DeflatedOperator, "dense", counted)
    diag = validate_pair(MatrixPair(deflate(pair.a, pair.b, vecs[:, -1]), pair.b))
    assert diag.route == "dense-eigensolver"
    assert calls == [6]


def test_deflated_operator_counts_base_matvecs():
    from gepsolve import Counters

    pair = rand_pair(5, 14)
    _, vecs = gen_spectrum(pair)
    op = deflate(pair.a, pair.b, vecs[:, -1])
    counters = Counters()
    op.matvec(np.ones(5), counters)
    assert counters.matvecs == 1


# ---------------------------------------------------------------------------
# Staged top-k extraction


def test_top_k_base_case_matches_single_run():
    pair = rand_pair(10, 20)
    config = SolverConfig(method="split-merge", tol=1e-8, max_iterations=2000)
    x0 = np.random.default_rng(1).standard_normal(10)
    got = top_k(pair, 1, config, x0)
    trace = run_split_merge(pair, config, x0)
    bnorm = np.sqrt(float(trace.x @ pair.b.matvec(trace.x)))
    assert len(got) == 1
    npt.assert_array_equal(got[0][1], trace.x / bnorm)
    assert got[0][0] == pytest.approx(float(got[0][1] @ pair.a.matvec(got[0][1])),
                                      rel=1e-14)


def test_top_k_full_spectrum_eight_by_eight():
    pair = rand_pair(8, 21)
    vals, _ = gen_spectrum(pair)
    config = SolverConfig(method="split-merge", tol=1e-8, max_iterations=5000, seed=3)
    got = top_k(pair, 8, config)
    lams = np.array([lam for lam, _ in got])
    assert np.all(np.diff(lams) <= 1e-10)
    npt.assert_allclose(lams, vals[::-1], rtol=0, atol=1e-6 * float(vals[-1]))


def test_top_k_vectors_are_b_orthonormal():
    pair = rand_pair(12, 22)
    config = SolverConfig(method="split-merge", tol=1e-8, max_iterations=5000, seed=5)
    got = top_k(pair, 5, config)
    basis = np.column_stack([u for _, u in got])
    gram = basis.T @ pair.b.dense() @ basis
    npt.assert_allclose(gram, np.eye(5), atol=1e-8)


def test_top_k_directions_match_reference():
    pair = rand_pair(9, 23)
    vals, vecs = gen_spectrum(pair)
    config = SolverConfig(method="split-merge", tol=1e-7, max_iterations=5000, seed=7)
    got = top_k(pair, 3, config)
    for i, (lam, u) in enumerate(got):
        ref = vecs[:, -(i + 1)]
        cos = abs(float(u @ pair.b.dense() @ ref))
        assert np.sqrt(max(0.0, 1.0 - cos * cos)) <= 1e-5
        assert abs(lam - vals[-(i + 1)]) <= 1e-6 * float(vals[-1])


def test_top_k_stage_failure_carries_partials():
    # Big gap to the top pair, nearly degenerate below it: the first stage
    # converges fast, the second cannot within the cap.
    a = SymmetricMatrix.from_dense(np.diag([10.0, 1.01, 1.0]))
    b = SymmetricMatrix.from_dense(np.eye(3))
    pair = MatrixPair(a, b)
    config = SolverConfig(method="power", tol=1e-5, max_iterations=200, seed=0)
    with pytest.raises(StageFailure) as info:
        top_k(pair, 3, config)
    err = info.value
    assert err.stage == 2
    assert len(err.pairs) == 1
    assert err.pairs[0][0] == pytest.approx(10.0, rel=1e-4)


def test_top_k_range_validation():
    pair = rand_pair(6, 24)
    config = SolverConfig(method="split-merge")
    with pytest.raises(DimensionMismatch):
        top_k(pair, 0, config)
    with pytest.raises(DimensionMismatch):
        top_k(pair, 7, config)


def test_top_k_deterministic():
    pair = rand_pair(10, 25)
    config = SolverConfig(method="split-merge", tol=1e-8, max_iterations=5000, seed=11)
    first = top_k(pair, 4, config)
    second = top_k(pair, 4, config)
    assert [lam for lam, _ in first] == [lam for lam, _ in second]
    for (_, u1), (_, u2) in zip(first, second):
        npt.assert_array_equal(u1, u2)


def test_top_k_other_methods_agree():
    # The staged driver is method-agnostic; gd and lanczos stages land on
    # the same leading pairs as split-merge.
    pair = rand_pair(8, 26, cond_a=10.0, cond_b=4.0)
    vals, _ = gen_spectrum(pair)
    for method in ("gd", "lanczos"):
        config = SolverConfig(method=method, tol=1e-7, max_iterations=20000, seed=2)
        got = top_k(pair, 2, config)
        lams = [lam for lam, _ in got]
        npt.assert_allclose(lams, vals[::-1][:2], rtol=0,
                            atol=1e-5 * float(vals[-1]))


def test_top_k_pmd_estimates_the_transformed_bound_once(monkeypatch):
    """B and the metric do not change between stages, so neither does the
    bound; the stage eigenvalues are those of a per-stage estimate."""
    bounds = []

    def counted(b, p):
        bounds.append(transformed_dominant_eigenvalue(b, p))
        return bounds[-1]

    monkeypatch.setattr(gepsolve.solvers, "transformed_dominant_eigenvalue", counted)
    pair = gen_synthetic(SyntheticSpec(n=128, kappa_b=10.0, seed=0))
    config = SolverConfig(method="pmd", tol=1e-6, seed=0,
                          preconditioner=build_preconditioner(pair.b, "diagonal"))
    lams = [lam for lam, _ in top_k(pair, 4, config)]
    assert bounds == [pytest.approx(1.8542976099281945, rel=1e-12)]
    assert lams == pytest.approx([5.781358715214289, 5.548403712873271,
                                  4.797243940241131, 4.671534000377313], rel=1e-12, abs=0)


def count_calls(monkeypatch, name):
    """Wrap every gepsolve module's binding of ``name`` in a call counter."""
    calls = []
    modules = [m for key, m in sys.modules.items()
               if key.startswith("gepsolve") and hasattr(m, name)]
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("method", ["power", "split-merge", "lanczos"])
def test_top_k_factors_b_once(monkeypatch, method):
    """Every stage solves with the same B, so one factorization serves all."""
    pair = gen_synthetic(SyntheticSpec(n=32, kappa_b=10.0, seed=0))
    calls = count_calls(monkeypatch, "cholesky_factorize")
    got = top_k(pair, 4, SolverConfig(method=method, tol=1e-6, seed=0))
    assert len(got) == 4
    assert len(calls) == 1


def test_top_k_gd_estimates_the_curvature_bound_once(monkeypatch):
    pair = gen_synthetic(SyntheticSpec(n=32, kappa_b=10.0, seed=0))
    calls = count_calls(monkeypatch, "estimate_curvature_bound")
    got = top_k(pair, 4, SolverConfig(method="gd", tol=1e-6, seed=0))
    assert len(got) == 4
    assert len(calls) == 1

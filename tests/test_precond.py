"""Preconditioner kinds, gram-inverse application, and quality metrics."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse

from gepsolve import (
    LinearSolver,
    SymmetricMatrix,
    apply_gram_inverse,
    build_preconditioner,
    solve_spd,
    transformed_dominant_eigenvalue,
)
from gepsolve.errors import DimensionMismatch, ZeroDiagonal
from gepsolve.linalg import Counters

KINDS = ("cholesky", "diagonal", "incomplete-cholesky", "identity")


def rand_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(1.0 / cond, 1.0, n)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def grid_matrix(side):
    n = side * side
    main = 4.0 * np.ones(n)
    east = np.ones(n - 1)
    east[np.arange(1, n) % side == 0] = 0.0
    south = np.ones(n - side)
    m = scipy.sparse.diags_array(
        [main, east, east, south, south], offsets=[0, 1, -1, side, -side],
        format="csr")
    return SymmetricMatrix.from_sparse(m)


# ---------------------------------------------------------------------------
# Construction


def test_identity_matrix_gives_identity_map():
    b = SymmetricMatrix.from_dense(np.eye(4))
    rng = np.random.default_rng(60)
    x = rng.standard_normal(4)
    for kind in KINDS:
        p = build_preconditioner(b, kind)
        npt.assert_allclose(p.apply(x), x, rtol=0, atol=1e-14)
        npt.assert_allclose(p.apply_inverse(x), x, rtol=0, atol=1e-14)


def test_diagonal_kind_square_roots():
    b = SymmetricMatrix.from_dense(np.diag([4.0, 9.0]))
    p = build_preconditioner(b, "diagonal")
    npt.assert_array_equal(p.scale, np.array([2.0, 3.0]))
    npt.assert_array_equal(np.diag(p.scale * p.scale), b.dense())


def test_cholesky_kind_reproduces_b():
    for b in (SymmetricMatrix.from_dense(rand_spd(18, 61)),
              SymmetricMatrix.from_sparse(scipy.sparse.csr_array(rand_spd(18, 61))),
              grid_matrix(16)):
        p = build_preconditioner(b, "cholesky")
        l = p.factor.lower()
        assert np.linalg.norm(l @ l.T - b.dense()) <= 1e-12 * np.linalg.norm(b.dense())


def test_diagonal_kind_rejects_zero_diagonal():
    b = SymmetricMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ZeroDiagonal):
        build_preconditioner(b, "diagonal")


def test_unknown_kind_rejected():
    b = SymmetricMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError):
        build_preconditioner(b, "banded")


# ---------------------------------------------------------------------------
# Gram-inverse application


def test_gram_inverse_identity_kind():
    b = SymmetricMatrix.from_dense(rand_spd(5, 62))
    p = build_preconditioner(b, "identity")
    g = np.arange(5, dtype=np.float64)
    npt.assert_array_equal(apply_gram_inverse(p, g), g)


def test_gram_inverse_diagonal_kind():
    b = SymmetricMatrix.from_dense(np.diag([4.0, 9.0]))
    p = build_preconditioner(b, "diagonal")
    npt.assert_allclose(apply_gram_inverse(p, np.array([4.0, 9.0])),
                        np.ones(2), rtol=0, atol=1e-15)


def test_gram_inverse_cholesky_matches_exact_solve():
    """With the exact factor the gram inverse is a full solve by B."""
    b = SymmetricMatrix.from_dense(rand_spd(22, 63))
    p = build_preconditioner(b, "cholesky")
    solver = LinearSolver.exact(b)
    rng = np.random.default_rng(64)
    for _ in range(5):
        g = rng.standard_normal(22)
        got = apply_gram_inverse(p, g)
        want = solve_spd(solver, b, g)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_gram_inverse_reconstructs_b_action():
    b = SymmetricMatrix.from_dense(rand_spd(15, 65))
    p = build_preconditioner(b, "cholesky")
    rng = np.random.default_rng(66)
    g = rng.standard_normal(15)
    back = b.matvec(apply_gram_inverse(p, g))
    assert np.linalg.norm(back - g) <= 1e-9 * np.linalg.norm(g)


def test_gram_inverse_counts_factor_solves_only():
    b = SymmetricMatrix.from_dense(rand_spd(6, 67))
    g = np.ones(6)
    for kind, solves in (("cholesky", 1), ("incomplete-cholesky", 1),
                         ("diagonal", 0), ("identity", 0)):
        counters = Counters()
        apply_gram_inverse(build_preconditioner(b, kind), g, counters)
        assert counters.solves == solves, kind


def test_gram_inverse_dimension_mismatch():
    b = SymmetricMatrix.from_dense(np.eye(3))
    p = build_preconditioner(b, "identity")
    with pytest.raises(DimensionMismatch):
        apply_gram_inverse(p, np.ones(4))


# ---------------------------------------------------------------------------
# Quality metrics


def test_transformed_eigenvalue_cholesky_is_one():
    for trial in range(5):
        b = SymmetricMatrix.from_dense(rand_spd(13, 2100 + trial))
        p = build_preconditioner(b, "cholesky")
        assert abs(transformed_dominant_eigenvalue(b, p) - 1.0) <= 1e-4


def test_transformed_eigenvalue_identity_is_plain_dominant():
    b_dense = rand_spd(14, 69, cond=8.0)
    b = SymmetricMatrix.from_dense(b_dense)
    p = build_preconditioner(b, "identity")
    lam1 = np.linalg.eigvalsh(b_dense)[-1]
    est = transformed_dominant_eigenvalue(b, p)
    assert 0.99 * lam1 <= est <= 1.02 * lam1


def test_transformed_eigenvalue_diagonal_matches_reference():
    for trial in range(6):
        b_dense = rand_spd(12, 2200 + trial, cond=25.0)
        b = SymmetricMatrix.from_dense(b_dense)
        p = build_preconditioner(b, "diagonal")
        d = np.sqrt(np.diagonal(b_dense))
        transformed = b_dense / np.outer(d, d)
        lam1 = np.linalg.eigvalsh(transformed)[-1]
        est = transformed_dominant_eigenvalue(b, p)
        assert abs(est - lam1) <= 0.02 * lam1


def test_ichol_kind_tames_grid_conditioning():
    """The zero-fill factor shrinks the spread of P^{-T} B P^{-1} on a grid
    operator even though the factorization is inexact."""
    b = grid_matrix(16)
    p = build_preconditioner(b, "incomplete-cholesky")
    l = p.factor.lower()
    assert np.linalg.norm(b.dense() - l @ l.T) > 0.0
    b_dense = b.dense()
    cols = np.empty((b.n, b.n))
    for j in range(b.n):
        cols[:, j] = p.apply_inverse_t(b_dense @ p.apply_inverse(np.eye(b.n)[:, j]))
    transformed = 0.5 * (cols + cols.T)
    w_pre = np.linalg.eigvalsh(transformed)
    w_raw = np.linalg.eigvalsh(b_dense)
    assert w_pre[-1] / w_pre[0] < w_raw[-1] / w_raw[0]

"""Matrix storage, Cholesky and IC(0) factorizations, PCG, and matrix I/O."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import daxpy, dsymv
from scipy.linalg.lapack import dpotri

from gepsolve import (
    CholeskyFactor,
    Counters,
    LinearSolver,
    MatrixPair,
    SolverConfig,
    SymmetricMatrix,
    SyntheticSpec,
    apply_gram_inverse,
    build_preconditioner,
    check_stopping,
    cholesky_factorize,
    deflate,
    gen_synthetic,
    incomplete_cholesky,
    jacobi_eigh,
    read_dense_text,
    read_matrix_market,
    reference_solution,
    solve,
    solve_spd,
    top_k,
    validate_pair,
    write_dense_text,
    write_matrix_market,
)
from gepsolve.errors import (
    AsymmetricEntries,
    DimensionMismatch,
    InputError,
    NonFiniteEntries,
    NotPositiveDefinite,
    NotSquare,
    NumericalError,
    ParseError,
    PcgBreakdown,
    StaleFactor,
    ZeroDiagonal,
)
from gepsolve import linalg, precond
from gepsolve.cli import main
from gepsolve.linalg import diagonal_congruence, dominant_eigenvalue
from gepsolve.solvers import METHODS


def rand_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(1.0 / cond, 1.0, n)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def wrong_shapes(n):
    """Arguments that are not one vector of order n: longer, shorter, 2-d, 0-d."""
    return (np.ones(n + 1), np.ones(n - 1), np.ones((1, n)), np.ones((n, 1)), np.float64(1.0))


def grid_laplacian(side):
    """Five-point stencil on a side x side grid, shifted to be positive
    definite (pure Neumann-free Dirichlet interior stencil)."""
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
# SymmetricMatrix construction and application


def test_from_dense_rejects_nonsquare():
    with pytest.raises(NotSquare):
        SymmetricMatrix.from_dense(np.ones((2, 3)))


def test_from_dense_rejects_asymmetric():
    with pytest.raises(AsymmetricEntries):
        SymmetricMatrix.from_dense(np.array([[1.0, 2.0], [0.5, 1.0]]))


@pytest.mark.parametrize("i, j, value", [(0, 1, np.nan), (1, 1, np.inf)])
def test_from_dense_rejects_non_finite(i, j, value):
    # a NaN symmetry gap compares false against the tolerance
    a = rand_spd(4, 3)
    a[i, j] = a[j, i] = value
    with pytest.raises(NonFiniteEntries):
        SymmetricMatrix.from_dense(a)


def test_from_sparse_rejects_non_finite():
    a = rand_spd(4, 3)
    a[2, 0] = a[0, 2] = np.nan
    with pytest.raises(NonFiniteEntries):
        SymmetricMatrix.from_sparse(scipy.sparse.csr_array(a))


def test_from_lower_entries_rejects_non_finite():
    with pytest.raises(NonFiniteEntries):
        SymmetricMatrix.from_lower_entries(2, [0, 1, 1], [0, 0, 1], [2.0, np.nan, 3.0])


def test_from_dense_symmetrizes_roundoff():
    base = rand_spd(8, 0)
    bumped = base.copy()
    bumped[0, 1] += 1e-14 * base[0, 1]
    m = SymmetricMatrix.from_dense(bumped)
    d = m.dense()
    npt.assert_array_equal(d, d.T)


@pytest.mark.parametrize("build", [SymmetricMatrix.from_dense,
                                   lambda a: SymmetricMatrix.from_sparse(scipy.sparse.csr_array(a))],
                         ids=["dense", "csr"])
def test_symmetrizing_keeps_huge_finite_entries_finite(build):
    """(M + M') / 2 overflows above about 8.99e307: there each entry is halved
    first, and every other entry keeps the halved sum's bits, subnormals too."""
    tiny = 5e-324  # halving it first would give 0.0
    big = 1.7e308
    a = np.array([[1e308, big, tiny, 0.0],
                  [big, 1.0, 0.0, big],
                  [tiny, 0.0, -1e308, 0.0],
                  [0.0, np.nextafter(big, np.inf), 0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = build(a).dense()
    want = a.copy()
    want[1, 3] = want[3, 1] = big / 2.0 + np.nextafter(big, np.inf) / 2.0
    assert np.isfinite(want[1, 3])
    assert d.tobytes() == want.tobytes()
    assert np.array_equal(d, d.T)


def test_matvec_identity():
    m = SymmetricMatrix.from_dense(np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    npt.assert_array_equal(m.matvec(x), x)


def test_matvec_diagonal():
    m = SymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    npt.assert_array_equal(m.matvec(np.ones(3)), np.array([1.0, 2.0, 3.0]))


def test_matvec_sparse_matches_dense():
    rng = np.random.default_rng(11)
    for trial in range(5):
        dense = rand_spd(30, 100 + trial)
        dense[np.abs(dense) < 0.02] = 0.0
        dense = 0.5 * (dense + dense.T)
        m = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(dense))
        x = rng.standard_normal(30)
        npt.assert_allclose(m.matvec(x), m.dense() @ x, rtol=0, atol=1e-13)


def test_matvec_counts():
    m = SymmetricMatrix.from_dense(np.eye(4))
    counters = Counters()
    for _ in range(7):
        m.matvec(np.ones(4), counters)
    assert counters.matvecs == 7
    assert counters.solves == 0


def test_matvec_dimension_mismatch():
    """Both storage kinds take one vector of their order: a longer, shorter,
    two-dimensional or zero-dimensional argument raises DimensionMismatch."""
    for m in (SymmetricMatrix.from_dense(np.eye(3)),
              SymmetricMatrix.from_sparse(scipy.sparse.eye_array(3, format="csr"))):
        for x in wrong_shapes(3):
            with pytest.raises(DimensionMismatch):
                m.matvec(x)


def test_fingerprint_storage_independent():
    dense = rand_spd(12, 3)
    dense[np.abs(dense) < 0.05] = 0.0
    dense = 0.5 * (dense + dense.T)
    a = SymmetricMatrix.from_dense(dense)
    b = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(dense))
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_sees_a_last_digit_change():
    """A fingerprint digests exact entries: a one-ulp change in one stored
    entry makes a different fingerprint in either storage kind, and a solver
    built for the old matrix refuses the new one."""
    base = rand_spd(10, 4)
    changed = base.copy()
    changed[2, 3] = changed[3, 2] = np.nextafter(base[2, 3], np.inf)
    for build in (SymmetricMatrix.from_dense,
                  lambda d: SymmetricMatrix.from_sparse(scipy.sparse.csr_array(d))):
        a, b = build(base), build(changed)
        assert a.fingerprint() != b.fingerprint()
        assert build(base.copy()).fingerprint() == a.fingerprint()
        for solver in (LinearSolver.exact(a), LinearSolver.pcg(a)):
            solve_spd(solver, build(base.copy()), np.ones(10))
            with pytest.raises(StaleFactor):
                solve_spd(solver, b, np.ones(10))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       how=st.sampled_from(["ulp", "negate", "zero"]))
def test_fingerprint_follows_the_stored_entries(n, density, seed, how):
    """Dense and CSR storage of bit-equal entries share a fingerprint; a
    change to any one stored entry gives another one."""
    rng = np.random.default_rng(seed)
    low = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < density))
    full = low + np.tril(low, -1).T
    i = int(rng.integers(n))
    j = int(rng.integers(i + 1))
    changed = full.copy()
    old = full[i, j]
    new = (1.0 if old == 0.0 else np.nextafter(old, np.inf) if how == "ulp"
           else -old if how == "negate" else 0.0)
    changed[i, j] = changed[j, i] = new
    prints = []
    for m in (full, changed):
        d = SymmetricMatrix.from_dense(m)
        s = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(m))
        assert d.fingerprint() == s.fingerprint()
        prints.append(d.fingerprint())
    assert prints[0] != prints[1]


def test_fingerprint_sees_real_changes():
    base = rand_spd(10, 5)
    changed = base.copy()
    changed[2, 3] = changed[3, 2] = changed[2, 3] + 0.01
    a = SymmetricMatrix.from_dense(base)
    b = SymmetricMatrix.from_dense(changed)
    assert a.fingerprint() != b.fingerprint()


# ---------------------------------------------------------------------------
# Cholesky factorization


def test_cholesky_identity():
    f = cholesky_factorize(SymmetricMatrix.from_dense(np.eye(2)))
    npt.assert_array_equal(f.lower(), np.eye(2))


def test_cholesky_diagonal():
    f = cholesky_factorize(SymmetricMatrix.from_dense(np.diag([4.0, 9.0])))
    npt.assert_allclose(f.lower(), np.diag([2.0, 3.0]), rtol=0, atol=0)


def test_cholesky_reconstructs():
    b = rand_spd(20, 7)
    f = cholesky_factorize(SymmetricMatrix.from_dense(b))
    l = f.lower()
    err = np.linalg.norm(l @ l.T - b) / np.linalg.norm(b)
    assert err <= 1e-12


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize(SymmetricMatrix.from_dense(np.diag([1.0, -1.0])))


def test_cholesky_rejects_tiny_pivot():
    """A pivot below the relative floor signals a numerically singular B."""
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize(SymmetricMatrix.from_dense(np.diag([1.0, 1e-16])))


def test_cholesky_is_computed_once_and_kept_with_the_matrix(factorizations):
    b = SymmetricMatrix.from_dense(rand_spd(6, 4))
    factor = b.cholesky()
    assert b.cholesky() is factor
    assert factorizations == [6]
    npt.assert_array_equal(factor.lower(), cholesky_factorize(b).lower())


def test_cholesky_failure_is_kept_and_raised_again(factorizations):
    """On an indefinite B two calls make one attempt, and both raise."""
    b = SymmetricMatrix.from_dense(np.diag([1.0, -1.0]))
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            b.cholesky()
    assert factorizations == [2]


def dirichlet_grid(side, shift):
    """The 5-point Dirichlet Laplacian on a side x side grid plus shift * I, as CSR."""
    t = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(side, side))
    eye = scipy.sparse.eye_array(side)
    return (scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)
            + shift * scipy.sparse.eye_array(side * side)).tocsr()


@st.composite
def sparse_spd(draw):
    """A random sparse SPD matrix of order 1-40 (diagonally dominant), or a
    randomly renumbered shifted grid Laplacian, as a dense array."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        side = draw(st.integers(1, 6))
        m = dirichlet_grid(side, draw(st.floats(1e-3, 2.0))).toarray()
        order = rng.permutation(side * side)
        return m[order][:, order]
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.5))
    low = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < density), -1)
    sym = low + low.T
    return sym + np.diag(np.abs(sym).sum(axis=1) + rng.uniform(0.1, 2.0, n))


@settings(max_examples=80, deadline=None)
@given(dense=sparse_spd())
def test_permuted_sparse_factor_reproduces_b_and_inverts_its_triangles(dense):
    """For a CSR B, lower() = Pi L^ with P = lower()': P'P = B, P^-1 P = I and
    P^-T P' = I, and solve() agrees with the dense factor of the same entries."""
    n = dense.shape[0]
    b = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(dense))
    f = cholesky_factorize(b)
    assert f.kind == "sparse"
    l = f.lower()
    eye = np.eye(n)
    assert np.linalg.norm(l @ l.T - dense) <= 1e-12 * np.linalg.norm(dense)
    p_inv_p = np.column_stack([f.solve_upper(col) for col in l])  # P's columns: L's rows
    p_inv_t_pt = np.column_stack([f.solve_lower(col) for col in l.T])
    for got in (p_inv_p, p_inv_t_pt):
        assert np.linalg.norm(got - eye) <= 1e-12 * np.sqrt(n)
    x = np.random.default_rng(n).standard_normal(n)
    npt.assert_allclose(f.apply_upper(x), l.T @ x, rtol=0,
                        atol=1e-12 * np.abs(l).max() * np.abs(x).sum())
    want = cholesky_factorize(SymmetricMatrix.from_dense(dense)).solve(x)
    assert np.linalg.norm(f.solve(x) - want) <= 1e-12 * np.linalg.norm(want)


def _neumann_grid(side):
    """The graph Laplacian of a side x side grid: singular, null vector ones."""
    path = scipy.sparse.diags_array([1.0, 1.0], offsets=[-1, 1], shape=(side, side))
    eye = scipy.sparse.eye_array(side)
    adj = scipy.sparse.kron(eye, path) + scipy.sparse.kron(path, eye)
    return (scipy.sparse.diags_array(adj.sum(axis=1)) - adj).tocsr()


def _zero_diagonal_grid():
    m = dirichlet_grid(16, 0.5).tolil()
    m[37, 37] = 0.0
    return m.tocsr()


@pytest.mark.parametrize("make", [
    lambda: dirichlet_grid(16, -0.5), _zero_diagonal_grid,
    lambda: scipy.sparse.csr_array(np.array([[0.0, 2.0], [2.0, 0.0]])),
    lambda: _neumann_grid(16), lambda: scipy.sparse.csr_array(np.diag([1.0, 0.0, 2.0]))],
    ids=["indefinite", "zero-diagonal", "zero-diagonal-swap", "singular", "empty-column"])
def test_sparse_and_dense_factors_reject_the_same_b(make):
    """An indefinite B, a B with a zero diagonal entry and a singular B are
    not positive definite for the CSR factor, as for the dense factor of the
    same entries. On [[0, 2], [2, 0]] SuperLU pivots off the diagonal, to
    positive pivots of a factor that is not B's Cholesky factor."""
    m = make()
    for b in (SymmetricMatrix.from_sparse(m), SymmetricMatrix.from_dense(m.toarray())):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factorize(b)


def test_sparse_cholesky_never_densifies_b(monkeypatch):
    b = SymmetricMatrix.from_sparse(dirichlet_grid(12, 0.5))

    def refuse(*args, **kwargs):
        raise AssertionError("a CSR B was densified")

    for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array, scipy.sparse.coo_array):
        monkeypatch.setattr(cls, "toarray", refuse)
    monkeypatch.setattr(SymmetricMatrix, "dense", refuse)
    f = b.cholesky()
    assert f.kind == "sparse"
    r = np.random.default_rng(5).standard_normal(b.n)
    assert np.linalg.norm(b.matvec(f.solve(r)) - r) <= 1e-13 * np.linalg.norm(r)


@pytest.mark.parametrize("n", [1, 2, 64, 256])
def test_dense_triangular_solves_match_solve_triangular_bitwise(n):
    """Each dense substitution gives solve_triangular's bits, and ``solve``
    gives those of one dsymv on dpotri's inverse from L', for contiguous,
    strided and integer right-hand sides; none writes the rhs or L."""
    f = cholesky_factorize(SymmetricMatrix.from_dense(rand_spd(n, 40 + n)))
    assert f.kind == "dense"
    l = f.lower()
    inverse = dpotri(l.T)[0]
    rng = np.random.default_rng(n)
    wide = rng.standard_normal(2 * n)
    rhs_kinds = [rng.standard_normal(n), wide[::2],
                 [int(v) for v in rng.integers(-9, 10, size=n)]]
    for rhs in rhs_kinds:
        before = np.array(rhs, dtype=np.float64)
        y = scipy.linalg.solve_triangular(l, rhs, lower=True)
        x = scipy.linalg.solve_triangular(l, rhs, lower=True, trans="T")
        xy = dsymv(1.0, inverse, rhs, lower=0)
        for method, want in ((f.solve_lower, y), (f.solve_upper, x), (f.solve, xy)):
            got = method(rhs)
            assert np.array_equal(got, want)
            assert np.array_equal(np.asarray(rhs, dtype=np.float64), before)
            assert np.array_equal(f.lower(), l)


# C in the bound n u kappa(B) C on the relative gap between a dense solve and
# cho_solve. Measured at most 1.85 over 8,000 random solves, at n = 1 (0.30
# for n >= 2); at n = 1 the three roundings of 1/l^2 times r against the two
# of r/l/l allow up to 5.
SOLVE_GAP_C = 6.0


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 80), log_kappa=st.floats(0.0, 10.0),
       spectrum=st.sampled_from(["geometric", "one-low", "one-high"]),
       log_scale=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_dense_solve_forward_error_is_kappa_u(n, log_kappa, spectrum, log_scale, seed):
    """Multiplying by the cached inverse has the forward error of the two
    substitutions, kappa(B) u up to a factor of n (Higham, Accuracy and
    Stability of Numerical Algorithms, §14.1): it stays within SOLVE_GAP_C
    n u kappa(B) of scipy's cho_solve, for right-hand sides of every
    direction and for B's images, whose solutions lie along B's top."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    low = 10.0 ** -log_kappa
    vals = {"geometric": np.logspace(-log_kappa, 0.0, n),
            "one-low": np.append(low, np.ones(n - 1)),
            "one-high": np.append(np.full(n - 1, low), 1.0)}[spectrum]
    m = (q * (vals * 10.0 ** log_scale)) @ q.T
    b = SymmetricMatrix.from_dense(0.5 * (m + m.T))
    f = cholesky_factorize(b)
    kappa = np.linalg.cond(b.dense())
    for r in (rng.standard_normal(n), b.matvec(rng.standard_normal(n))):
        want = scipy.linalg.cho_solve((f.lower(), True), r)
        gap = np.linalg.norm(f.solve(r) - want) / np.linalg.norm(want)
        assert gap <= SOLVE_GAP_C * n * np.finfo(float).eps / 2 * kappa


def test_dense_solve_rejects_a_rhs_of_another_shape():
    """A dense solve takes one vector of the factor's order: dsymv would read
    the first n entries of a longer or two-dimensional right-hand side."""
    f = cholesky_factorize(SymmetricMatrix.from_dense(rand_spd(8, 5)))
    for rhs in (np.ones((8, 2)), *wrong_shapes(8)):
        with pytest.raises(DimensionMismatch):
            f.solve(rhs)


def _vector_callers():
    """Every entry point that checks a vector argument, as name -> (n, call)."""
    n = 8
    dense = SymmetricMatrix.from_dense(rand_spd(n, 5))
    csr = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(rand_spd(n, 6)))
    pair = MatrixPair(SymmetricMatrix.from_dense(rand_spd(n, 7, cond=50.0)), dense)
    u = scipy.linalg.eigh(pair.a.dense(), dense.dense())[1][:, -1]  # B-normalized
    deflated = deflate(pair.a, dense, u)
    callers = {
        "matvec-dense": dense.matvec,
        "matvec-csr": csr.matvec,
        "solve_spd-exact": lambda x: solve_spd(LinearSolver.exact(dense), dense, x),
        "solve_spd-pcg": lambda x: solve_spd(LinearSolver.pcg(csr), csr, x),
        "factor-dense": dense.cholesky().solve,
        "factor-sparse": csr.cholesky().solve,
        "DeflatedOperator.matvec": deflated.matvec,
        "check_stopping": lambda x: check_stopping(x, u, 1e-5),
    }
    for kind in ("cholesky", "diagonal"):
        p = build_preconditioner(csr, kind)
        callers.update({f"apply-{kind}": p.apply, f"apply_inverse-{kind}": p.apply_inverse,
                        f"apply_inverse_t-{kind}": p.apply_inverse_t,
                        f"apply_gram_inverse-{kind}": lambda x, p=p: apply_gram_inverse(p, x)})
    return n, callers


def _as_bytes(out):
    if isinstance(out, tuple):
        return tuple(map(_as_bytes, out))
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    return type(out), repr(out)


VECTOR_CALLERS = sorted(_vector_callers()[1])


@pytest.mark.parametrize("name", VECTOR_CALLERS)
@pytest.mark.parametrize("form", ["list", "int", "big-endian", "strided"])
def test_vector_arguments_give_the_float64_bytes(name, form):
    """A list, an integer array, a big-endian array or a strided view gives
    the bytes of the same values as a contiguous native float64 vector."""
    n, callers = _vector_callers()
    call = callers[name]
    values = np.random.default_rng(11).standard_normal(n)
    if form == "int":
        values = np.arange(1.0, n + 1.0) * np.where(np.arange(n) % 3, 1.0, -2.0)
    arg = {"list": values.tolist(), "int": values.astype(np.int64),
           "big-endian": values.astype(">f8"), "strided": np.repeat(values, 3)[::3]}[form]
    assert _as_bytes(call(arg)) == _as_bytes(call(values.copy()))


@pytest.mark.parametrize("name", [c for c in VECTOR_CALLERS
                                  if c not in ("matvec-dense", "matvec-csr", "factor-dense")])
def test_vector_arguments_of_another_shape_raise_dimension_mismatch(name):
    """A wrong length, a 2-d and a 0-d argument raise DimensionMismatch
    (the two matvecs and the dense factor: the tests above)."""
    n, callers = _vector_callers()
    for x in wrong_shapes(n):
        with pytest.raises(DimensionMismatch):
            callers[name](x)


def test_dense_solve_with_zero_pivot_raises_numerical_error():
    l = np.tril(rand_spd(5, 3)) + 5.0 * np.eye(5)
    l[2, 2] = 0.0
    f = CholeskyFactor(5, l)
    with pytest.raises(NumericalError):
        f.solve(np.ones(5))


def test_factorize_solve_residual_many_trials():
    for trial in range(200):
        n = 4 + trial % 61
        b = rand_spd(n, 1000 + trial, cond=5.0 + (trial % 20))
        mat = SymmetricMatrix.from_dense(b)
        solver = LinearSolver.exact(mat)
        rng = np.random.default_rng(2000 + trial)
        r = rng.standard_normal(n)
        z = solve_spd(solver, mat, r)
        assert np.linalg.norm(b @ z - r) <= 1e-10 * np.linalg.norm(r)


# ---------------------------------------------------------------------------
# solve_spd plumbing


def test_solve_identity():
    mat = SymmetricMatrix.from_dense(np.eye(2))
    solver = LinearSolver.exact(mat)
    npt.assert_allclose(solve_spd(solver, mat, np.array([3.0, -1.0])),
                        np.array([3.0, -1.0]), rtol=0, atol=1e-15)


def test_solve_diagonal():
    mat = SymmetricMatrix.from_dense(np.diag([2.0, 4.0]))
    solver = LinearSolver.exact(mat)
    npt.assert_allclose(solve_spd(solver, mat, np.array([2.0, 4.0])),
                        np.ones(2), rtol=0, atol=1e-15)


def test_solve_counts_and_stale_factor():
    mat = SymmetricMatrix.from_dense(rand_spd(9, 8))
    other = SymmetricMatrix.from_dense(rand_spd(9, 9))
    solver = LinearSolver.exact(mat)
    counters = Counters()
    solve_spd(solver, mat, np.ones(9), counters)
    solve_spd(solver, mat, np.ones(9), counters)
    assert counters.solves == 2
    with pytest.raises(StaleFactor):
        solve_spd(solver, other, np.ones(9))


@pytest.fixture
def fingerprints(monkeypatch):
    """Orders of the matrices fingerprinted while the test runs."""
    orders = []
    real = linalg._entry_fingerprint

    def counted(n, rows, cols, vals):
        orders.append(n)
        return real(n, rows, cols, vals)

    monkeypatch.setattr(linalg, "_entry_fingerprint", counted)
    return orders


def test_solver_on_its_own_matrix_computes_no_fingerprint(fingerprints):
    mat = SymmetricMatrix.from_dense(rand_spd(9, 8))
    exact, pcg = LinearSolver.exact(mat), LinearSolver.pcg(mat)
    solve_spd(exact, mat, np.ones(9))
    solve_spd(pcg, mat, np.ones(9))
    assert fingerprints == []


@pytest.mark.parametrize("built_on", ["dense", "csr"])
def test_solver_accepts_the_same_entries_in_the_other_storage(fingerprints, built_on):
    a = rand_spd(9, 8)
    d = SymmetricMatrix.from_dense(a)
    s = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(d.dense()))
    own, other = (d, s) if built_on == "dense" else (s, d)
    solver = LinearSolver.exact(own)
    rhs = np.random.default_rng(2).standard_normal(9)
    x = solve_spd(solver, own, rhs)
    assert fingerprints == []
    assert solve_spd(solver, other, rhs).tobytes() == x.tobytes()
    assert fingerprints == [9, 9]
    solve_spd(solver, other, rhs)
    assert fingerprints == [9, 9]  # both digests are kept with their matrices


@pytest.mark.parametrize("mode", ["exact", "pcg"])
def test_solver_refuses_a_different_matrix(mode):
    mat = SymmetricMatrix.from_dense(rand_spd(9, 8))
    solver = getattr(LinearSolver, mode)(mat)
    nudged = mat.dense()
    nudged[0, 0] *= 1.0 + 1e-9
    for other in (SymmetricMatrix.from_dense(nudged), SymmetricMatrix.from_dense(np.eye(4))):
        with pytest.raises(StaleFactor):
            solve_spd(solver, other, np.ones(9))


def test_solve_dimension_mismatch():
    mat = SymmetricMatrix.from_dense(np.eye(3))
    solver = LinearSolver.exact(mat)
    with pytest.raises(DimensionMismatch):
        solve_spd(solver, mat, np.ones(5))


def test_pcg_matches_exact():
    """With a generous cap and tight tolerance PCG agrees with the direct
    factorization to eight digits."""
    b = rand_spd(50, 12, cond=30.0)
    mat = SymmetricMatrix.from_dense(b)
    exact = LinearSolver.exact(mat)
    pcg = LinearSolver.pcg(mat, cap=200, tol=1e-12)
    rng = np.random.default_rng(13)
    for _ in range(5):
        r = rng.standard_normal(50)
        z_exact = solve_spd(exact, mat, r)
        z_pcg = solve_spd(pcg, mat, r)
        rel = np.linalg.norm(z_pcg - z_exact) / np.linalg.norm(z_exact)
        assert rel <= 1e-8


def test_pcg_counts_inner_work():
    b = rand_spd(40, 14, cond=20.0)
    mat = SymmetricMatrix.from_dense(b)
    pcg = LinearSolver.pcg(mat, cap=200, tol=1e-12)
    counters = Counters()
    solve_spd(pcg, mat, np.ones(40), counters)
    assert counters.solves == 1
    assert counters.pcg_inner >= 1
    assert counters.matvecs == counters.pcg_inner


def test_pcg_cap_limits_inner_iterations():
    b = rand_spd(40, 15, cond=1000.0)
    mat = SymmetricMatrix.from_dense(b)
    pcg = LinearSolver.pcg(mat, cap=3, tol=1e-14)
    counters = Counters()
    solve_spd(pcg, mat, np.ones(40), counters)
    assert counters.pcg_inner == 3


def test_solver_mode_follows_its_metric():
    """The mode is derived: 'cholesky' exactly for the Cholesky metric, which
    only ``exact`` builds; every PCG inner kind gives 'pcg'."""
    mat = SymmetricMatrix.from_dense(rand_spd(8, 2))
    assert LinearSolver.exact(mat).mode == "cholesky"
    for inner in ("jacobi", "ichol", None):
        assert LinearSolver.pcg(mat, inner=inner).mode == "pcg"
    pair = MatrixPair(SymmetricMatrix.from_dense(rand_spd(8, 3)), mat)
    x0 = np.ones(8)
    for method in ("power", "split-merge", "lanczos"):
        for solver, mode in ((None, "cholesky"), (LinearSolver.pcg(mat), "pcg")):
            config = SolverConfig(method=method, max_iterations=3, linear_solver=solver)
            assert solve(pair, config, x0).diagnostics["solver_mode"] == mode


@pytest.mark.parametrize("cap", [0, -3])
def test_pcg_cap_below_one_rejected(cap):
    mat = SymmetricMatrix.from_dense(rand_spd(8, 2))
    with pytest.raises(InputError):
        LinearSolver.pcg(mat, cap=cap)


def test_pcg_ichol_inner_converges_faster():
    """The IC(0) inner preconditioner needs no more iterations than Jacobi
    on a grid operator."""
    mat = grid_laplacian(12)
    rng = np.random.default_rng(16)
    r = rng.standard_normal(mat.n)
    it_counts = {}
    for inner in ("jacobi", "ichol"):
        solver = LinearSolver.pcg(mat, cap=500, tol=1e-10, inner=inner)
        counters = Counters()
        solve_spd(solver, mat, r, counters)
        it_counts[inner] = counters.pcg_inner
    assert it_counts["ichol"] <= it_counts["jacobi"]


# (cap, inner) -> (pcg_inner, ||x||, x'r, x'w) for the right-hand side r
# below and w = (1, 2, ..., n); Jacobi and no preconditioner take the same
# steps here because the pencil's diagonal is constant (see
# test_jacobi_pcg_on_a_varying_diagonal_takes_the_textbook_steps for one that is not)
PCG_GRID_PINS = {
    (4, "jacobi"): (4, 3.3722700121698237, 30.364049228615766, -31.273356790741573),
    (4, "ichol"): (4, 3.6156862972434127, 30.800072004226028, -54.23489359158151),
    (4, None): (4, 3.3722700121698233, 30.364049228615762, -31.27335679074163),
    (500, "jacobi"): (34, 3.615626066359716, 30.800104486063283, -54.21253729745912),
    (500, "ichol"): (12, 3.615626066348425, 30.800104486063283, -54.21253729204615),
    (500, None): (34, 3.6156260663597157, 30.80010448606328, -54.21253729745918),
}


@pytest.mark.parametrize("cap, inner", list(PCG_GRID_PINS))
def test_pcg_inner_kinds_pinned_on_grid_pencil(cap, inner):
    """PCG on B = Laplacian + 0.5 I (12 x 12 grid): inner iteration counts
    exactly, the solution to 1e-13, for every inner preconditioner."""
    lap = grid_laplacian(12)
    mat = SymmetricMatrix.from_sparse(
        lap._m + 0.5 * scipy.sparse.eye_array(lap.n, format="csr"))
    r = np.random.default_rng(31).standard_normal(mat.n)
    counters = Counters()
    x = solve_spd(LinearSolver.pcg(mat, cap=cap, tol=1e-10, inner=inner), mat, r, counters)
    inner_its, norm_x, xr, xw = PCG_GRID_PINS[(cap, inner)]
    assert (counters.pcg_inner, counters.matvecs, counters.solves) == (inner_its, inner_its, 1)
    got = (np.linalg.norm(x), x @ r, x @ np.arange(1.0, mat.n + 1.0))
    assert got == pytest.approx((norm_x, xr, xw), rel=1e-13, abs=0)


def fused_update(y, v, a):
    """y + a v as one daxpy into a fresh array: a single rounding."""
    return daxpy(v, y.copy(), a=a)


def numpy_update(y, v, a):
    """y + a v as numpy rounds it: the product, then the sum."""
    return y + a * v


def textbook_solve_spd(solver, b, rhs, counters, update=fused_update):
    """PCG as Saad writes it (Alg. 9.1), less the breakdown checks, with
    every vector update y + a v made by ``update`` on fresh arrays, never in
    place. It also counts a solve that stops at its cap."""
    counters.solves += 1
    x = np.zeros_like(rhs)
    r = rhs.copy()
    norm_rhs = math.sqrt(rhs.dot(rhs))
    if norm_rhs == 0.0:
        return x
    z = apply_gram_inverse(solver.metric, r)
    p = z.copy()
    rz = float(r.dot(z))
    for _ in range(solver.cap):
        counters.pcg_inner += 1
        bp = b.matvec(p, counters)
        alpha = rz / float(p.dot(bp))
        x = update(x, p, alpha)
        r = update(r, bp, -alpha)
        if math.sqrt(r.dot(r)) <= solver.tol * norm_rhs:
            break
        z = apply_gram_inverse(solver.metric, r)
        rz_next = float(r.dot(z))
        p = update(z, p, rz_next / rz)
        rz = rz_next
    else:
        counters.pcg_capped += 1
        counters.pcg_residual = max(counters.pcg_residual, math.sqrt(r.dot(r)) / norm_rhs)
    return x


def scaled_textbook_solve_spd(solver, b, rhs, counters, update=fused_update):
    """Jacobi PCG as plain CG on S B S with S = diag(s) = D^{-1/2} (split
    preconditioning, Saad §9.2.1), on fresh arrays as ``textbook_solve_spd``:
    the right-hand side is S rhs, the answer S x^, and every step tests the
    residual of B x = rhs, r = r^ / s."""
    counters.solves += 1
    s = 1.0 / np.sqrt(b.diagonal())
    scaled = diagonal_congruence(b, s)
    x = np.zeros_like(rhs)
    norm_rhs = math.sqrt(rhs.dot(rhs))
    if norm_rhs == 0.0:
        return x
    r = rhs * s
    p = r.copy()
    rz = float(r.dot(r))
    for _ in range(solver.cap):
        counters.pcg_inner += 1
        bp = scaled.matvec(p, counters)
        alpha = rz / float(p.dot(bp))
        x = update(x, p, alpha)
        r = update(r, bp, -alpha)
        norm_r = math.sqrt((r / s).dot(r / s))
        if norm_r <= solver.tol * norm_rhs:
            break
        rz_next = float(r.dot(r))
        p = update(r, p, rz_next / rz)
        rz = rz_next
    else:
        counters.pcg_capped += 1
        counters.pcg_residual = max(counters.pcg_residual, norm_r / norm_rhs)
    return x * s


def assert_same_steps(got, got_counters, want, want_counters):
    """Equal counters but pcg_residual, and x and pcg_residual within 1e-13."""
    assert replace(want_counters, pcg_residual=0.0) == replace(got_counters, pcg_residual=0.0)
    assert want_counters.pcg_residual == pytest.approx(got_counters.pcg_residual, rel=1e-13)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def grid_pencil_b():
    """B = Laplacian + 0.5 I on the 12 x 12 grid, as the PCG pins use."""
    lap = grid_laplacian(12)
    return SymmetricMatrix.from_sparse(
        lap._m + 0.5 * scipy.sparse.eye_array(lap.n, format="csr"))


@pytest.mark.parametrize("inner", ["jacobi", "ichol", None])
@pytest.mark.parametrize("cap", [4, 500])
def test_pcg_is_independent_of_the_rhs_layout(inner, cap):
    """A strided right-hand side gives its contiguous copy's bytes and
    counters: PCG takes every inner product from its own contiguous vectors."""
    mat = grid_pencil_b()
    solver = LinearSolver.pcg(mat, cap=cap, tol=1e-10, inner=inner)
    # numpy's strided dot of this rhs with itself differs from the contiguous one
    strided = np.random.default_rng(31).standard_normal(2 * mat.n)[::2]
    assert not strided.flags.c_contiguous
    runs = []
    for rhs in (strided, strided.copy()):
        counters = Counters()
        runs.append((solve_spd(solver, mat, rhs, counters).tobytes(), counters))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("inner", ["jacobi", "ichol", None])
@pytest.mark.parametrize("cap", [4, 500])
@pytest.mark.parametrize("storage", ["csr", "dense"])
def test_pcg_matches_textbook_loop_bitwise(inner, cap, storage):
    """The in-place PCG loop returns the bytes and counters of the textbook
    loop making the same fused daxpy updates on fresh arrays (so a buffer
    that p, z and the spare share wrongly shows here), for runs stopped by
    the cap (4) and by the tolerance (500), and for a zero right-hand side.
    For Jacobi that loop is the scaled one, and the left-preconditioned loop
    takes the same steps. Against the left-preconditioned loop with numpy's
    twice-rounded updates the counters are equal, and x and the residual
    agree to 1e-13, ``PCG_GRID_PINS``'s tolerance."""
    mat = grid_pencil_b()
    if storage == "dense":
        mat = SymmetricMatrix.from_dense(mat.dense())
    solver = LinearSolver.pcg(mat, cap=cap, tol=1e-10, inner=inner)
    rng = np.random.default_rng(31)
    got_counters, want_counters, numpy_counters = Counters(), Counters(), Counters()
    left_counters = Counters()
    for rhs in (rng.standard_normal(mat.n), rng.standard_normal(mat.n), np.zeros(mat.n)):
        got = solve_spd(solver, mat, rhs, got_counters)
        if inner == "jacobi":
            want = scaled_textbook_solve_spd(solver, mat, rhs, want_counters)
            left = textbook_solve_spd(solver, mat, rhs, left_counters)
            assert_same_steps(got, got_counters, left, left_counters)
        else:
            want = textbook_solve_spd(solver, mat, rhs, want_counters)
        assert got.tobytes() == want.tobytes()
        assert got_counters == want_counters
        rounded_twice = textbook_solve_spd(solver, mat, rhs, numpy_counters, numpy_update)
        assert_same_steps(got, got_counters, rounded_twice, numpy_counters)
    assert got_counters.pcg_capped == (2 if cap == 4 else 0)


def varying_diagonal_b(storage):
    """A B whose diagonal varies: the 16 x 16 Laplacian plus a permuted
    diag(linspace(0.5, 50)) as CSR, or gen_synthetic(64, 100, 0)'s dense B."""
    if storage == "dense":
        return gen_synthetic(SyntheticSpec(n=64, kappa_b=100.0, seed=0)).b
    lap = grid_laplacian(16)
    d = np.linspace(0.5, 50.0, lap.n)[np.random.default_rng(0).permutation(lap.n)]
    return SymmetricMatrix.from_sparse(lap._m + scipy.sparse.diags_array(d, format="csr"))


@pytest.mark.parametrize("cap", [4, 30, 500])
@pytest.mark.parametrize("storage", ["csr", "dense"])
def test_jacobi_pcg_on_a_varying_diagonal_takes_the_textbook_steps(cap, storage):
    """Where Jacobi is no uniform scale, the scaled loop still takes the steps
    of the left-preconditioned textbook loop: equal pcg_inner and pcg_capped,
    x and pcg_residual within 1e-13, and the scaled textbook loop's bytes."""
    mat = varying_diagonal_b(storage)
    assert mat.kind == storage
    assert np.ptp(mat.diagonal()) > 0.1 * np.max(mat.diagonal())
    solver = LinearSolver.pcg(mat, cap=cap, tol=1e-10, inner="jacobi")
    rng = np.random.default_rng(5)
    got_counters, left_counters, scaled_counters = Counters(), Counters(), Counters()
    for rhs in (rng.standard_normal(mat.n), rng.standard_normal(mat.n)):
        got = solve_spd(solver, mat, rhs, got_counters)
        left = textbook_solve_spd(solver, mat, rhs, left_counters)
        assert_same_steps(got, got_counters, left, left_counters)
        assert got.tobytes() == scaled_textbook_solve_spd(solver, mat, rhs,
                                                          scaled_counters).tobytes()
        assert got_counters == scaled_counters
    # the CSR B's solves converge in 12 steps each, the dense B's in about 50
    assert got_counters.pcg_capped == (2 if cap == 4 or (cap, storage) == (30, "dense") else 0)


def count_congruences(monkeypatch):
    """The orders ``precond.diagonal_congruence`` is called with, as the calls happen."""
    calls, real = [], precond.diagonal_congruence

    def counted(b, s):
        calls.append(b.n)
        return real(b, s)
    monkeypatch.setattr(precond, "diagonal_congruence", counted)
    return calls


@pytest.mark.parametrize("inner", ["jacobi", "ichol", None])
def test_one_scaled_b_per_pcg_handle(monkeypatch, inner):
    """A Jacobi handle forms S B S at its first solve, not when it is built,
    and once across power, split-merge and lanczos runs and every ``top_k``
    stage that share it; the IC(0) and identity kinds form none."""
    calls = count_congruences(monkeypatch)
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=3))
    x0 = np.random.default_rng(0).standard_normal(pair.n)
    solver = LinearSolver.pcg(pair.b, cap=40, inner=inner)
    assert calls == []
    for method in ("power", "split-merge", "lanczos"):
        config = SolverConfig(method=method, tol=1e-6, linear_solver=solver)
        assert solve(pair, config, x0).converged
    config = SolverConfig(method="split-merge", tol=1e-6, linear_solver=solver)
    assert len(top_k(pair, 3, config, x0)) == 3
    assert calls == ([24] if inner == "jacobi" else [])


@pytest.mark.parametrize("inner", ["jacobi", "ichol", None])
def test_pcg_reports_capped_solves_and_their_residual(inner):
    """At cap 3 every solve on the grid pencil stops short of tol 1e-10 and
    reports the relative residual it left; a generous cap reports none."""
    mat = grid_pencil_b()
    rhs = np.random.default_rng(31).standard_normal(mat.n)
    tol = 1e-10
    counters = Counters()
    x = solve_spd(LinearSolver.pcg(mat, cap=3, tol=tol, inner=inner), mat, rhs, counters)
    true_residual = np.linalg.norm(rhs - mat.matvec(x)) / np.linalg.norm(rhs)
    assert counters.pcg_capped == 1
    assert counters.pcg_residual > tol
    assert counters.pcg_residual == pytest.approx(true_residual, rel=1e-8)

    generous = Counters()
    solve_spd(LinearSolver.pcg(mat, cap=500, tol=tol, inner=inner), mat, rhs, generous)
    assert (generous.pcg_capped, generous.pcg_residual) == (0, 0.0)


def stored_arrays(*objects):
    """Every array the objects hold as attributes, a sparse one's parts included."""
    for obj in objects:
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                yield value
            elif scipy.sparse.issparse(value):
                yield from (getattr(value, name) for name in ("data", "indices", "indptr",
                                                              "offsets") if hasattr(value, name))


@pytest.mark.parametrize("inner", ["jacobi", "ichol", None, "exact"])
@pytest.mark.parametrize("storage", ["csr", "dense"])
def test_solve_spd_never_writes_the_rhs(inner, storage):
    """The caller's rhs keeps its bytes, and the solution is a new array that
    shares memory with neither the rhs nor the solver's or B's storage: power
    passes its own A x as the rhs and reads it again after the solve."""
    mat = grid_pencil_b()
    if storage == "dense":
        mat = SymmetricMatrix.from_dense(mat.dense())
    if inner == "exact":
        solver = LinearSolver.exact(mat)
    else:
        solver = LinearSolver.pcg(mat, cap=30, tol=1e-10, inner=inner)
    rhs = np.random.default_rng(31).standard_normal(mat.n)
    before = rhs.copy()
    x = solve_spd(solver, mat, rhs, Counters())
    again = solve_spd(solver, mat, rhs, Counters())
    assert rhs.tobytes() == before.tobytes()
    assert again.tobytes() == x.tobytes()
    factor = solver.metric.factor
    owners = [solver.metric, mat] + ([factor] if factor is not None else [])
    for held in (rhs, again, *stored_arrays(*owners)):
        assert not np.shares_memory(x, held)


def count_dpotri(monkeypatch):
    """The shapes ``linalg.dpotri`` is called with, as the calls happen."""
    calls, real = [], linalg.dpotri

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)
    monkeypatch.setattr(linalg, "dpotri", counted)
    return calls


class MatvecOnly:
    """An A operand with nothing but ``n`` and ``matvec``."""

    def __init__(self, a):
        self.n, self.matvec = a.n, a.matvec


def test_paths_that_never_solve_never_form_the_inverse(monkeypatch, tmp_path):
    """A dense B's inverse waits for its first solve: factoring, validating,
    both reference routes, gd and the CLI's gd run form none."""
    calls = count_dpotri(monkeypatch)
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=3))
    assert pair.b.cholesky().kind == "dense"
    validate_pair(pair)
    assert reference_solution(pair).route == "dense-lapack"
    assert reference_solution(MatrixPair(MatvecOnly(pair.a), pair.b)).route == "arpack"
    assert solve(pair, SolverConfig(method="gd", tol=1e-6), np.ones(pair.n)).converged
    write_matrix_market(pair.a, tmp_path / "a.mtx")
    write_matrix_market(pair.b, tmp_path / "b.mtx")
    assert main(["solve", "--a", str(tmp_path / "a.mtx"), "--b", str(tmp_path / "b.mtx"),
                 "--method", "gd", "--tol", "1e-6"]) == 0
    assert calls == []


def test_one_inverse_per_b_across_runs_and_stages(monkeypatch):
    """Every exact B-solve on one B shares one inverse through b.cholesky():
    power then split-merge form it once, and so does top_k's every stage."""
    calls = count_dpotri(monkeypatch)
    x0 = np.random.default_rng(0).standard_normal(24)
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=3))
    for method in ("power", "split-merge"):
        assert solve(pair, SolverConfig(method=method, tol=1e-6), x0).converged
    assert calls == [(24, 24)]
    calls.clear()
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=4))
    assert len(top_k(pair, 3, SolverConfig(method="split-merge", tol=1e-6), x0)) == 3
    assert calls == [(24, 24)]


def test_capped_solves_reach_the_trace_counters():
    """Power with cap-3 PCG B-solves reports capped solves in its trace; with
    a generous cap and on the exact path the fields stay 0."""
    b = grid_pencil_b()
    a = SymmetricMatrix.from_sparse(scipy.sparse.diags_array(
        np.append(np.linspace(0.01, 1.0, b.n - 1), 2.0)).tocsr())
    pair = MatrixPair(a, b)
    x0 = np.random.default_rng(2).standard_normal(b.n)

    def counters(solver):
        config = SolverConfig(method="power", tol=1e-6, max_iterations=50, linear_solver=solver)
        return solve(pair, config, x0).counters

    capped = counters(LinearSolver.pcg(b, cap=3))
    assert capped.pcg_capped == capped.solves > 0
    assert capped.pcg_residual > 1e-10
    for solver in (LinearSolver.pcg(b, cap=500), LinearSolver.exact(b)):
        c = counters(solver)
        assert c.solves > 0
        assert (c.pcg_capped, c.pcg_residual) == (0, 0.0)


# method -> (status, iterations, matvecs, solves, pcg_inner, pcg_capped,
# pcg_residual, final lambda) at tol 1e-6 from the seed-1 normal start on the
# 16 x 16 grid pencil below, with every B-solve stopped at PCG's cap of 30
CAPPED_PCG_PINS = {
    "power": ("converged", 140, 4482, 140, 4200, 140, 6.928501735441708e-08,
              0.9701682098975846),
    "split-merge": ("converged", 27, 1703, 54, 1620, 54, 6.772738084523873e-08,
                    0.9701682099111544),
    "lanczos": ("converged", 20, 643, 20, 600, 20, 7.589114475782244e-08,
                0.9701682116821926),
}


@pytest.mark.parametrize("method", list(CAPPED_PCG_PINS))
def test_outer_runs_on_capped_pcg_are_pinned(method):
    """The benchmark's sparse regime in small: B = 5-point Laplacian + 0.5 I,
    A diagonal on [0.01, 1] with one planted entry of 2, and Jacobi PCG that
    stops every solve at its cap. Counts exactly; residual and lambda to 1e-12."""
    m = 16
    n = m * m
    t = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.eye_array(m)
    b = SymmetricMatrix.from_sparse((scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)
                                     + 0.5 * scipy.sparse.eye_array(n)).tocsr())
    d = np.append(np.linspace(0.01, 1.0, n - 1), 2.0)[np.random.default_rng(0).permutation(n)]
    pair = MatrixPair(SymmetricMatrix.from_sparse(scipy.sparse.diags_array(d).tocsr()), b)
    config = SolverConfig(method=method, tol=1e-6, max_iterations=400,
                          linear_solver=LinearSolver.pcg(b, cap=30))
    trace = solve(pair, config, np.random.default_rng(1).standard_normal(n))
    c = trace.counters
    *counts, residual, lam = CAPPED_PCG_PINS[method]
    assert [trace.status, trace.iterations, c.matvecs, c.solves, c.pcg_inner,
            c.pcg_capped] == counts
    assert c.pcg_capped == c.solves
    assert c.pcg_residual == pytest.approx(residual, rel=1e-12, abs=0)
    assert trace.final().lam == pytest.approx(lam, rel=1e-12, abs=0)


def test_pcg_unknown_inner_rejected():
    with pytest.raises(ValueError):
        LinearSolver.pcg(grid_laplacian(3), inner="gauss-seidel")


def test_pcg_zero_diagonal_rejected():
    mat = SymmetricMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ZeroDiagonal):
        LinearSolver.pcg(mat, inner="jacobi")


def test_pcg_breakdown_on_indefinite():
    mat = SymmetricMatrix.from_dense(np.diag([1.0, -2.0]))
    solver = LinearSolver.pcg(mat, inner=None)
    with pytest.raises(PcgBreakdown):
        solve_spd(solver, mat, np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Incomplete Cholesky


def test_ic0_diagonal_is_exact():
    mat = SymmetricMatrix.from_sparse(scipy.sparse.diags_array([4.0, 9.0, 16.0]))
    f = incomplete_cholesky(mat)
    npt.assert_allclose(f.lower(), np.diag([2.0, 3.0, 4.0]), rtol=0, atol=0)


def test_ic0_tridiagonal_is_exact():
    """Tridiagonal Cholesky has no fill, so IC(0) equals the full factor."""
    n = 25
    main = np.full(n, 2.5)
    off = np.full(n - 1, -1.0)
    mat = SymmetricMatrix.from_sparse(
        scipy.sparse.diags_array([main, off, off], offsets=[0, 1, -1]))
    f = incomplete_cholesky(mat)
    l = f.lower()
    npt.assert_allclose(l @ l.T, mat.dense(), rtol=0, atol=1e-13)


def test_ic0_grid_improves_conditioning():
    mat = grid_laplacian(16)
    f = incomplete_cholesky(mat)
    l = f.lower()
    b = mat.dense()
    gap = np.linalg.norm(b - l @ l.T)
    assert gap > 0.0
    linv_b = np.linalg.solve(l, np.linalg.solve(l, b).T).T
    w_pre = np.linalg.eigvalsh(0.5 * (linv_b + linv_b.T))
    w_raw = np.linalg.eigvalsh(b)
    assert w_pre[-1] / w_pre[0] < w_raw[-1] / w_raw[0]


def test_ic0_solve_applies_both_triangles():
    mat = grid_laplacian(7)
    f = incomplete_cholesky(mat)
    l = f.lower()
    rng = np.random.default_rng(17)
    r = rng.standard_normal(mat.n)
    npt.assert_allclose(f.solve(r), np.linalg.solve(l @ l.T, r),
                        rtol=0, atol=1e-11)


@pytest.mark.parametrize("source", ["sparse-grid", "dense-input"])
def test_ic0_triangular_solves_match_lapack(source):
    """Both substitutions and the pair agree with LAPACK on the same L."""
    if source == "sparse-grid":
        mat = grid_laplacian(9)
    else:
        mat = SymmetricMatrix.from_dense(rand_spd(30, 8))
    f = incomplete_cholesky(mat)
    assert f.kind == "sparse"
    l = f.lower()
    r = np.random.default_rng(23).standard_normal(mat.n)
    y = scipy.linalg.solve_triangular(l, r, lower=True)
    x = scipy.linalg.solve_triangular(l, r, lower=True, trans="T")
    xy = scipy.linalg.solve_triangular(l, y, lower=True, trans="T")
    for got, want in ((f.solve_lower(r), y), (f.solve_upper(r), x), (f.solve(r), xy)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def coupled_ring(t):
    """Positive definite for t < 1, yet zero-fill factorization loses the
    (3,1) and (4,2) fill and computes a negative pivot once t is large."""
    base = np.array([[3.0, -2.0, 0.0, 2.0],
                     [-2.0, 3.0, -2.0, 0.0],
                     [0.0, -2.0, 3.0, -2.0],
                     [2.0, 0.0, -2.0, 3.0]])
    d = np.diag(np.diagonal(base))
    return SymmetricMatrix.from_sparse(scipy.sparse.csr_array(d + t * (base - d)))


def test_ic0_shift_restart_recovers():
    """The diagonal-shift ladder rescues a definite matrix whose plain
    zero-fill factorization breaks down."""
    mat = coupled_ring(0.9)
    assert np.linalg.eigvalsh(mat.dense())[0] > 0.0
    with pytest.raises(NotPositiveDefinite):
        incomplete_cholesky(mat, shifts=(0.0,))
    f = incomplete_cholesky(mat)
    assert np.all(np.diagonal(f.lower()) > 0.0)


def test_ic0_all_shifts_fail():
    mat = SymmetricMatrix.from_sparse(
        scipy.sparse.csr_array(np.diag([1.0, -5.0])))
    with pytest.raises(NotPositiveDefinite):
        incomplete_cholesky(mat)
    # definite input whose breakdown is too deep for the shift ladder
    with pytest.raises(NotPositiveDefinite):
        incomplete_cholesky(coupled_ring(1.0))


# ---------------------------------------------------------------------------
# Dense Jacobi eigensolver


def test_jacobi_matches_lapack():
    for trial in range(10):
        n = 3 + 4 * trial
        rng = np.random.default_rng(300 + trial)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, v = jacobi_eigh(a)
        w_ref = np.linalg.eigvalsh(a)
        scale = np.max(np.abs(w_ref))
        npt.assert_allclose(w, w_ref, rtol=0, atol=1e-10 * scale)
        for i in range(n):
            resid = np.linalg.norm(a @ v[:, i] - w[i] * v[:, i])
            assert resid <= 1e-9 * scale


def test_jacobi_orthogonal_vectors():
    a = rand_spd(20, 21)
    _, v = jacobi_eigh(a)
    npt.assert_allclose(v.T @ v, np.eye(20), rtol=0, atol=1e-12)


def test_jacobi_diagonal_input():
    w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    npt.assert_array_equal(w, np.array([1.0, 2.0, 3.0]))
    npt.assert_array_equal(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_jacobi_rejects_nonsquare():
    with pytest.raises(NotSquare):
        jacobi_eigh(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Dominant eigenvalue estimate


def test_dominant_eigenvalue_diagonal():
    mat = SymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    est = dominant_eigenvalue(mat.matvec, 3)
    assert 3.0 * 0.999 <= est <= 3.0 * 1.011


def test_dominant_eigenvalue_deterministic():
    mat = SymmetricMatrix.from_dense(rand_spd(15, 23))
    assert dominant_eigenvalue(mat.matvec, 15) == dominant_eigenvalue(mat.matvec, 15)


def test_dominant_eigenvalue_never_undershoots():
    for trial in range(20):
        b = rand_spd(12, 400 + trial, cond=3.0 + trial)
        mat = SymmetricMatrix.from_dense(b)
        lam_ref = np.linalg.eigvalsh(b)[-1]
        est = dominant_eigenvalue(mat.matvec, 12)
        assert est >= lam_ref * (1.0 - 1e-6)
        assert est <= lam_ref * 1.02


# ---------------------------------------------------------------------------
# Matrix Market I/O


def test_read_matrix_market_fixture(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 3.0\n")
    m = read_matrix_market(path)
    npt.assert_array_equal(m.dense(), np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert m.nnz == 4


def test_read_matrix_market_upper_triangle(tmp_path):
    """Symmetric files may store either triangle."""
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n1 1 2.0\n1 2 1.0\n2 2 3.0\n")
    m = read_matrix_market(path)
    npt.assert_array_equal(m.dense(), np.array([[2.0, 1.0], [1.0, 3.0]]))


def test_read_matrix_market_general(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 4\n1 1 2.0\n1 2 1.0\n2 1 1.0\n2 2 3.0\n")
    m = read_matrix_market(path)
    npt.assert_array_equal(m.dense(), np.array([[2.0, 1.0], [1.0, 3.0]]))


def test_read_matrix_market_general_asymmetric(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 4\n1 1 2.0\n1 2 1.0\n2 1 1.5\n2 2 3.0\n")
    with pytest.raises(AsymmetricEntries):
        read_matrix_market(path)


def test_read_matrix_market_sums_duplicates(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n1 1 1.0\n1 1 1.5\n2 2 1.0\n")
    m = read_matrix_market(path)
    npt.assert_array_equal(m.dense(), np.diag([2.5, 1.0]))


def test_read_matrix_market_empty_file(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("")
    with pytest.raises(ParseError):
        read_matrix_market(path)


def test_read_matrix_market_rejects_nonsquare(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 3 1\n1 1 1.0\n")
    with pytest.raises(NotSquare):
        read_matrix_market(path)


def test_read_matrix_market_parse_errors(tmp_path):
    bodies = [
        "%%MatrixMarket matrix array real symmetric\n2 2 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 abc\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0 7\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1.5 1 2.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n0 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n-1 -1 0\n",
    ]
    for body in bodies:
        path = tmp_path / "bad.mtx"
        path.write_text(body)
        with pytest.raises(ParseError):
            read_matrix_market(path)


@pytest.mark.parametrize("symmetry, entry", [("symmetric", "2 1 nan"), ("general", "2 2 inf")])
def test_read_matrix_market_rejects_non_finite(tmp_path, symmetry, entry):
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                    f"2 2 2\n1 1 2.0\n{entry}\n")
    with pytest.raises(NonFiniteEntries):
        read_matrix_market(path)


def test_matrix_market_round_trip(tmp_path):
    """Write then read reproduces the stored entry set exactly."""
    for trial in range(5):
        dense = rand_spd(14, 500 + trial)
        dense[np.abs(dense) < 0.04] = 0.0
        dense = 0.5 * (dense + dense.T)
        m = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(dense))
        path = tmp_path / f"rt{trial}.mtx"
        write_matrix_market(m, path)
        back = read_matrix_market(path)
        npt.assert_array_equal(back.dense(), m.dense())
        assert back.fingerprint() == m.fingerprint()


def _csr_bytes(m):
    """Bytes of the CSR arrays the reader builds for m's entries."""
    s = SymmetricMatrix.from_lower_entries(m.n, *m.lower_entries())._m
    return s.data.nbytes + s.indices.nbytes + s.indptr.nbytes


def _read_back(m, path):
    write_matrix_market(m, path)
    return read_matrix_market(path)


def test_read_matrix_market_storage_kind(tmp_path):
    """Dense storage where n^2 doubles take no more bytes than CSR."""
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 3.0\n")
    m = read_matrix_market(path)
    assert m.kind == "dense" and m.nnz == 4
    grid = SymmetricMatrix.from_sparse(
        grid_laplacian(10)._m + 0.5 * scipy.sparse.eye_array(100, format="csr"))
    back = _read_back(grid, tmp_path / "grid.mtx")
    assert back.kind == "csr" and back.nnz == grid.nnz
    diag = SymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert _read_back(diag, tmp_path / "diag.mtx").kind == "csr"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), general=st.booleans())
def test_matrix_market_storage_follows_byte_rule(tmp_path_factory, n, density, seed,
                                                 general):
    rng = np.random.default_rng(seed)
    low = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < density))
    full = low + np.tril(low, -1).T
    m = SymmetricMatrix.from_dense(full)
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    if general:
        r, c = np.nonzero(full)
        lines = [f"{i + 1} {j + 1} {float(full[i, j])!r}" for i, j in zip(r, c)]
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{n} {n} {len(lines)}\n" + "".join(f"{x}\n" for x in lines))
        back = read_matrix_market(path)
    else:
        back = _read_back(m, path)
    npt.assert_array_equal(back.dense(), full)
    assert back.fingerprint() == m.fingerprint()
    x = rng.standard_normal(n)
    npt.assert_allclose(back.matvec(x), full @ x, rtol=0,
                        atol=1e-13 * max(np.abs(full).sum() * np.abs(x).max(), 1e-300))
    dense_bytes = n * n * np.dtype(np.float64).itemsize
    assert back.kind == ("dense" if dense_bytes <= _csr_bytes(m) else "csr")


def _csr_route(n, rows, cols, vals, symmetric):
    """The matrix the reader built by way of CSR for a file's (0-based)
    entries: ``from_lower_entries`` (symmetric) or ``from_sparse`` on the
    summed entries (general), densified where n^2 doubles take no more bytes
    than its arrays."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if symmetric:
        m = SymmetricMatrix.from_lower_entries(n, np.maximum(rows, cols),
                                               np.minimum(rows, cols), vals)
    else:
        coo = scipy.sparse.coo_array((np.asarray(vals, dtype=np.float64), (rows, cols)),
                                     shape=(n, n))
        coo.sum_duplicates()
        m = SymmetricMatrix.from_sparse(coo.tocsr())
    if n * n * 8 <= _csr_bytes(m):
        return SymmetricMatrix.from_dense(m.dense())
    return m


def _write_entries(path, n, rows, cols, vals, symmetric):
    lines = "".join(f"{i + 1} {j + 1} {float(v)!r}\n" for i, j, v in zip(rows, cols, vals))
    path.write_text(f"%%MatrixMarket matrix coordinate real "
                    f"{'symmetric' if symmetric else 'general'}\n{n} {n} {len(vals)}\n{lines}")


def _assert_same_matrix(got, want):
    assert got.kind == want.kind
    assert got.dense().tobytes() == want.dense().tobytes()
    if want.kind == "csr":
        for name in ("data", "indices", "indptr"):
            assert getattr(got._m, name).tobytes() == getattr(want._m, name).tobytes()
    assert got.fingerprint() == want.fingerprint()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 24), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
def test_reader_matches_the_csr_route_bytewise(tmp_path_factory, n, density, seed, symmetric):
    """Whichever storage the reader picks, it holds the bytes, kind and
    fingerprint of the CSR route's matrix for the same entries."""
    rng = np.random.default_rng(seed)
    low = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < density))
    r, c = np.nonzero(low)
    v = low[r, c]
    scale = np.abs(v).max(initial=0.0)
    if symmetric:
        # either triangle may hold an entry
        flip = rng.random(len(v)) < 0.5
        r, c = np.where(flip, c, r), np.where(flip, r, c)
    else:
        # both triangles, the upper one off by up to 1e-13 of the largest entry,
        # and one entry without its mirror: small enough to pass as symmetric
        # (the least subnormal halves to a zero) or, at 1e-11, too large
        off = r != c
        r, c = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
        v = np.concatenate([v, v[off] + scale * 1e-13 * rng.uniform(-1.0, 1.0, off.sum())])
        if n > 1 and scale > 0.0:
            i, j = rng.choice(n, 2, replace=False)
            lone = rng.choice([scale * 1e-13, -scale * 1e-13, -5e-324, 5e-324, scale * 1e-11])
            r, c, v = np.append(r, i), np.append(c, j), np.append(v, lone)
    # a few entries split into a duplicate pair, and explicit 0.0 and -0.0
    pick = rng.choice(len(v), min(len(v), int(rng.integers(0, 4))), replace=False)
    part = v[pick] * rng.uniform(0.0, 1.0, len(pick))
    v = v.copy()
    v[pick] -= part
    k = int(rng.integers(0, 4))
    r = np.concatenate([r, r[pick], rng.integers(0, n, k)])
    c = np.concatenate([c, c[pick], rng.integers(0, n, k)])
    v = np.concatenate([v, part, rng.choice([0.0, -0.0], k)])
    order = rng.permutation(len(v))
    r, c, v = r[order], c[order], v[order]

    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    _write_entries(path, n, r, c, v, symmetric)
    try:
        want = _csr_route(n, r, c, v, symmetric)
    except AsymmetricEntries as exc:
        with pytest.raises(AsymmetricEntries, match=re.escape(str(exc))):
            read_matrix_market(path)
        return
    _assert_same_matrix(read_matrix_market(path), want)


@pytest.mark.parametrize("symmetric", [True, False])
def test_reader_sums_a_coordinate_stored_three_times_as_csr_does(tmp_path, symmetric):
    """scipy's sum_duplicates adds 1.0, 1e-16, 1e-16 as 1.0 + (1e-16 + 1e-16)
    = 1.0000000000000002; a bincount would add (1.0 + 1e-16) + 1e-16 = 1.0."""
    r, c = [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]
    v = [1.0, 1e-16, 1e-16, 0.5, 2.0]
    if not symmetric:
        r, c, v = r + [0], c + [1], v + [0.5]
    path = tmp_path / "m.mtx"
    _write_entries(path, 2, r, c, v, symmetric)
    got = read_matrix_market(path)
    assert got.kind == "dense" and got.dense()[0, 0] == 1.0000000000000002
    _assert_same_matrix(got, _csr_route(2, r, c, v, symmetric))


def test_reader_stores_a_halved_subnormal_as_csr_does(tmp_path):
    """A general file's lone -5e-324 symmetrizes to -0.0, which CSR drops:
    the dense matrix holds +0.0 there too."""
    r, c, v = [0, 1, 1], [0, 1, 0], [1.0, 1.0, -5e-324]
    path = tmp_path / "m.mtx"
    _write_entries(path, 2, r, c, v, False)
    got = read_matrix_market(path)
    assert got.kind == "dense" and math.copysign(1.0, got.dense()[1, 0]) == 1.0
    _assert_same_matrix(got, _csr_route(2, r, c, v, False))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_storage_kinds_and_factor_kinds_agree(n, density, seed):
    """Dense and CSR operands of one entry set agree, and each factor's
    product and substitutions match its lower()."""
    rng = np.random.default_rng(seed)
    low = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < density))
    sym = low + np.tril(low, -1).T
    d = SymmetricMatrix.from_dense(sym)
    s = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(sym))
    assert (d.kind, s.kind) == ("dense", "csr")
    npt.assert_array_equal(d.diagonal(), s.diagonal())

    def entries(m):
        return {(int(i), int(j), float(v)) for i, j, v in zip(*m.lower_entries())}

    assert entries(d) == entries(s)
    assert d.fingerprint() == s.fingerprint()
    x = rng.standard_normal(n)
    npt.assert_allclose(d.matvec(x), s.matvec(x), rtol=0,
                        atol=1e-13 * max(np.abs(sym).sum() * np.abs(x).max(), 1e-300))

    spd = sym + np.diag(np.abs(sym).sum(axis=1) + 1.0)
    for b in (SymmetricMatrix.from_dense(spd),
              SymmetricMatrix.from_sparse(scipy.sparse.csr_array(spd))):
        exact_kind = "dense" if b.kind == "dense" else "sparse"
        for f, kind in ((cholesky_factorize(b), exact_kind), (incomplete_cholesky(b), "sparse")):
            assert f.kind == kind
            l = f.lower()
            tol = 1e-12 * np.abs(l).max() * np.abs(x).max()
            npt.assert_allclose(f.apply_upper(x), l.T @ x, rtol=0, atol=tol)
            npt.assert_allclose(l @ f.solve_lower(x), x, rtol=0, atol=tol)
            npt.assert_allclose(l.T @ f.solve_upper(x), x, rtol=0, atol=tol)


def test_file_pencil_solves_like_the_in_memory_pencil(tmp_path):
    """A dense pencil read from .mtx runs the same arithmetic as in memory."""
    pair = gen_synthetic(SyntheticSpec(n=64, kappa_b=10.0, seed=0))
    a = _read_back(pair.a, tmp_path / "A.mtx")
    b = _read_back(pair.b, tmp_path / "B.mtx")
    assert a.kind == "dense" and b.kind == "dense"
    x0 = np.random.default_rng(1).standard_normal(64)

    def outcome(p, method):
        t = solve(p, SolverConfig(method=method, tol=1e-8), x0)
        c = t.counters
        return (t.status, t.iterations, c.matvecs, c.solves, c.pcg_inner,
                t.final().f.hex(), t.final().lam.hex())

    from_file = MatrixPair(a, b)
    for method in METHODS:
        assert outcome(from_file, method) == outcome(pair, method), method


def test_dense_text_round_trip(tmp_path):
    m = SymmetricMatrix.from_dense(rand_spd(9, 31))
    path = tmp_path / "m.txt"
    write_dense_text(m, path)
    back = read_dense_text(path)
    npt.assert_array_equal(back.dense(), m.dense())
    first = path.read_text().splitlines()[0]
    assert first == "9"


def test_dense_text_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    for body in ("", "x\n", "0\n", "3\n1.0 2.0\n"):
        path.write_text(body)
        with pytest.raises(ParseError):
            read_dense_text(path)


def test_read_dense_text_rejects_non_finite(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1.0\nnan 3.0\n")
    with pytest.raises(NonFiniteEntries):
        read_dense_text(path)


@pytest.mark.parametrize("values", [
    [2.0, -0.0, 3.0],
    [1.7e308, -1.7e308, 1.7e308, 5e-324, -0.0, 1.0],
    [-5e-324, 0.0, 2.2250738585072014e-308, -0.0, 1e-310, 4.0],
    list(np.random.default_rng(7).standard_normal(45)),
])
def test_dense_text_reads_the_mirrored_values(tmp_path, values):
    """The packed reader stores the mirrored lower triangle bit for bit:
    dense, on a 64-byte boundary, with -0.0 read as the +0.0 a CSR route
    would leave, and huge and subnormal values kept exactly."""
    n = int(round((math.sqrt(8 * len(values) + 1) - 1) / 2))
    path = tmp_path / "m.txt"
    path.write_text(f"{n}\n" + " ".join(repr(float(v)) for v in values) + "\n")
    want = np.zeros((n, n))
    want[np.tril_indices(n)] = values
    want = want + np.tril(want, -1).T
    got = read_dense_text(path)
    assert got.kind == "dense" and got._m.ctypes.data % 64 == 0
    assert got.dense().tobytes() == want.tobytes()
    assert got.fingerprint() == SymmetricMatrix.from_dense(want).fingerprint()
    assert not np.signbit(got.dense()[want == 0.0]).any()

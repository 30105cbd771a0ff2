"""Objective value, gradient, Hessian action, and curvature bounds."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gepsolve import (
    Counters,
    MatrixPair,
    SymmetricMatrix,
    SyntheticSpec,
    estimate_curvature_bound,
    eval_f,
    gen_synthetic,
    grad_f,
    hess_vec,
    rayleigh_lambda,
    run_split_merge,
    shift_to_psd,
    validate_pair,
)
from gepsolve.errors import DegenerateDirection, DimensionMismatch, InputError
from gepsolve.solvers import SolverConfig


def rand_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(1.0 / cond, 1.0, n)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def rand_pair(n, seed, cond_a=50.0, cond_b=10.0):
    a = SymmetricMatrix.from_dense(rand_spd(n, seed, cond_a))
    b = SymmetricMatrix.from_dense(rand_spd(n, seed + 1, cond_b))
    return MatrixPair(a, b)


def f_dense(pair, x):
    a, b = pair.a.dense(), pair.b.dense()
    return float(x @ b @ x - np.sqrt(max(float(x @ a @ x), 0.0)))


def diag_pair(avals, bvals):
    return MatrixPair(SymmetricMatrix.from_dense(np.diag(avals)),
                      SymmetricMatrix.from_dense(np.diag(bvals)))


# ---------------------------------------------------------------------------
# Value and analytic identities


def test_eval_identity_pair():
    pair = diag_pair([1.0, 1.0], [1.0, 1.0])
    assert eval_f(pair, np.array([1.0, 0.0])) == 0.0


def test_eval_diagonal_minimum():
    """At the dominant eigenvector scaled to the stationary radius the value
    is minus a quarter of the top eigenvalue."""
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    assert eval_f(pair, np.array([1.0, 0.0])) == -1.0


def test_eval_matches_dense():
    rng = np.random.default_rng(40)
    for trial in range(20):
        pair = rand_pair(15, 600 + trial)
        x = rng.standard_normal(15)
        got = eval_f(pair, x)
        want = f_dense(pair, x)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_eval_zero_vector():
    pair = rand_pair(6, 41)
    assert eval_f(pair, np.zeros(6)) == 0.0


def test_scale_law():
    """f(c x) = c^2 x'Bx - |c| sqrt(x'Ax) exactly."""
    rng = np.random.default_rng(42)
    pair = rand_pair(10, 43)
    x = rng.standard_normal(10)
    xbx = float(x @ pair.b.matvec(x))
    xax = float(x @ pair.a.matvec(x))
    for c in (-2.5, -1.0, -0.1, 0.0, 0.3, 1.0, 7.0):
        want = c * c * xbx - abs(c) * np.sqrt(xax)
        npt.assert_allclose(eval_f(pair, c * x), want, rtol=1e-13, atol=1e-15)


def test_pair_dimension_mismatch():
    a = SymmetricMatrix.from_dense(np.eye(3))
    b = SymmetricMatrix.from_dense(np.eye(2))
    with pytest.raises(DimensionMismatch):
        MatrixPair(a, b)


def test_eval_dimension_mismatch():
    pair = rand_pair(5, 44)
    with pytest.raises(DimensionMismatch):
        eval_f(pair, np.ones(6))


# ---------------------------------------------------------------------------
# Gradient


def test_grad_identity_pair():
    pair = diag_pair([1.0, 1.0], [1.0, 1.0])
    npt.assert_allclose(grad_f(pair, np.array([1.0, 0.0])),
                        np.array([1.0, 0.0]), rtol=0, atol=1e-15)


def test_grad_stationary_point():
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    npt.assert_allclose(grad_f(pair, np.array([1.0, 0.0])),
                        np.zeros(2), rtol=0, atol=1e-15)


def test_grad_matches_finite_differences():
    """Central differences of the value reproduce the gradient."""
    trial = 0
    for n in (5, 20, 50):
        for rep in (0, 1, 2, 3):
            pair = rand_pair(n, 700 + trial)
            rng = np.random.default_rng(800 + trial)
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            g = grad_f(pair, x)
            h = 1e-6
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (f_dense(pair, x + e) - f_dense(pair, x - e)) / (2.0 * h)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)
            trial += 1


def test_grad_counts_two_matvecs():
    pair = rand_pair(8, 45)
    counters = Counters()
    grad_f(pair, np.ones(8), counters)
    assert counters.matvecs == 2
    assert counters.solves == 0


def test_grad_degenerate_direction():
    pair = diag_pair([1.0, 0.0], [2.0, 1.0])
    with pytest.raises(DegenerateDirection):
        grad_f(pair, np.array([0.0, 1.0]))


def test_overflowed_xax_is_degenerate_for_grad_and_hess():
    """An x'Ax that overflows to NaN is degenerate: grad_f and hess_vec raise
    instead of returning NaN vectors."""
    pair = gen_synthetic(SyntheticSpec(n=16, kappa_b=10.0))
    x = 2.0**600 * np.random.default_rng(3).standard_normal(16)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(float(x @ pair.a.matvec(x)))
        with pytest.raises(DegenerateDirection):
            grad_f(pair, x)
        with pytest.raises(DegenerateDirection):
            hess_vec(pair, x, np.ones(16))


# ---------------------------------------------------------------------------
# Hessian action


def test_hess_vec_identity_pair():
    pair = diag_pair([1.0, 1.0], [1.0, 1.0])
    got = hess_vec(pair, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    npt.assert_allclose(got, np.array([0.0, 1.0]), rtol=0, atol=1e-15)


def test_hess_vec_along_x_is_2bx():
    """Applied to x itself the curvature terms cancel, leaving 2Bx."""
    rng = np.random.default_rng(46)
    for trial in range(10):
        pair = rand_pair(12, 900 + trial)
        x = rng.standard_normal(12)
        got = hess_vec(pair, x, x)
        want = 2.0 * pair.b.matvec(x)
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_hess_vec_matches_gradient_differences():
    trial = 0
    for n in (5, 20, 50):
        for rep in (0, 1, 2, 3):
            pair = rand_pair(n, 1000 + trial)
            rng = np.random.default_rng(1100 + trial)
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            hv = hess_vec(pair, x, v)
            h = 1e-5
            fd = (grad_f(pair, x + h * v) - grad_f(pair, x - h * v)) / (2.0 * h)
            assert np.linalg.norm(fd - hv) <= 1e-5 * np.linalg.norm(hv)
            trial += 1


def test_hess_vec_counts_three_matvecs():
    pair = rand_pair(8, 47)
    counters = Counters()
    hess_vec(pair, np.ones(8), np.ones(8), counters)
    assert counters.matvecs == 3


# ---------------------------------------------------------------------------
# Eigenvalue estimate and stationarity


def test_rayleigh_lambda_diagonal():
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    assert rayleigh_lambda(pair, np.array([1.0, 0.0])) == 4.0
    assert rayleigh_lambda(pair, np.zeros(2)) == 0.0


def test_stationary_scale_of_every_eigenpair():
    """Each generalized eigenvector, rescaled to its stationary radius,
    zeroes the gradient."""
    for trial in range(10):
        pair = rand_pair(8, 1200 + trial)
        w, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())
        lam1 = w[-1]
        for i in range(8):
            lam, u = w[i], vecs[:, i]
            if lam <= 1e-8 * lam1:
                continue
            uau = float(u @ pair.a.matvec(u))
            x_star = (lam / (2.0 * np.sqrt(uau))) * u
            g = grad_f(pair, x_star)
            assert np.linalg.norm(g) <= 1e-10 * lam1
            npt.assert_allclose(rayleigh_lambda(pair, x_star), lam,
                                rtol=1e-12, atol=0)


def test_converged_iterate_estimates_lambda():
    pair = rand_pair(24, 48)
    w = scipy.linalg.eigh(pair.a.dense(), pair.b.dense(), eigvals_only=True)
    lam_ref, u_ref = w[-1], scipy.linalg.eigh(pair.a.dense(), pair.b.dense())[1][:, -1]
    rng = np.random.default_rng(49)
    trace = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-8,
                                               reference=u_ref),
                            rng.standard_normal(24))
    assert trace.converged
    # the solver returns a unit direction; the eigenvalue estimate applies
    # at the stationary radius along that ray
    d = trace.x
    scale = np.sqrt(float(d @ pair.a.matvec(d))) / (2.0 * float(d @ pair.b.matvec(d)))
    est = rayleigh_lambda(pair, scale * d)
    assert abs(est - lam_ref) <= 1e-6 * lam_ref
    assert abs(trace.final().lam - lam_ref) <= 1e-6 * lam_ref


# ---------------------------------------------------------------------------
# Curvature bound


def test_curvature_bound_diagonal_dominant():
    b = SymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    bound = estimate_curvature_bound(b, method="dominant")
    assert bound.method == "dominant"
    assert 6.0 * 0.999 <= bound.bound <= 6.0 * 1.011


def test_curvature_bound_diagonal_trace():
    b = SymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    bound = estimate_curvature_bound(b, method="trace")
    assert bound.method == "trace"
    assert bound.bound == 12.0


def test_curvature_bound_tracks_reference():
    for trial in range(10):
        b_dense = rand_spd(16, 1300 + trial, cond=4.0 + trial)
        b = SymmetricMatrix.from_dense(b_dense)
        lam1 = np.linalg.eigvalsh(b_dense)[-1]
        est = estimate_curvature_bound(b, method="dominant").bound
        assert abs(est - 2.0 * lam1) <= 0.02 * 2.0 * lam1


def test_curvature_bound_dominates_hessian():
    """v'Hv never exceeds the bound, for either estimation method."""
    rng = np.random.default_rng(50)
    for trial in range(25):
        pair = rand_pair(10, 1400 + trial)
        x = rng.standard_normal(10)
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        vhv = float(v @ hess_vec(pair, x, v))
        for method in ("dominant", "trace"):
            bound = estimate_curvature_bound(pair.b, method=method).bound
            assert vhv <= bound + 1e-8


@pytest.mark.parametrize("scale", [1e307, 1e-300])
def test_curvature_bound_survives_an_under_or_overflowing_norm(scale):
    """w'w overflows for B = 1e307 I and underflows for 1e-300 I, yet the
    bound is finite and at least twice B's largest eigenvalue."""
    b = SymmetricMatrix.from_dense(scale * np.eye(32))
    bound = estimate_curvature_bound(b, method="dominant").bound
    assert math.isfinite(bound)
    assert bound >= 2.0 * scale


def test_curvature_bound_unknown_method():
    b = SymmetricMatrix.from_dense(np.eye(2))
    with pytest.raises(Exception):
        estimate_curvature_bound(b, method="nope")


# ---------------------------------------------------------------------------
# Pair validation and shifting


def test_validate_identity_pair():
    diag = validate_pair(diag_pair([1.0, 1.0], [1.0, 1.0]))
    assert diag.b_positive_definite
    assert diag.a_positive_semidefinite


def test_validate_negative_a():
    diag = validate_pair(diag_pair([-1.0, -1.0], [1.0, 1.0]))
    assert diag.b_positive_definite
    assert not diag.a_positive_semidefinite


def test_validate_matches_dense_sign_check():
    for trial in range(12):
        rng = np.random.default_rng(1500 + trial)
        a_dense = rng.standard_normal((9, 9))
        a_dense = 0.5 * (a_dense + a_dense.T)
        b_dense = rand_spd(9, 1600 + trial)
        pair = MatrixPair(SymmetricMatrix.from_dense(a_dense),
                          SymmetricMatrix.from_dense(b_dense))
        diag = validate_pair(pair)
        w_min = scipy.linalg.eigh(a_dense, b_dense, eigvals_only=True)[0]
        assert diag.a_positive_semidefinite == (w_min >= -1e-10)
        npt.assert_allclose(diag.min_generalized_eigenvalue, w_min,
                            rtol=1e-8, atol=1e-10)


def test_validate_psd_pencil_is_pinned():
    diag = validate_pair(gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=5)))
    assert diag.b_positive_definite
    assert diag.a_positive_semidefinite
    assert diag.min_generalized_eigenvalue == pytest.approx(
        0.018724079211986464, rel=1e-10, abs=0)
    assert diag.route == "dense-eigensolver"


def test_validate_indefinite_a_pencil_is_pinned():
    rng = np.random.default_rng(21)
    a_dense = rng.standard_normal((12, 12))
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    b_dense = (q * np.linspace(0.2, 1.0, 12)) @ q.T
    pair = MatrixPair(SymmetricMatrix.from_dense(0.5 * (a_dense + a_dense.T)),
                      SymmetricMatrix.from_dense(0.5 * (b_dense + b_dense.T)))
    diag = validate_pair(pair)
    assert diag.b_positive_definite
    assert not diag.a_positive_semidefinite
    assert diag.min_generalized_eigenvalue == pytest.approx(
        -8.376028346461883, rel=1e-10, abs=0)


def test_validate_indefinite_b():
    pair = MatrixPair(SymmetricMatrix.from_dense(np.eye(2)),
                      SymmetricMatrix.from_dense(np.diag([1.0, -1.0])))
    diag = validate_pair(pair)
    assert not diag.b_positive_definite


def test_validate_squared_laplacian_with_indefinite_b():
    """A = K^2 for the 8x8 1-D Laplacian K is definite (smallest eigenvalue
    0.0145) but its rows are far from diagonally dominant; with B indefinite
    the check reads A's own spectrum."""
    k = 2.0 * np.eye(8) - np.eye(8, k=1) - np.eye(8, k=-1)
    b = np.ones(8)
    b[1] = -1.0
    diag = validate_pair(MatrixPair(SymmetricMatrix.from_dense(k @ k),
                                    SymmetricMatrix.from_dense(np.diag(b))))
    assert not diag.b_positive_definite
    assert diag.a_positive_semidefinite
    assert diag.min_generalized_eigenvalue is None
    assert diag.route == "dense-eigensolver"


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       shift=st.one_of(st.just(0.0), st.floats(0.1, 3.0)), b_definite=st.booleans())
def test_validate_pair_signs_match_spectra(n, seed, shift, b_definite):
    """A's sign test agrees with its own spectrum whatever B is (Sylvester's
    law of inertia); with B definite the pencil's bottom eigenvalue is
    LAPACK's."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a_dense = m @ m.T - shift * np.eye(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b_vals = rng.uniform(0.1, 1.0, n)
    if not b_definite:
        b_vals[rng.integers(n)] *= -1.0
    b_dense = (q * b_vals) @ q.T
    a_vals = np.linalg.eigvalsh(a_dense)
    assume(abs(a_vals[0]) > 1e-6 * np.max(np.abs(a_vals)))

    diag = validate_pair(MatrixPair(SymmetricMatrix.from_dense(a_dense),
                                    SymmetricMatrix.from_dense(b_dense)))
    assert diag.b_positive_definite == bool(np.linalg.eigvalsh(b_dense)[0] > 0.0)
    assert diag.a_positive_semidefinite == bool(a_vals[0] > 0.0)
    if diag.b_positive_definite:
        w = scipy.linalg.eigh(a_dense, b_dense, eigvals_only=True)
        npt.assert_allclose(diag.min_generalized_eigenvalue, w[0], rtol=1e-8,
                            atol=1e-12 * np.max(np.abs(w)))
    else:
        assert diag.min_generalized_eigenvalue is None


def test_shift_noop_when_psd():
    pair = rand_pair(7, 51)
    shifted = shift_to_psd(pair, margin=0.0)
    assert shifted is pair


def test_shift_analytic_case():
    pair = MatrixPair(SymmetricMatrix.from_dense(-np.eye(2)),
                      SymmetricMatrix.from_dense(np.eye(2)))
    shifted = shift_to_psd(pair, margin=0.5)
    npt.assert_allclose(shifted.a.dense(), 0.5 * np.eye(2), rtol=0, atol=1e-12)


def test_shift_reaches_margin():
    for trial in range(8):
        rng = np.random.default_rng(1700 + trial)
        a_dense = rng.standard_normal((8, 8))
        a_dense = 0.5 * (a_dense + a_dense.T)
        b_dense = rand_spd(8, 1800 + trial)
        pair = MatrixPair(SymmetricMatrix.from_dense(a_dense),
                          SymmetricMatrix.from_dense(b_dense))
        margin = 0.25
        shifted = shift_to_psd(pair, margin=margin)
        w_min = scipy.linalg.eigh(shifted.a.dense(), b_dense,
                                  eigvals_only=True)[0]
        assert w_min >= margin - 1e-8


def test_shift_preserves_eigenvectors():
    """Shifting moves every eigenvalue by the same amount and keeps the
    eigenvectors."""
    rng = np.random.default_rng(52)
    a_dense = rng.standard_normal((6, 6))
    a_dense = 0.5 * (a_dense + a_dense.T)
    b_dense = rand_spd(6, 53)
    pair = MatrixPair(SymmetricMatrix.from_dense(a_dense),
                      SymmetricMatrix.from_dense(b_dense))
    shifted = shift_to_psd(pair, margin=0.1)
    w0, v0 = scipy.linalg.eigh(a_dense, b_dense)
    w1, v1 = scipy.linalg.eigh(shifted.a.dense(), b_dense)
    diffs = w1 - w0
    npt.assert_allclose(diffs, diffs[0], rtol=0, atol=1e-9)
    for i in range(6):
        dot = abs(float(v0[:, i] @ b_dense @ v1[:, i]))
        norm0 = float(v0[:, i] @ b_dense @ v0[:, i])
        assert dot >= (1.0 - 1e-8) * norm0


def test_shift_keeps_a_csr_pair_sparse():
    a = SymmetricMatrix.from_sparse(scipy.sparse.diags_array([1.0, -2.0, 0.5, 0.3]).tocsr())
    b = SymmetricMatrix.from_sparse(scipy.sparse.eye_array(4, format="csr"))
    shifted = shift_to_psd(MatrixPair(a, b), margin=0.1)
    assert shifted.a.kind == "csr" and shifted.b is b
    npt.assert_allclose(shifted.a.diagonal(), [3.1, 0.1, 2.6, 2.4], rtol=0, atol=1e-12)
    npt.assert_array_equal(shifted.a.dense(), np.diag(shifted.a.diagonal()))


@pytest.mark.parametrize("margin", [math.nan, math.inf])
def test_shift_rejects_non_finite_margin(margin):
    with pytest.raises(InputError, match="margin"):
        shift_to_psd(rand_pair(4, 60), margin=margin)

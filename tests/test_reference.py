"""Certified reference eigenpair: dense route, iterative route, examples."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from gepsolve import MatrixPair, SymmetricMatrix, SyntheticSpec, gen_synthetic, reference_solution
from gepsolve.errors import NotPositiveDefinite


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


def test_diagonal_example():
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([4.0, 1.0])),
                      SymmetricMatrix.from_dense(np.eye(2)))
    ref = reference_solution(pair)
    assert ref.lam == pytest.approx(4.0, rel=1e-12)
    npt.assert_allclose(np.abs(ref.u), [1.0, 0.0], atol=1e-12)
    assert ref.route == "dense-lapack"
    assert ref.residual <= 1e-8 * ref.lam


def test_two_by_two_analytic():
    # eigenvalues are 2/2 = 1 along e1 and 2/1 = 2 along e2
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([2.0, 2.0])),
                      SymmetricMatrix.from_dense(np.diag([2.0, 1.0])))
    ref = reference_solution(pair)
    assert ref.lam == pytest.approx(2.0, rel=1e-12)
    npt.assert_allclose(np.abs(ref.u), [0.0, 1.0], atol=1e-12)


def test_random_pair_certificate_and_agreement():
    pair = rand_pair(16, 33)
    ref = reference_solution(pair)
    assert ref.residual <= 1e-8 * ref.lam
    vals, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())
    assert abs(ref.lam - vals[-1]) <= 1e-10 * vals[-1]
    cos = abs(float(ref.u @ pair.b.dense() @ vecs[:, -1]))
    bnorm = np.sqrt(float(ref.u @ pair.b.dense() @ ref.u))
    assert np.sqrt(max(0.0, 1.0 - (cos / bnorm) ** 2)) <= 1e-8


def test_result_is_b_normalized():
    pair = rand_pair(12, 34)
    ref = reference_solution(pair)
    gram = float(ref.u @ pair.b.matvec(ref.u))
    assert abs(gram - 1.0) <= 1e-12


def test_iterative_route_agrees_with_dense():
    pair = rand_pair(32, 35, cond_a=20.0, cond_b=6.0)
    dense = reference_solution(pair)
    iterative = reference_solution(pair, dense_limit=16)
    assert dense.route == "dense-lapack"
    assert iterative.route == "iterative"
    assert iterative.residual <= 1e-8 * iterative.lam
    assert abs(iterative.lam - dense.lam) <= 1e-8 * dense.lam
    cos = abs(float(iterative.u @ pair.b.dense() @ dense.u))
    assert np.sqrt(max(0.0, 1.0 - cos * cos)) <= 1e-7


def test_deterministic():
    pair = rand_pair(10, 36)
    first = reference_solution(pair)
    second = reference_solution(pair)
    assert first.lam == second.lam
    npt.assert_array_equal(first.u, second.u)


# The four cells of the ci benchmark grid as `run_suite` builds them at suite
# seed 0 (its report records these pair seeds), with their dominant
# eigenvalues: the reference must keep returning them.
GRID_CI_REFERENCE = [
    (64, 10.0, 2968811710, 5.386186397171365),
    (64, 100.0, 3964924996, 56.02772123192435),
    (128, 10.0, 3141116543, 5.369283305200665),
    (128, 100.0, 2613022947, 47.13109144726436),
]


@pytest.mark.parametrize("n, kappa_b, seed, lam", GRID_CI_REFERENCE)
def test_grid_ci_reference_eigenvalues_are_pinned(n, kappa_b, seed, lam):
    pair = gen_synthetic(SyntheticSpec(n=n, kappa_b=kappa_b, kappa_a=100.0, seed=seed))
    ref = reference_solution(pair)
    assert ref.lam == pytest.approx(lam, rel=1e-12, abs=0)
    assert ref.residual <= 1e-8 * ref.lam


def test_indefinite_b_raises_not_positive_definite():
    pair = MatrixPair(SymmetricMatrix.from_dense(np.eye(3)),
                      SymmetricMatrix.from_dense(np.diag([1.0, -1.0, 2.0])))
    with pytest.raises(NotPositiveDefinite):
        reference_solution(pair)


def test_numerically_singular_b_raises_not_positive_definite():
    # LAPACK factors this B and certifies lambda = 1e16; the reference keeps
    # the solvers' pivot floor instead
    pair = MatrixPair(SymmetricMatrix.from_dense(np.eye(3)),
                      SymmetricMatrix.from_dense(np.diag([1.0, 1.0, 1e-16])))
    with pytest.raises(NotPositiveDefinite):
        reference_solution(pair)

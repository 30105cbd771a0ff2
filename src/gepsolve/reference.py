"""Trusted reference eigenpair for benchmarking and stopping checks.

Route ``dense-lapack``, LAPACK's ``scipy.linalg.eigh`` at the top index, takes
a dense B of order up to 4096 with a materializable A. Route ``arpack``, ARPACK's
Lanczos in B's inner product (``eigsh``, k = 1) solving through B's cached
factor, takes every other pair. Either result must pass ||A u - lambda B u|| <=
1e-8 lambda or an error is raised: an uncertified reference is worse than none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NotPositiveDefinite, NumericalError
from .objective import MatrixPair

DENSE_LIMIT = 4096
CERTIFICATE_RTOL = 1e-8


@dataclass
class ReferencePair:
    lam: float
    u: np.ndarray  # B-normalized
    route: str  # dense-lapack (dense B up to DENSE_LIMIT, A materializable) | arpack (the rest)
    residual: float


def reference_solution(pair: MatrixPair) -> ReferencePair:
    """Dominant generalized eigenpair with a residual certificate."""
    if pair.b.kind == "dense" and pair.n <= DENSE_LIMIT and hasattr(pair.a, "dense"):
        lam, u, route = _dense_route(pair)
    else:
        lam, u, route = _arpack_route(pair)

    bu = pair.b.matvec(u)
    u = u / np.sqrt(float(u @ bu))
    residual = float(np.linalg.norm(pair.a.matvec(u) - lam * pair.b.matvec(u)))
    if residual > CERTIFICATE_RTOL * max(lam, 1e-300):
        raise NumericalError(
            f"reference residual {residual:.3e} exceeds {CERTIFICATE_RTOL} * {lam:.6e}")
    return ReferencePair(float(lam), u, route, residual)


def _dense_route(pair: MatrixPair):
    # the solvers' pivot floor; LAPACK alone accepts a numerically singular B
    pair.b.cholesky()
    n = pair.n
    try:
        evals, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense(),
                                        subset_by_index=[n - 1, n - 1], check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return float(evals[0]), vecs[:, 0], "dense-lapack"


def _arpack_route(pair: MatrixPair):
    n, solve = pair.n, pair.b.cholesky().solve
    if n == 1:  # eigsh needs k < n, and the one direction is the eigenvector
        u = np.ones(1)
        return float(pair.a.matvec(u)[0] / pair.b.matvec(u)[0]), u, "arpack"
    a = LinearOperator((n, n), matvec=pair.a.matvec, dtype=np.float64)
    b = LinearOperator((n, n), matvec=pair.b.matvec, dtype=np.float64)
    b_inv = LinearOperator((n, n), matvec=solve, dtype=np.float64)
    try:
        evals, vecs = eigsh(a, k=1, M=b, Minv=b_inv, which="LA",
                            v0=np.random.default_rng(7).standard_normal(n))
    except ArpackError as exc:  # ArpackNoConvergence is one
        raise NumericalError(f"ARPACK reference failed: {exc}") from exc
    return float(evals[0]), vecs[:, 0], "arpack"

"""Trusted reference eigenpair for benchmarking and stopping checks.

Dense pairs up to order 4096 go to LAPACK's generalized symmetric-definite
eigensolver (``scipy.linalg.eigh`` restricted to the top index); larger
pairs run a tight split-merge solve. The result must pass the residual
certificate ||A u - lambda B u|| <= 1e-8 lambda or an error is raised: a
reference that cannot certify itself is worse than none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, NumericalError
from .objective import MatrixPair
from .solvers import SolverConfig, run_split_merge

DENSE_LIMIT = 4096
CERTIFICATE_RTOL = 1e-8


@dataclass
class ReferencePair:
    lam: float
    u: np.ndarray  # B-normalized
    route: str  # dense-lapack (pairs up to DENSE_LIMIT) | iterative
    residual: float


def reference_solution(pair: MatrixPair, dense_limit: int = DENSE_LIMIT) -> ReferencePair:
    """Dominant generalized eigenpair with a residual certificate."""
    if pair.n <= dense_limit:
        lam, u, route = _dense_route(pair)
    else:
        lam, u, route = _iterative_route(pair)

    bu = pair.b.matvec(u)
    u = u / np.sqrt(float(u @ bu))
    residual = float(np.linalg.norm(pair.a.matvec(u) - lam * pair.b.matvec(u)))
    if residual > CERTIFICATE_RTOL * max(lam, 1e-300):
        raise NumericalError(
            f"reference residual {residual:.3e} exceeds {CERTIFICATE_RTOL} * {lam:.6e}")
    return ReferencePair(float(lam), u, route, residual)


def _dense_route(pair: MatrixPair):
    if not hasattr(pair.a, "dense"):
        raise NumericalError("dense reference needs a materializable A operand")
    # the solvers' pivot floor; LAPACK alone accepts a numerically singular B
    pair.b.cholesky()
    n = pair.n
    try:
        evals, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense(),
                                        subset_by_index=[n - 1, n - 1], check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return float(evals[0]), vecs[:, 0], "dense-lapack"


def _iterative_route(pair: MatrixPair):
    config = SolverConfig(method="split-merge", tol=1e-10, seed=7)
    rng = np.random.default_rng(7)
    trace = run_split_merge(pair, config, rng.standard_normal(pair.n))
    if not trace.converged:
        raise NumericalError(f"iterative reference ended {trace.status}")
    return trace.final().lam, trace.x, "iterative"

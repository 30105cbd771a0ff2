"""Deflation of converged eigenpairs and the staged top-k driver.

After accepting a B-normalized eigenvector u, the operand is replaced by
P A P' with P = I - (Bu) u', applied implicitly as three rank-1 corrections
around one base matvec. The corrected operator annihilates u, pushes the
accepted eigenvalue to zero, and leaves the remaining spectrum alone, so
the single-pair solvers apply unchanged stage after stage.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .errors import DimensionMismatch, NotNormalized, StageFailure
from .linalg import Counters, as_vector
from .objective import MatrixPair
from .solvers import SolverConfig, prepare, solve

NORMALIZATION_ATOL = 1e-10


class DeflatedOperator:
    """A with one eigenpair projected out: P A P', P = I - (Bu) u'."""

    def __init__(self, base, b, u: np.ndarray):
        u = as_vector(u, b.n)  # a list u would leave matvec multiplying a list
        bu = b.matvec(u)
        gram = float(u @ bu)
        if abs(gram - 1.0) > NORMALIZATION_ATOL:
            raise NotNormalized(f"u'Bu = {gram!r} is not 1 within {NORMALIZATION_ATOL}")
        self.base = base
        self.b = b
        self.u = u.copy()
        self.bu = bu
        self.n = b.n

    def matvec(self, x: np.ndarray, counters: Counters | None = None) -> np.ndarray:
        x = as_vector(x, self.n)  # daxpy and ddot would raise f2py's error, not ours
        y = self.base.matvec(daxpy(x, self.u * -ddot(self.bu, x)), counters)
        return daxpy(y, self.bu * -ddot(self.u, y))

    def diagonal(self) -> np.ndarray:
        # row i of P A P' needs the full correction: materializes it per call
        return np.diagonal(self.dense()).copy()

    def dense(self) -> np.ndarray:
        base = self.base.dense()
        p = np.eye(self.n) - np.outer(self.bu, self.u)
        return p @ base @ p.T

    @property
    def depth(self) -> int:
        return 1 + getattr(self.base, "depth", 0)


def deflate(a, b, u: np.ndarray) -> DeflatedOperator:
    """Wrap the operand with the projection for one accepted eigenvector.

    u must be B-normalized within 1e-10. The base may itself be deflated;
    stages nest, each adding O(n) work per matvec.
    """
    return DeflatedOperator(a, b, u)


def top_k(pair: MatrixPair, k: int, config: SolverConfig,
          x0: np.ndarray | None = None) -> list[tuple[float, np.ndarray]]:
    """Leading k generalized eigenpairs by repeated solve-and-deflate.

    Stage s runs the configured method on the current deflated operand in
    reference-free mode, B-normalizes the converged direction, records
    (lambda, u), and deflates. Later stages restart from a seeded random
    vector B-orthogonalized against everything accepted. A stage that does
    not converge raises StageFailure carrying the pairs found so far. The
    method's set-up depends on B alone, so ``prepare`` runs once, before
    stage 1, for all stages.

    Eigenvalues come back in nonincreasing order up to the stopping
    tolerance; eigenvector signs are arbitrary.
    """
    if not 1 <= k <= pair.n:
        raise DimensionMismatch(f"k = {k} outside 1..{pair.n}")
    rng = np.random.default_rng(config.seed)
    if x0 is None:
        x0 = rng.standard_normal(pair.n)

    pairs: list[tuple[float, np.ndarray]] = []
    operand = pair.a
    start = np.asarray(x0, dtype=np.float64)
    stage_config = prepare(pair, replace(config, reference=None))

    for stage in range(1, k + 1):
        staged = MatrixPair(operand, pair.b)
        trace = solve(staged, stage_config, start)
        if not trace.converged:
            raise StageFailure(stage, pairs,
                               f"stage {stage} ended {trace.status} after "
                               f"{trace.iterations} iterations")
        direction = trace.x
        bnorm = np.sqrt(float(direction @ pair.b.matvec(direction)))
        u = direction / bnorm
        # u'Bu = 1, so the generalized Rayleigh quotient is just u'Au
        lam = float(u @ operand.matvec(u))
        pairs.append((lam, u))
        if stage == k:
            break
        operand = deflate(operand, pair.b, u)
        start = rng.standard_normal(pair.n)
        for _, prev in pairs:
            start = start - prev * float(pair.b.matvec(prev) @ start)

    return pairs

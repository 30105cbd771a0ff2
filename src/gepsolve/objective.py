"""The difference objective and its derivatives.

For a pair (A, B) with A symmetric positive semidefinite and B symmetric
positive definite, the objective is

    f(x) = x'Bx - sqrt(x'Ax)

with gradient 2Bx - Ax / sqrt(x'Ax) and Hessian

    2B - A / sqrt(x'Ax) + (Ax)(Ax)' / (x'Ax)^{3/2}.

Stationary points are generalized eigenvectors scaled so that the estimate
2 sqrt(x'Ax) equals the eigenvalue; the global minimum value is a quarter of
the largest eigenvalue, negated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateDirection, DimensionMismatch, InputError, NotPositiveDefinite
from .linalg import Counters, SymmetricMatrix, add_scaled, dominant_eigenvalue

DEGENERATE_RTOL = 1e-30
PSD_RTOL = 1e-10


@dataclass
class MatrixPair:
    """Operand pair of the generalized problem A u = lambda B u.

    ``a`` may be any operator exposing ``n`` and ``matvec`` (deflated
    operators qualify); ``b`` must be a SymmetricMatrix because solvers and
    preconditioners factor it.
    """

    a: object
    b: SymmetricMatrix

    def __post_init__(self):
        if self.a.n != self.b.n:
            raise DimensionMismatch(f"orders differ: {self.a.n} vs {self.b.n}")

    @property
    def n(self) -> int:
        return self.b.n


@dataclass
class PairDiagnosis:
    b_positive_definite: bool
    a_positive_semidefinite: bool
    min_generalized_eigenvalue: float | None
    route: str


def validate_pair(pair: MatrixPair) -> PairDiagnosis:
    """Check definiteness of the pair with one dense eigensolve at any order.

    B is declared positive definite iff its Cholesky factorization succeeds.
    LAPACK's symmetric eigensolver (``scipy.linalg.eigh``) then gives the
    spectrum of the pencil (A, B) when B is definite, and A's own spectrum
    when it is not; the pencil's eigenvalues have the signs of A's
    (Sylvester's law of inertia). A is positive semidefinite when the
    smallest eigenvalue is at least -PSD_RTOL times the largest magnitude.
    ``min_generalized_eigenvalue`` is None when B is not definite.
    """
    try:
        pair.b.cholesky()
        b_pd = True
    except NotPositiveDefinite:
        b_pd = False
    if not hasattr(pair.a, "dense"):
        raise InputError("validate_pair needs a materializable A operand")
    evals = scipy.linalg.eigh(pair.a.dense(), pair.b.dense() if b_pd else None,
                              eigvals_only=True, check_finite=False)
    scale = float(np.max(np.abs(evals)))
    a_psd = bool(evals[0] >= -PSD_RTOL * max(scale, 1e-300))
    return PairDiagnosis(b_pd, a_psd, float(evals[0]) if b_pd else None, "dense-eigensolver")


def shift_to_psd(pair: MatrixPair, margin: float = 0.0) -> MatrixPair:
    """Replace A by A + eta B with eta = max(0, -lambda_min(A, B)) + margin.

    When the computed eta is zero the input pair object itself is returned.
    Requires matrix-backed operands (the shifted A is materialized).
    """
    if not (0.0 <= margin < np.inf):
        raise InputError(f"margin must be nonnegative and finite, got {margin}")
    diag = validate_pair(pair)
    if not diag.b_positive_definite:
        raise NotPositiveDefinite("B must be positive definite to shift against")
    eta = max(0.0, -diag.min_generalized_eigenvalue) + margin
    if eta == 0.0:
        return pair
    if not isinstance(pair.a, SymmetricMatrix):
        raise InputError("shift requires a matrix-backed A operand")
    return MatrixPair(add_scaled(pair.a, pair.b, eta), pair.b)


def eval_f(pair: MatrixPair, x: np.ndarray, counters: Counters | None = None) -> float:
    """Objective value; x'Ax is clamped at zero before the square root."""
    xax = float(x @ pair.a.matvec(x, counters))
    xbx = float(x @ pair.b.matvec(x, counters))
    return xbx - np.sqrt(max(xax, 0.0))


def grad_f(pair: MatrixPair, x: np.ndarray, counters: Counters | None = None) -> np.ndarray:
    """Gradient 2Bx - Ax / sqrt(x'Ax), two matvecs exactly.

    Raises DegenerateDirection unless x'Ax > 1e-30 ||x||^2 (so also for a NaN
    x'Ax): the gradient is undefined on the null space of A.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = pair.a.matvec(x, counters)
    bx = pair.b.matvec(x, counters)
    xax = float(x @ ax)
    if not xax > DEGENERATE_RTOL * float(x @ x):
        raise DegenerateDirection(f"x'Ax = {xax:.3e} is degenerate at ||x||^2 = {float(x @ x):.3e}")
    return 2.0 * bx - ax / np.sqrt(xax)


def hess_vec(pair: MatrixPair, x: np.ndarray, v: np.ndarray,
             counters: Counters | None = None) -> np.ndarray:
    """Hessian-vector product at x applied to v (three matvecs)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    ax = pair.a.matvec(x, counters)
    xax = float(x @ ax)
    if not xax > DEGENERATE_RTOL * float(x @ x):
        raise DegenerateDirection(f"x'Ax = {xax:.3e} is degenerate")
    av = pair.a.matvec(v, counters)
    bv = pair.b.matvec(v, counters)
    root = np.sqrt(xax)
    return 2.0 * bv - av / root + ax * (float(ax @ v) / (xax * root))


def rayleigh_lambda(pair: MatrixPair, x: np.ndarray,
                    counters: Counters | None = None) -> float:
    """Eigenvalue estimate 2 sqrt(x'Ax) carried by a stationary iterate."""
    x = np.asarray(x, dtype=np.float64)
    ax = pair.a.matvec(x, counters)
    return 2.0 * np.sqrt(max(float(x @ ax), 0.0))


@dataclass
class CurvatureBound:
    """Upper bound on the positive part of the objective's curvature."""

    bound: float
    method: str


def estimate_curvature_bound(b: SymmetricMatrix, method: str = "dominant") -> CurvatureBound:
    """Bound the Hessian of f from above by bound * I.

    'dominant' returns twice a power-iteration estimate of the largest
    eigenvalue of B (relative tolerance 1e-6, inflated by 1%); 'trace'
    returns twice the trace of B, cheaper and always valid since the
    largest eigenvalue never exceeds the trace for positive definite B.
    """
    if method == "dominant":
        lam = dominant_eigenvalue(lambda v: b.matvec(v), b.n, rtol=1e-6)
        return CurvatureBound(2.0 * lam, "dominant")
    if method == "trace":
        return CurvatureBound(2.0 * b.trace(), "trace")
    raise ValueError(f"unknown curvature method {method!r}")

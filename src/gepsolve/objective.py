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
from .linalg import Counters, SymmetricMatrix, add_scaled, cholesky_factorize, \
    dominant_eigenvalue

DEGENERATE_RTOL = 1e-30
PSD_RTOL = 1e-10
DENSE_VALIDATE_LIMIT = 2048


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


def _dense_of(a) -> np.ndarray | None:
    return a.dense() if hasattr(a, "dense") else None


def validate_pair(pair: MatrixPair, dense_limit: int = DENSE_VALIDATE_LIMIT) -> PairDiagnosis:
    """Check definiteness of the pair.

    B is declared positive definite iff its Cholesky factorization succeeds.
    Up to ``dense_limit`` LAPACK's generalized symmetric-definite eigensolver
    (``scipy.linalg.eigh``) gives the spectrum of (A, B), and A is tested
    positive semidefinite within PSD_RTOL of its largest magnitude; beyond the
    limit a Gershgorin lower bound on A stands in, which is conservative:
    it can report False for semidefinite matrices with strong off-diagonal
    coupling.
    """
    try:
        cholesky_factorize(pair.b)
        b_pd = True
    except NotPositiveDefinite:
        b_pd = False

    a_dense = _dense_of(pair.a)
    if a_dense is None:
        raise InputError("validate_pair needs a materializable A operand")

    if b_pd and pair.n <= dense_limit:
        evals = scipy.linalg.eigh(a_dense, pair.b.dense(), eigvals_only=True,
                                  check_finite=False)
        scale = float(np.max(np.abs(evals))) if evals.size else 0.0
        a_psd = bool(evals[0] >= -PSD_RTOL * max(scale, 1e-300))
        return PairDiagnosis(True, a_psd, float(evals[0]), "dense-eigensolver")

    # Gershgorin: row sums certify a spectrum lower bound for A alone,
    # which transfers to the pair when B is positive definite
    diag = pair.a.diagonal() if hasattr(pair.a, "diagonal") else np.diagonal(a_dense)
    absrow = np.sum(np.abs(a_dense), axis=1) - np.abs(np.diagonal(a_dense))
    bound = float(np.min(np.asarray(diag) - absrow))
    scale = float(np.max(np.abs(a_dense))) if a_dense.size else 0.0
    a_psd = bool(bound >= -PSD_RTOL * max(scale, 1e-300))
    return PairDiagnosis(b_pd, a_psd, None, "gershgorin")


def shift_to_psd(pair: MatrixPair, margin: float = 0.0) -> MatrixPair:
    """Replace A by A + eta B with eta = max(0, -lambda_min(A, B)) + margin.

    When the computed eta is zero the input pair object itself is returned.
    Requires matrix-backed operands (the shifted A is materialized).
    """
    if margin < 0.0:
        raise InputError(f"margin must be nonnegative, got {margin}")
    diag = validate_pair(pair)
    if not diag.b_positive_definite:
        raise NotPositiveDefinite("B must be positive definite to shift against")
    if diag.min_generalized_eigenvalue is not None:
        lam_min = diag.min_generalized_eigenvalue
    else:
        # conservative: Gershgorin bound on A over the smallest B eigenvalue
        a_dense = _dense_of(pair.a)
        absrow = np.sum(np.abs(a_dense), axis=1) - np.abs(np.diagonal(a_dense))
        gersh = float(np.min(np.diagonal(a_dense) - absrow))
        if gersh >= 0.0:
            lam_min = 0.0
        else:
            factor = cholesky_factorize(pair.b)
            bmin = 1.0 / dominant_eigenvalue(factor.solve, pair.n)
            lam_min = gersh / max(bmin, 1e-300)
    eta = max(0.0, -lam_min) + margin
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

    Raises DegenerateDirection when x'Ax <= 1e-30 ||x||^2: the gradient is
    undefined on the null space of A.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = pair.a.matvec(x, counters)
    bx = pair.b.matvec(x, counters)
    xax = float(x @ ax)
    if xax <= DEGENERATE_RTOL * float(x @ x):
        raise DegenerateDirection(f"x'Ax = {xax:.3e} is degenerate at ||x||^2 = {float(x @ x):.3e}")
    return 2.0 * bx - ax / np.sqrt(xax)


def hess_vec(pair: MatrixPair, x: np.ndarray, v: np.ndarray,
             counters: Counters | None = None) -> np.ndarray:
    """Hessian-vector product at x applied to v (three matvecs)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    ax = pair.a.matvec(x, counters)
    xax = float(x @ ax)
    if xax <= DEGENERATE_RTOL * float(x @ x):
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
        lam = dominant_eigenvalue(lambda v: b.matvec(v), b.n, rtol=1e-6, inflate=1.01)
        return CurvatureBound(2.0 * lam, "dominant")
    if method == "trace":
        return CurvatureBound(2.0 * b.trace(), "trace")
    raise ValueError(f"unknown curvature method {method!r}")

"""Preconditioners P for the metric change y = P x, and the B-solves built
on them.

Supported kinds: 'cholesky' (P = L' from B = LL', the exact metric),
'diagonal' (P = diag(sqrt(b_ii))), 'incomplete-cholesky' (P = L~' from
IC(0)), and 'identity'. The solvers only ever need P through the inverse
Gram application (P'P)^{-1} g, provided here. A :class:`LinearSolver`
solves B x = r either exactly in the cholesky kind or by capped PCG whose
inner preconditioner is one of the other kinds (see ``INNER_KINDS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .errors import InputError, PcgBreakdown, StaleFactor, ZeroDiagonal
from .linalg import CholeskyFactor, Counters, SymmetricMatrix, as_vector, dominant_eigenvalue, \
    incomplete_cholesky

KINDS = ("cholesky", "diagonal", "incomplete-cholesky", "identity")

# PCG's inner preconditioner names and the metric kinds they build
INNER_KINDS = {"jacobi": "diagonal", "ichol": "incomplete-cholesky", None: "identity"}


@dataclass
class Preconditioner:
    """P stored as a triangular factor (cholesky, incomplete-cholesky) or
    as the diagonal of P'P (diagonal: diag(B); identity: ones)."""

    kind: str
    n: int
    factor: CholeskyFactor | None = None
    diag: np.ndarray | None = None

    @property
    def scale(self) -> np.ndarray:
        """The diagonal of P for the factor-free kinds."""
        return np.sqrt(self.diag)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        x = as_vector(x, self.n)
        if self.factor is None:
            return self.scale * x
        return self.factor.apply_upper(x)

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        """P^{-1} x."""
        x = as_vector(x, self.n)
        if self.factor is None:
            return x / self.scale
        return self.factor.solve_upper(x)

    def apply_inverse_t(self, x: np.ndarray) -> np.ndarray:
        """P^{-T} x."""
        x = as_vector(x, self.n)
        if self.factor is None:
            return x / self.scale
        return self.factor.solve_lower(x)


def build_preconditioner(b: SymmetricMatrix, kind: str) -> Preconditioner:
    """Construct a preconditioner of the given kind for B."""
    if kind == "cholesky":
        return Preconditioner("cholesky", b.n, factor=b.cholesky())
    if kind == "incomplete-cholesky":
        return Preconditioner("incomplete-cholesky", b.n, factor=incomplete_cholesky(b))
    if kind == "diagonal":
        d = b.diagonal()
        if np.min(d) <= 0.0:
            raise ZeroDiagonal(f"nonpositive diagonal entry {np.min(d):.3e}")
        return Preconditioner("diagonal", b.n, diag=d)
    if kind == "identity":
        return Preconditioner("identity", b.n, diag=np.ones(b.n))
    raise ValueError(f"unknown preconditioner kind {kind!r}; choose from {KINDS}")


def apply_gram_inverse(p: Preconditioner, g: np.ndarray,
                       counters: Counters | None = None) -> np.ndarray:
    """(P'P)^{-1} g.

    For the factor-backed kinds this is a forward/backward substitution pair
    and counts as one solve; the diagonal and identity kinds are O(n)
    scalings and count nothing.
    """
    g = as_vector(g, p.n)
    if p.factor is None:
        return g / p.diag
    if counters is not None:
        counters.solves += 1
    return p.factor.solve(g)


def transformed_dominant_eigenvalue(b: SymmetricMatrix, p: Preconditioner) -> float:
    """Largest eigenvalue of P^{-T} B P^{-1}, bounding the stepsizes that
    keep the preconditioned iteration stable.

    The cholesky kind transforms B to the identity by construction, so the
    answer is exactly 1 and no estimate is run. Other kinds use a
    ``dominant_eigenvalue`` estimate at rtol 1e-4 (the curvature bound: 1e-6)."""
    if p.kind == "cholesky":
        return 1.0

    def op(v):
        return p.apply_inverse_t(b.matvec(p.apply_inverse(v)))
    return dominant_eigenvalue(op, b.n, rtol=1e-4)


@dataclass
class LinearSolver:
    """Solver handle for systems B x = r with B symmetric positive definite.

    A cholesky ``metric`` solves exactly (mode 'cholesky'); any other kind is
    the inner preconditioner of conjugate gradients capped at ``cap`` inner
    iterations (mode 'pcg'). Both modes keep the B they were built for and
    refuse a matrix whose stored entries differ from it later.
    """

    matrix: SymmetricMatrix
    metric: Preconditioner
    cap: int = 30
    tol: float = 1e-10

    @property
    def mode(self) -> str:
        return "cholesky" if self.metric.kind == "cholesky" else "pcg"

    @classmethod
    def exact(cls, b: SymmetricMatrix) -> "LinearSolver":
        return cls(b, Preconditioner("cholesky", b.n, factor=b.cholesky()))

    @classmethod
    def pcg(cls, b: SymmetricMatrix, cap: int = 30, tol: float = 1e-10,
            inner: str | None = "jacobi") -> "LinearSolver":
        if inner not in INNER_KINDS:
            raise ValueError(f"unknown inner preconditioner {inner!r}")
        if cap < 1:
            raise InputError(f"PCG cap must be at least 1, got {cap}")
        return cls(b, build_preconditioner(b, INNER_KINDS[inner]), cap=cap, tol=tol)


def solve_spd(solver: LinearSolver, b: SymmetricMatrix, r: np.ndarray,
              counters: Counters | None = None) -> np.ndarray:
    """Solve B x = r through the given handle.

    Counts one solve per call; PCG mode adds its inner B-matvecs (matvecs),
    inner steps (pcg_inner) and, if the cap stops it, pcg_capped/pcg_residual.
    A ``b`` other than the handle's own matrix must match its stored entries bit for bit.
    """
    n = solver.metric.n
    r = as_vector(r, n, "rhs")
    if b is not solver.matrix and (b.n != n or b.fingerprint() != solver.matrix.fingerprint()):
        raise StaleFactor("solver was built for a different matrix")
    if counters is not None:
        counters.solves += 1
    if solver.metric.kind == "cholesky":  # exact; r's shape is checked above
        return solver.metric.factor.solve(r)
    return _pcg(solver, b, r, counters)


def _pcg(solver: LinearSolver, b: SymmetricMatrix, rhs: np.ndarray,
         counters: Counters | None) -> np.ndarray:
    # Saad, Alg. 9.1, with each vector update one in-place daxpy, which rounds
    # once where numpy's multiply-then-add rounds twice. p = z + beta p lands
    # in z's buffer, so a factor-free metric writes the next z into p's old one.
    x, spare, r = np.zeros_like(rhs), np.empty_like(rhs), rhs.copy()
    norm_rhs = norm_r = math.sqrt(ddot(r, r))
    if norm_rhs == 0.0:
        return x
    metric, stop = solver.metric, solver.tol * norm_rhs
    p = z = apply_gram_inverse(metric, r)
    rz = ddot(r, z)
    if rz < 0.0:
        raise PcgBreakdown(f"indefinite inner preconditioner: r'z = {rz:.3e}")
    for k in range(1, solver.cap + 1):
        if counters is not None:
            counters.pcg_inner += 1
        bp = b.matvec(p, counters)
        pbp = ddot(p, bp)
        if pbp <= 0.0:
            raise PcgBreakdown(f"nonpositive curvature p'Bp = {pbp:.3e}")
        alpha = rz / pbp
        x = daxpy(p, x, a=alpha)
        r = daxpy(bp, r, a=-alpha)
        norm_r = math.sqrt(ddot(r, r))
        if norm_r <= stop or k == solver.cap:  # no direction after the last step
            break
        if metric.factor is None:
            z = np.divide(r, metric.diag, out=spare)
        else:
            z = metric.factor.solve(r)
        rz_next = ddot(r, z)
        if rz_next < 0.0:
            raise PcgBreakdown(f"indefinite inner preconditioner: r'z = {rz_next:.3e}")
        spare, p = p, daxpy(p, z, a=rz_next / rz)
        rz = rz_next
    if norm_r > stop and counters is not None:
        counters.pcg_capped += 1
        counters.pcg_residual = max(counters.pcg_residual, norm_r / norm_rhs)
    return x

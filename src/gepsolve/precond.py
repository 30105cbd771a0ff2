"""Preconditioners P for the metric change y = P x, and the B-solves built
on them.

Supported kinds: 'cholesky' (P = L' from B = LL', the exact metric),
'diagonal' (P = diag(sqrt(b_ii))), 'incomplete-cholesky' (P = L~' from
IC(0)), and 'identity'. The solvers only ever need P through the inverse
Gram application (P'P)^{-1} g, provided here. A :class:`LinearSolver`
solves B x = r either exactly in the cholesky kind or by capped Jacobi PCG
in the diagonal kind. PCG is that change of variables too: it is plain CG
on P^{-T} B P^{-1} = S B S, S = D^{-1/2}, in y = S^{-1} x, so no step divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .errors import InputError, PcgBreakdown, StaleFactor, ZeroDiagonal
from .linalg import CholeskyFactor, Counters, SymmetricMatrix, as_vector, diagonal_congruence, \
    dominant_eigenvalue, incomplete_cholesky

KINDS = ("cholesky", "diagonal", "incomplete-cholesky", "identity")


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

    A cholesky ``metric`` solves exactly (mode 'cholesky'); a diagonal one
    runs Jacobi PCG capped at ``cap`` inner iterations (mode 'pcg'). Both
    modes keep the B they were built for and refuse a matrix whose stored
    entries differ from it later. A PCG handle forms S B S at its first
    solve and keeps it, in B's storage kind (a dense B's n^2 doubles once
    more), for every later solve.
    """

    matrix: SymmetricMatrix
    metric: Preconditioner
    cap: int = 30
    tol: float = 1e-10
    # (S B S, s, floor), formed by the first PCG solve
    _scaled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return "cholesky" if self.metric.kind == "cholesky" else "pcg"

    def _cg_operands(self) -> tuple:
        """(S B S, s, floor) for PCG: S = diag(s) = D^{-1/2}, S B S built from
        the handle's own B once, and floor, for which floor * ||r^|| is below
        ||D^{1/2} r^||."""
        if self._scaled is None:
            s = 1.0 / self.metric.scale
            # ||D^{1/2} r^|| >= ||r^|| / max(s), and each computed norm is within
            # about (n/2 + 3) u of its value (Higham §3.1): the margin keeps the
            # computed floor * ||r^|| at or below the computed ||D^{1/2} r^||
            floor = (1.0 - (self.metric.n + 4) * np.finfo(np.float64).eps) / float(np.max(s))
            self._scaled = (diagonal_congruence(self.matrix, s), s, floor)
        return self._scaled

    @classmethod
    def exact(cls, b: SymmetricMatrix) -> "LinearSolver":
        return cls(b, Preconditioner("cholesky", b.n, factor=b.cholesky()))

    @classmethod
    def pcg(cls, b: SymmetricMatrix, cap: int = 30, tol: float = 1e-10,
            inner: str = "jacobi") -> "LinearSolver":
        if inner != "jacobi":
            raise ValueError(f"unknown inner preconditioner {inner!r}; PCG runs 'jacobi'")
        if cap < 1:
            raise InputError(f"PCG cap must be at least 1, got {cap}")
        return cls(b, build_preconditioner(b, "diagonal"), cap=cap, tol=tol)


def solve_spd(solver: LinearSolver, b: SymmetricMatrix, r: np.ndarray,
              counters: Counters | None = None) -> np.ndarray:
    """Solve B x = r through the given handle.

    Counts one solve per call; PCG mode adds its inner B-matvecs (matvecs),
    inner steps (pcg_inner) and, if the cap stops it, pcg_capped/pcg_residual.
    PCG stops once ||r|| <= tol ||r_0|| for the residual r of B x = r_0 itself.
    ``b`` is only checked: one other than the handle's own matrix must match
    its stored entries bit for bit.
    """
    n = solver.metric.n
    r = as_vector(r, n, "rhs")
    if b is not solver.matrix and (b.n != n or b.fingerprint() != solver.matrix.fingerprint()):
        raise StaleFactor("solver was built for a different matrix")
    if counters is not None:
        counters.solves += 1
    if solver.metric.kind == "cholesky":  # exact; r's shape is checked above
        return solver.metric.factor.solve(r)
    return _pcg(solver, r, counters)


def _pcg(solver: LinearSolver, rhs: np.ndarray, counters: Counters | None) -> np.ndarray:
    # Saad, Alg. 9.1, as plain CG on S B S for x^ = S^{-1} x (split
    # preconditioning, Saad §9.2.1): r^ = S r, r^'r^ is r'z, and no step
    # divides. Each vector update is one in-place daxpy, which rounds once
    # where numpy's multiply-then-add rounds twice. p = r^ + beta p lands in
    # the spare's copy of r^, so the spare takes p's old buffer.
    x, spare = np.zeros_like(rhs), np.empty_like(rhs)
    norm_rhs = norm_r = math.sqrt(ddot(rhs, rhs))
    if norm_rhs == 0.0:
        return x
    op, s, floor = solver._cg_operands()
    stop = solver.tol * norm_rhs
    r = rhs * s
    p, rz = r.copy(), ddot(r, r)
    for k in range(1, solver.cap + 1):
        if counters is not None:
            counters.pcg_inner += 1
        bp = op.matvec(p, counters)
        pbp = ddot(p, bp)
        if pbp <= 0.0:
            raise PcgBreakdown(f"nonpositive curvature p'Bp = {pbp:.3e}")
        alpha = rz / pbp
        x = daxpy(p, x, a=alpha)
        r = daxpy(bp, r, a=-alpha)
        rr = ddot(r, r)
        norm_r = math.sqrt(rr) * floor  # at most ||r|| = ||D^{1/2} r^||
        if norm_r <= stop or k == solver.cap:
            u = np.divide(r, s, out=spare)  # the residual of B x = rhs
            norm_r = math.sqrt(ddot(u, u))
            if norm_r <= stop or k == solver.cap:  # no direction after the last step
                break
        spare[...] = r
        spare, p = p, daxpy(p, spare, a=rr / rz)
        rz = rr
    if norm_r > stop and counters is not None:
        counters.pcg_capped += 1
        counters.pcg_residual = max(counters.pcg_residual, norm_r / norm_rhs)
    return np.multiply(x, s, out=x)

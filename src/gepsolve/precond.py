"""Preconditioners P for the metric change y = P x.

Supported kinds: 'cholesky' (P = L' from B = LL', the exact metric),
'diagonal' (P = diag(sqrt(b_ii))), 'incomplete-cholesky' (P = L~' from
IC(0)), and 'identity'. The solvers only ever need P through the inverse
Gram application (P'P)^{-1} g, provided here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroDiagonal
from .linalg import CholeskyFactor, Counters, SymmetricMatrix, cholesky_factorize, \
    dominant_eigenvalue, incomplete_cholesky

KINDS = ("cholesky", "diagonal", "incomplete-cholesky", "identity")


@dataclass
class Preconditioner:
    kind: str
    n: int
    factor: CholeskyFactor | None = None
    scale: np.ndarray | None = None  # diagonal kind: sqrt of diag(B)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        self._check(x)
        if self.kind in ("cholesky", "incomplete-cholesky"):
            l = self.factor
            if l.kind == "dense":
                return l._l.T @ x
            return (l._strict.T @ x) + l._diag * x
        if self.kind == "diagonal":
            return self.scale * x
        return x.copy()

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        """P^{-1} x."""
        self._check(x)
        if self.kind in ("cholesky", "incomplete-cholesky"):
            return self.factor.solve_upper(x)
        if self.kind == "diagonal":
            return x / self.scale
        return x.copy()

    def apply_inverse_t(self, x: np.ndarray) -> np.ndarray:
        """P^{-T} x."""
        self._check(x)
        if self.kind in ("cholesky", "incomplete-cholesky"):
            return self.factor.solve_lower(x)
        if self.kind == "diagonal":
            return x / self.scale
        return x.copy()

    def gram_dense(self) -> np.ndarray:
        """P'P as a dense array (diagnostics only)."""
        if self.kind in ("cholesky", "incomplete-cholesky"):
            l = self.factor.lower()
            return l @ l.T
        if self.kind == "diagonal":
            return np.diag(self.scale ** 2)
        return np.eye(self.n)

    def _check(self, x):
        if np.shape(x) != (self.n,):
            raise DimensionMismatch(f"vector shape {np.shape(x)} vs order {self.n}")


def build_preconditioner(b: SymmetricMatrix, kind: str) -> Preconditioner:
    """Construct a preconditioner of the given kind for B."""
    if kind == "cholesky":
        return Preconditioner("cholesky", b.n, factor=cholesky_factorize(b))
    if kind == "incomplete-cholesky":
        return Preconditioner("incomplete-cholesky", b.n, factor=incomplete_cholesky(b))
    if kind == "diagonal":
        d = b.diagonal()
        if np.min(d) <= 0.0:
            raise ZeroDiagonal(f"nonpositive diagonal entry {np.min(d):.3e}")
        return Preconditioner("diagonal", b.n, scale=np.sqrt(d))
    if kind == "identity":
        return Preconditioner("identity", b.n)
    raise ValueError(f"unknown preconditioner kind {kind!r}; choose from {KINDS}")


def apply_gram_inverse(p: Preconditioner, g: np.ndarray,
                       counters: Counters | None = None) -> np.ndarray:
    """(P'P)^{-1} g.

    For the factor-backed kinds this is a forward/backward substitution pair
    and counts as one solve; the diagonal and identity kinds are O(n)
    scalings and count nothing.
    """
    p._check(g)
    if p.kind in ("cholesky", "incomplete-cholesky"):
        if counters is not None:
            counters.solves += 1
        return p.factor.solve(g)
    if p.kind == "diagonal":
        return g / (p.scale ** 2)
    return g.copy()


def frobenius_gap(b: SymmetricMatrix, p: Preconditioner) -> float:
    """||B - P'P||_F, the metric mismatch of the preconditioner."""
    return float(np.linalg.norm(b.dense() - p.gram_dense()))


def transformed_dominant_eigenvalue(b: SymmetricMatrix, p: Preconditioner) -> float:
    """Largest eigenvalue of P^{-T} B P^{-1}, bounding the stepsizes that
    keep the preconditioned iteration stable.

    The cholesky kind transforms B to the identity by construction, so the
    answer is exactly 1 and no estimate is run. Other kinds use a power
    estimate at relative tolerance 1e-4, inflated by 1%."""
    if p.kind == "cholesky":
        return 1.0

    def op(v):
        return p.apply_inverse_t(b.matvec(p.apply_inverse(v)))
    return dominant_eigenvalue(op, b.n, rtol=1e-4, inflate=1.01)

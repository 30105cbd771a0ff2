"""Synthetic test pairs with prescribed condition numbers.

Both operands are rotated diagonal matrices M = Q D Q' with independent
orthogonal factors and spectra spaced evenly on [1/kappa, 1], so the
condition numbers are exact by construction. A constant spectrum skips the
rotation and yields the scaled identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import SymmetricMatrix
from .objective import MatrixPair


@dataclass
class SyntheticSpec:
    n: int
    kappa_b: float
    kappa_a: float = 100.0
    seed: int = 0


def _rotated_diagonal(spectrum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = spectrum.size
    # canonical Q: sign-fixed QR of a normal draw; the draw happens even
    # for the identity case so the generator stream stays aligned
    raw = rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diagonal(r))
    if np.all(spectrum == spectrum[0]):
        return np.eye(n) * spectrum[0]
    m = (q * spectrum) @ q.T
    return (m + m.T) / 2.0


def gen_synthetic(spec: SyntheticSpec) -> MatrixPair:
    """Pair (A, B) with cond(A) = kappa_a, cond(B) = kappa_b exactly."""
    if spec.n < 2:
        raise InputError(f"n must be at least 2, got {spec.n}")
    if not (spec.kappa_a >= 1.0 and spec.kappa_b >= 1.0):
        raise InputError(f"kappa_a, kappa_b must be at least 1, got {spec.kappa_a}, {spec.kappa_b}")
    rng = np.random.default_rng(spec.seed)
    d_a = np.linspace(1.0 / spec.kappa_a, 1.0, spec.n)
    d_b = np.linspace(1.0 / spec.kappa_b, 1.0, spec.n)
    a = SymmetricMatrix.from_dense(_rotated_diagonal(d_a, rng))
    b = SymmetricMatrix.from_dense(_rotated_diagonal(d_b, rng))
    return MatrixPair(a, b)

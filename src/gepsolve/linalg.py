"""Symmetric matrices, factorizations, eigenvalue kernels, and matrix I/O.

A :class:`SymmetricMatrix` holds one operand, a dense array or a CSR array,
and a :class:`CholeskyFactor` one lower factor of either kind; products run
through the ndarray's ``dot`` (cheaper than ``@``) or scipy's ``dia_matvec``
(nonzeros on few diagonals, see ``DIA_MAX_FILL``) or ``csr_matvec``. Dense
operands, a dense factor's L' and its cached inverse start on a 64-byte
boundary: 16 to 48 bytes off it, OpenBLAS's ``dgemv`` and ``dtrtrs`` took up
to 47% and 26% longer at n = 256, and gave the same bytes.
Construction symmetrizes and validates; everything downstream can then
assume exact symmetry. Operation counts are accumulated in explicit
:class:`Counters` objects passed by the caller, never in module globals, so
concurrent runs cannot interfere. The B-solves built on the factors
(:class:`LinearSolver`, :func:`solve_spd`) live in :mod:`gepsolve.precond`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.blas import ddot, dsymv
from scipy.linalg.lapack import dpotri, dtrtrs
from scipy.sparse._sparsetools import csr_matvec, dia_matvec  # private; tests pin both

from .errors import (
    AsymmetricEntries,
    DimensionMismatch,
    NonFiniteEntries,
    NotPositiveDefinite,
    NotSquare,
    NumericalError,
    ParseError,
)

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-14
# CSR products run by diagonals when n * (distinct diagonals) <= this * nnz. At
# n = 4096, bands of 3-9 diagonals with holes took 0.55-0.83 of csr_matvec's
# time up to 1.44 slots per nonzero, and 0.66-1.08 of it at 1.57-1.68.
DIA_MAX_FILL = 1.5


@dataclass
class Counters:
    """Per-run operation counts.

    matvecs counts applications of the operator being solved for (A or B),
    solves requested applications of B^{-1} (one per solve_spd call, any
    backend), pcg_inner PCG inner iterations, pcg_capped PCG solves stopped by
    their cap short of tol, and pcg_residual the largest ||r||/||rhs|| one left.
    """

    matvecs: int = 0
    solves: int = 0
    pcg_inner: int = 0
    pcg_capped: int = 0
    pcg_residual: float = 0.0


def _entry_fingerprint(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> int:
    """64-bit digest of n and the exact (rows, cols, values) that ``lower_entries``
    lists: equal for bit-equal stored entries in either storage kind, and
    (but for a 2^-64 collision) different whenever one stored entry differs."""
    h = hashlib.blake2b(int(n).to_bytes(8, "little"), digest_size=8)
    for part, dtype in ((rows, np.int64), (cols, np.int64), (vals, np.float64)):
        h.update(np.asarray(part, dtype=dtype).tobytes())
    return int.from_bytes(h.digest(), "little")


_F64 = np.dtype(np.float64)
_ndarray = np.ndarray


def as_vector(x, n: int, what: str = "vector") -> np.ndarray:
    """``x`` as one float64 vector of length ``n``: ``x`` itself when it is a
    float64 ndarray (strided views included), else ``np.asarray(x, float64)``.
    Any other shape raises DimensionMismatch. The type test skips the ~90 ns
    ``np.asarray`` spends re-checking an array the loop made itself."""
    if type(x) is not _ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise DimensionMismatch(f"{what} shape {x.shape} vs order {n}")
    return x


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteEntries("matrix has a NaN or infinite entry")


def _empty_aligned(shape: tuple, order: str = "C") -> np.ndarray:
    """Uninitialized float64 ``order`` array whose data starts on a 64-byte boundary."""
    buf = np.empty(math.prod(shape) + 8)
    return buf[-buf.ctypes.data % 64 // 8:][:math.prod(shape)].reshape(shape, order=order)


def _aligned(a: np.ndarray, order: str = "C") -> np.ndarray:
    """``a`` if it is ``order``-contiguous on a 64-byte boundary, else a copy that is."""
    if a.flags[order + "_CONTIGUOUS"] and a.ctypes.data % 64 == 0:
        return a
    out = _empty_aligned(a.shape, order)
    out[...] = a
    return out


class SymmetricMatrix:
    """Square symmetric matrix held as one operand: a C-ordered ndarray on a
    64-byte boundary (``kind`` 'dense'; there a ``dgemv`` took 6.5 µs at n = 256
    against 9.6 at +16 or +48 bytes) or a sorted CSR array (``kind`` 'csr').

    Use :meth:`from_dense` or :meth:`from_sparse`; the constructor is not
    part of the public surface. NaN and infinite entries are rejected on
    entry, symmetry is checked against ``SYMMETRY_RTOL`` relative to the
    largest entry, and the stored data is exactly symmetrized afterwards. A
    CSR product calls a compiled kernel bound here, skipping ``@``'s ~6 µs of
    dispatch: ``dia_matvec`` on a diagonal-storage copy when ``DIA_MAX_FILL``
    allows (10.6 vs 16.3 µs by CSR for an n = 4096 grid), else ``csr_matvec``.
    Both equal ``csr_array @ x`` bitwise for finite x: ascending offsets are
    each row's column order, and a padded slot adds 0.0 * x[j] = ±0.0. With a
    non-finite x[j] that slot adds NaN, which CSR never does.
    """

    def __init__(self, m):
        self.n = n = m.shape[0]
        self.kind = "dense" if isinstance(m, np.ndarray) else "csr"
        self._m = _aligned(m) if self.kind == "dense" else m
        self._kernel = None
        if self.kind == "csr":
            # diagonal j - i + n of each nonzero; a bincount, not a sort
            diag = m.indices - np.repeat(np.arange(n), np.diff(m.indptr)) + n
            used = np.bincount(diag, minlength=2 * n) > 0
            offsets = np.flatnonzero(used) - n
            if len(offsets) * n <= DIA_MAX_FILL * m.nnz:
                diags = np.zeros((len(offsets), n))
                diags[(np.cumsum(used) - 1)[diag], m.indices] = m.data
                self._kernel = partial(dia_matvec, n, n, len(offsets), n, offsets, diags)
            else:
                self._kernel = partial(csr_matvec, n, n, m.indptr, m.indices, m.data)
        self._fp: int | None = None
        self._chol: CholeskyFactor | NotPositiveDefinite | None = None

    @classmethod
    def from_dense(cls, arr) -> "SymmetricMatrix":
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSquare(f"expected a square 2-d array, got shape {a.shape}")
        _check_finite(a)
        scale = np.max(np.abs(a)) if a.size else 0.0
        gap = np.max(np.abs(a - a.T)) if a.size else 0.0
        if gap > SYMMETRY_RTOL * max(scale, 1e-300):
            raise AsymmetricEntries(f"max |M - M'| = {gap:.3e} exceeds tolerance")
        m = _empty_aligned(a.shape)
        with np.errstate(over="ignore"):
            np.add(a, a.T, out=m)
        m /= 2.0
        if scale > np.finfo(np.float64).max / 2.0:  # halve first where the sum overflowed
            big = np.isinf(m)
            m[big] = a[big] / 2.0 + a.T[big] / 2.0
        return cls(m)

    @classmethod
    def from_sparse(cls, mat) -> "SymmetricMatrix":
        return cls(_symmetric_csr(mat))

    @classmethod
    def from_lower_entries(cls, n: int, rows, cols, vals) -> "SymmetricMatrix":
        """Build from lower-triangle coordinates (i >= j), mirroring them."""
        return cls(_mirrored_csr(n, rows, cols, vals))

    @property
    def nnz(self) -> int:
        return int(self._m.nnz if self.kind == "csr" else np.count_nonzero(self._m))

    def dense(self) -> np.ndarray:
        return self._m.copy() if self.kind == "dense" else self._m.toarray()

    def diagonal(self) -> np.ndarray:
        return self._m.diagonal().copy()

    def trace(self) -> float:
        return float(self.diagonal().sum())

    def matvec(self, x: np.ndarray, counters: Counters | None = None) -> np.ndarray:
        x = as_vector(x, self.n)
        if counters is not None:
            counters.matvecs += 1
        if self._kernel is None:
            return self._m.dot(x)
        self._kernel(x, y := np.zeros(self.n))
        return y

    def lower_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero lower-triangle entries as (rows, cols, values), in row-major
        order for either storage kind: a dense operand's COO form keeps its
        nonzeros (-0.0 is not one), and CSR storage holds no explicit zeros."""
        coo = scipy.sparse.tril(self._m, format="coo")
        return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data

    def fingerprint(self) -> int:
        if self._fp is None:
            r, c, v = self.lower_entries()
            self._fp = _entry_fingerprint(self.n, r, c, v)
        return self._fp

    def cholesky(self) -> "CholeskyFactor":
        """Pi' B Pi = L^ L^' (cholesky_factorize), run once; a NotPositiveDefinite is re-raised."""
        if self._chol is None:
            try:
                self._chol = cholesky_factorize(self)
            except NotPositiveDefinite as exc:
                self._chol = exc
        if isinstance(self._chol, NotPositiveDefinite):
            raise self._chol
        return self._chol


def _symmetric_csr(mat):
    """``mat`` checked, exactly symmetrized, summed and sorted as a CSR array."""
    s = scipy.sparse.csr_array(mat, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotSquare(f"expected a square sparse matrix, got shape {s.shape}")
    _check_finite(s.data)
    diff = (s - s.T).tocoo()
    scale = np.max(np.abs(s.data)) if s.nnz else 0.0
    gap = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    if gap > SYMMETRY_RTOL * max(scale, 1e-300):
        raise AsymmetricEntries(f"max |M - M'| = {gap:.3e} exceeds tolerance")
    h = ((s + s.T) / 2.0).tocsr()
    big = np.isinf(h.data)
    if big.any():  # halve first where the sum overflowed
        r, c = h.tocoo().row[big], h.indices[big]
        h.data[big] = s[r, c] / 2.0 + s[c, r] / 2.0
    h.sum_duplicates()
    h.eliminate_zeros()
    h.sort_indices()
    return h


def _mirrored_csr(n: int, rows, cols, vals):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    _check_finite(vals)
    off = rows != cols
    r = np.concatenate([rows, cols[off]])
    c = np.concatenate([cols, rows[off]])
    v = np.concatenate([vals, vals[off]])
    coo = scipy.sparse.coo_array((v, (r, c)), shape=(n, n))
    coo.sum_duplicates()
    s = coo.tocsr()
    s.eliminate_zeros()
    s.sort_indices()
    return s


def add_scaled(a: SymmetricMatrix, b: SymmetricMatrix, eta: float) -> SymmetricMatrix:
    """Return a + eta * b as a new SymmetricMatrix."""
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")
    if a.kind == "csr" and b.kind == "csr":
        return SymmetricMatrix.from_sparse(a._m + eta * b._m)
    return SymmetricMatrix.from_dense(a.dense() + eta * b.dense())


def diagonal_congruence(b: SymmetricMatrix, s: np.ndarray) -> SymmetricMatrix:
    """S B S for S = diag(s), in B's storage kind: entry (i, j) is b_ij * (s_i * s_j),
    exactly symmetric because s_i * s_j and s_j * s_i round alike. A CSR result
    keeps B's pattern, so the constructor picks its product kernel by the same rule."""
    s, m = as_vector(s, b.n, "scale"), b._m
    if b.kind == "dense":
        return SymmetricMatrix(np.multiply(m, np.multiply.outer(s, s), out=_empty_aligned(m.shape)))
    rows = np.repeat(np.arange(b.n), np.diff(m.indptr))
    data = m.data * (s[rows] * s[m.indices])
    return SymmetricMatrix(scipy.sparse.csr_array((data, m.indices, m.indptr), shape=m.shape))


class CholeskyFactor:
    """Lower-triangular factor L^ with Pi' B Pi = L^ L^' (B[perm][:, perm]), held as
    one array ``l``; ``perm`` is ``slice(None)`` but for a CSR B, and the methods
    act with L = Pi L^, so B = L L'.

    A dense L^ (ndarray) solves each triangle with one positional LAPACK
    ``dtrtrs`` call on L^', kept F-ordered on a 64-byte boundary (a pair took
    12.4 µs at n = 256 against 14.1-15.6 at +16 to +48 bytes): the call
    ``solve_triangular`` makes minus its wrapper. Its ``solve`` forms B^{-1} by
    LAPACK ``dpotri`` on L^' at the first call, kept F-ordered on a 64-byte
    boundary (n^2 more doubles), and is then one ``dsymv`` on that inverse's
    upper triangle: 5.5 µs against the pair's 15.1 at n = 256, 185 against
    328 at n = 1024, with a forward error of the same kappa(B) u order
    (Higham, Accuracy and Stability of Numerical Algorithms, §14.1). A sparse
    L^ (CSR, diagonal stored in place) solves through a SuperLU handle built
    once in natural order with diagonal pivoting: L^ is already triangular
    with positive pivots, so the handle's L U is L^ itself and both
    substitutions run compiled, the backward one transposed.
    """

    def __init__(self, n, l, perm=slice(None)):
        self.n = n
        self._perm = perm
        self._lt = _aligned(l.T, "F") if isinstance(l, np.ndarray) else None
        self._l = l if self._lt is None else self._lt.T
        self._lu = None if self._lt is not None else scipy.sparse.linalg.splu(
            scipy.sparse.csc_array(l), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self._inv = None  # a dense B^{-1}, formed by the first solve

    @property
    def kind(self) -> str:
        return "dense" if self._lu is None else "sparse"

    def lower(self) -> np.ndarray:
        if self._lu is None:
            return self._l.copy()
        l = np.empty((self.n, self.n))
        l[self._perm] = self._l.toarray()
        return l

    def apply_upper(self, x: np.ndarray) -> np.ndarray:
        """L' x."""
        return self._l.T @ np.asarray(x, dtype=np.float64)[self._perm]

    def _trtrs(self, b: np.ndarray, trans: int) -> np.ndarray:
        x, info = dtrtrs(self._lt, b, 0, trans)
        if info != 0:
            raise NumericalError(f"singular triangular factor (LAPACK dtrtrs info {info})")
        return x

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """Solve L y = b."""
        if self._lu is None:
            return self._trtrs(b, 1)
        return self._lu.solve(np.asarray(b, dtype=np.float64)[self._perm])

    def solve_upper(self, b: np.ndarray) -> np.ndarray:
        """Solve L' x = b."""
        if self._lu is None:
            return self._trtrs(b, 0)
        x = np.empty(self.n)
        x[self._perm] = self._lu.solve(np.asarray(b, dtype=np.float64), trans="T")
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (L L') x = b for one vector b: a dense factor multiplies by B^{-1}."""
        b = as_vector(b, self.n, "rhs")  # dsymv would take a longer or 2-d b's first n entries
        if self._lu is not None:
            return self.solve_upper(self.solve_lower(b))
        if self._inv is None:
            inv = _empty_aligned((self.n, self.n), "F")
            inv[...] = self._lt
            info = dpotri(inv, 0, 1)[1]  # upper, in place: inv stays on its boundary
            if info != 0:
                raise NumericalError(f"singular triangular factor (LAPACK dpotri info {info})")
            self._inv = inv
        return dsymv(1.0, self._inv, b)


def cholesky_factorize(b: SymmetricMatrix) -> CholeskyFactor:
    """Cholesky factorization Pi' B Pi = L^ L^', run once per matrix by ``b.cholesky()``.

    LAPACK factors a dense B in its own order; SuperLU factors a CSR B in
    symmetric mode, in the minimum-degree order Pi of B + B', as L D L' with
    L^ = L D^1/2. Raises NotPositiveDefinite when SuperLU finds B singular or
    pivots off the diagonal, or a pivot is below ``PIVOT_RTOL`` * max diag(B).
    Factoring forms no inverse: a dense factor's first ``solve`` does, so a
    caller that only checks definiteness pays for the factorization alone.
    """
    try:
        if b.kind == "dense":
            l = np.linalg.cholesky(b._m)
            pivots, perm = np.diagonal(l) ** 2, slice(None)
        else:
            lu = scipy.sparse.linalg.splu(
                scipy.sparse.csc_array(b._m), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            pivots, perm = lu.U.diagonal(), np.argsort(lu.perm_c)
    except (np.linalg.LinAlgError, RuntimeError) as exc:  # SuperLU: "exactly singular"
        raise NotPositiveDefinite(str(exc)) from exc
    if b.kind == "csr" and not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefinite("SuperLU pivoted off the diagonal")
    floor = PIVOT_RTOL * float(np.max(b.diagonal()))
    if not np.min(pivots) > max(floor, 0.0):
        raise NotPositiveDefinite(f"pivot {np.min(pivots):.3e} below threshold {floor:.3e}")
    if b.kind == "csr":
        l = (lu.L @ scipy.sparse.diags_array(np.sqrt(pivots))).tocsr()
    return CholeskyFactor(b.n, l, perm)


def incomplete_cholesky(b: SymmetricMatrix,
                        shifts: tuple = (0.0, 1e-3, 1e-2, 1e-1)) -> CholeskyFactor:
    """IC(0): Cholesky restricted to the lower-triangle pattern of B.

    On pivot breakdown the factorization restarts from B + gamma * diag(B)
    for each shift gamma in turn; NotPositiveDefinite is raised when every
    shift fails.
    """
    src = scipy.sparse.csr_array(b._m)
    low = scipy.sparse.tril(src, format="csr")
    low.sort_indices()
    diag_b = src.diagonal()
    floor = PIVOT_RTOL * float(np.max(diag_b))

    last_exc = None
    for gamma in shifts:
        try:
            return CholeskyFactor(b.n, _ic0(low, diag_b * gamma, floor))
        except NotPositiveDefinite as exc:
            last_exc = exc
    raise NotPositiveDefinite(f"IC(0) failed for all shifts: {last_exc}")


def _ic0(low, diag_shift, floor):
    """Factor the given lower CSR pattern; returns L in CSR on that pattern.
    The loops index lists, not arrays, to skip numpy scalars; each pivot's dot
    stays BLAS ``ddot``, whose fused multiply-adds a Python sum would not match."""
    n = low.shape[0]
    indptr, indices, data = low.indptr.tolist(), low.indices.tolist(), low.data.tolist()
    shifts, floor = diag_shift.tolist(), max(floor, 0.0)
    lvals = [0.0] * len(data)
    # row i is data[indptr[i]:indptr[i + 1]], its diagonal entry last
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo or indices[hi - 1] != i:
            raise NotPositiveDefinite(f"missing diagonal entry in row {i}")
        for idx in range(lo, hi - 1):
            j = indices[idx]
            # dot over shared columns k < j of rows i and j
            s = 0.0
            pi, pj = lo, indptr[j]
            hij = indptr[j + 1] - 1
            while pi < idx and pj < hij:
                ki, kj = indices[pi], indices[pj]
                if ki == kj:
                    s += lvals[pi] * lvals[pj]
                    pi += 1
                    pj += 1
                elif ki < kj:
                    pi += 1
                else:
                    pj += 1
            lvals[idx] = (data[idx] - s) / lvals[hij]
        row = lvals[lo:hi - 1]
        d = data[hi - 1] + shifts[i] - (ddot(row, row) if row else 0.0)
        if d <= floor:
            raise NotPositiveDefinite(f"pivot {d:.3e} in row {i}")
        lvals[hi - 1] = math.sqrt(d)
    l = scipy.sparse.csr_array((lvals, indices, indptr), shape=(n, n))
    l.eliminate_zeros()
    return l


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12,
               max_sweeps: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a dense symmetric matrix.

    Rotates a copy of ``a`` in sweeps over row pairs until the off-diagonal
    Frobenius norm falls below ``tol`` times that of the input; more than
    ``max_sweeps`` sweeps raise NumericalError. Returns eigenvalues in
    ascending order and the matching eigenvector columns. No library path
    calls it (the reference, ``validate_pair`` and the Lanczos Ritz step use
    LAPACK); it is kept because the benchmark's kernel probe imports it.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NotSquare(f"expected square input, got {a.shape}")
    v = np.eye(n)
    fro = float(np.linalg.norm(a))
    if fro == 0.0 or n == 1:
        return np.diagonal(a).copy(), v
    target = tol * fro
    skip = 1e-30 * fro

    def _offdiag() -> float:
        # summed from the entries themselves: the difference-of-squares
        # shortcut cannot resolve below sqrt(eps) * ||a||
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(max_sweeps):
        if _offdiag() <= target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = a[p, p], a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not converged and _offdiag() > target:
        raise NumericalError(f"Jacobi sweeps exhausted at off-diagonal {_offdiag():.3e}")

    w = np.diagonal(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order]


def dominant_eigenvalue(apply_op, n: int, rtol: float = 1e-6) -> float:
    """Power-iteration estimate of the largest eigenvalue of a symmetric
    positive semidefinite operator, inflated by 1% as the safety margin for
    poorly separated spectra, which stall the iteration. It stops once two
    successive estimates agree to ``rtol``, or after 20000 steps, and starts
    from a fixed seed, so repeated calls are bitwise identical. Where w'w
    under- or overflows for a nonzero finite w, the norm of w is taken after
    scaling by its largest entry."""
    rng = np.random.default_rng(180)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(20000):
        w = apply_op(v)
        lam_next = ddot(v, w)
        norm_w = math.sqrt(ddot(w, w))  # np.linalg.norm's own sum, without numpy's dispatch
        if norm_w in (0.0, math.inf):  # w'w under- or overflowed unless w is 0 or not finite
            scale = float(np.max(np.abs(w)))
            if 0.0 < scale < math.inf:
                w_scaled = w / scale
                norm_w = scale * math.sqrt(ddot(w_scaled, w_scaled))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(lam_next - lam) <= rtol * max(abs(lam_next), 1e-300):
            lam = lam_next
            break
        lam = lam_next
    return lam * 1.01


# ---------------------------------------------------------------------------
# Matrix I/O


def read_matrix_market(path) -> SymmetricMatrix:
    """Read a Matrix Market coordinate file into a SymmetricMatrix.

    Accepts real or integer fields with symmetric or general symmetry.
    General files must be square and symmetric within the entry tolerance.
    Duplicate coordinates are summed, per the exchange-format convention.
    Storage is dense where n^2 entries take no more bytes than the CSR arrays
    (there a dense product is also faster), CSR otherwise. A file that may
    be dense is scattered straight into dense storage, and built as CSR only
    when the rule then says so."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ParseError("missing %%MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) < 5:
            raise ParseError(f"short header: {header.strip()!r}")
        _, obj, fmt, fieldkind, symmetry = tokens[:5]
        if obj.lower() != "matrix" or fmt.lower() != "coordinate":
            raise ParseError(f"unsupported header {obj}/{fmt}; only coordinate matrices")
        if fieldkind.lower() not in ("real", "integer"):
            raise ParseError(f"unsupported field {fieldkind!r}")
        if symmetry.lower() not in ("symmetric", "general"):
            raise ParseError(f"unsupported symmetry {symmetry!r}")

        lineno = 1
        sizes = None
        while sizes is None:
            line = fh.readline()
            lineno += 1
            if not line:
                raise ParseError("missing size line")
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'rows cols nnz'")
            try:
                sizes = tuple(int(p) for p in parts)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        nrows, ncols, nnz = sizes
        if min(nrows, ncols) < 1:
            raise ParseError(f"line {lineno}: bad order {nrows} x {ncols}")
        if nrows != ncols:
            raise NotSquare(f"{nrows} x {ncols} matrix is not square")

        try:
            with warnings.catch_warnings():
                # an empty body is checked against nnz below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, dtype=[("i", np.int64), ("j", np.int64),
                                             ("v", np.float64)], comments="%", ndmin=1)
        except ValueError as exc:
            raise ParseError(f"entries: {exc}") from exc
    if len(data) != nnz:
        raise ParseError(f"declared {nnz} entries, found {len(data)}")
    rows, cols, vals = data["i"] - 1, data["j"] - 1, data["v"]
    outside = (rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= ncols)
    if outside.any():
        k = int(np.argmax(outside))
        raise ParseError(f"entry {k + 1}: index ({rows[k] + 1}, {cols[k] + 1}) out of range")

    n, symmetric = nrows, symmetry.lower() == "symmetric"
    if symmetric:  # either triangle may be stored; keep the lower one
        _check_finite(vals)
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
    # n^2 doubles against CSR's float64 values, int64 indices and row pointers,
    # for at most twice the file's entries once mirrored, then for the nonzeros
    if 8 * n * n <= 32 * len(vals) + 8 * (n + 1):
        m = _scattered(n, rows, cols, vals, symmetric)
        if 8 * n * n <= 16 * m.nnz + 8 * (n + 1):
            return m
    if symmetric:
        return SymmetricMatrix(_mirrored_csr(n, rows, cols, vals))
    coo = scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n))
    coo.sum_duplicates()
    return SymmetricMatrix(_symmetric_csr(coo.tocsr()))


def _scattered(n, rows, cols, vals, symmetric) -> SymmetricMatrix:
    """Entries summed into dense storage by one bincount, to the bytes of the
    CSR route's ``toarray()`` (a sum starts at +0.0, as CSR drops zeros): a
    symmetric file's (or a packed file's) lower triangle mirrored, a general
    file by ``from_dense``."""
    idx = rows * n + cols
    if np.bincount(idx).max(initial=0) > 2:  # sum_duplicates adds a0 + (a1 + a2)
        coo = scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n))
        coo.sum_duplicates()
        idx, vals = coo.row.astype(np.int64) * n + coo.col, coo.data
    a = np.bincount(idx, weights=vals, minlength=n * n).reshape(n, n)
    if not symmetric:  # + 0.0: -5e-324 halves to -0.0, which CSR drops
        return SymmetricMatrix(SymmetricMatrix.from_dense(a)._m + 0.0)
    return SymmetricMatrix(np.add(a, np.tril(a, -1).T, out=_empty_aligned((n, n))))


def write_matrix_market(m: SymmetricMatrix, path) -> None:
    """Write the lower triangle as a coordinate real symmetric file.

    Values use repr-precision formatting, so a read of the written file
    reproduces the stored entry set bit for bit."""
    r, c, v = m.lower_entries()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{m.n} {m.n} {len(v)}\n")
        for i, j, val in zip(r, c, v):
            fh.write(f"{i + 1} {j + 1} {float(val)!r}\n")


def read_dense_text(path) -> SymmetricMatrix:
    """Read the packed dense format: order n, then n(n+1)/2 lower-triangle
    values in row-major order, whitespace separated. The values are checked
    finite and mirrored once, by ``_scattered``'s symmetric branch, into
    dense storage."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParseError("empty file")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ParseError(f"bad order {tokens[0]!r}") from exc
    if n <= 0:
        raise ParseError(f"bad order {n}")
    expected = n * (n + 1) // 2
    values = tokens[1:]
    if len(values) != expected:
        raise ParseError(f"expected {expected} values for order {n}, found {len(values)}")
    try:
        flat = np.array([float(t) for t in values], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _check_finite(flat)
    rows, cols = np.tril_indices(n)
    return _scattered(n, rows, cols, flat, True)


def write_dense_text(m: SymmetricMatrix, path) -> None:
    """Write the packed dense format (see read_dense_text)."""
    a = m.dense()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.n}\n")
        for i in range(m.n):
            fh.write(" ".join(repr(float(x)) for x in a[i, : i + 1]))
            fh.write("\n")

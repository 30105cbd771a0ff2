"""Symmetric matrices, factorizations, linear solvers, and matrix I/O.

Two storage kinds back :class:`SymmetricMatrix`: full dense arrays and CSR
sparse. Construction symmetrizes and validates; everything downstream can
then assume exact symmetry. Operation counts are accumulated in explicit
:class:`Counters` objects passed by the caller, never in module globals, so
concurrent runs cannot interfere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    AsymmetricEntries,
    DimensionMismatch,
    NonFiniteEntries,
    NotPositiveDefinite,
    NotSquare,
    NumericalError,
    ParseError,
    PcgBreakdown,
    StaleFactor,
    ZeroDiagonal,
)

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-14


@dataclass
class Counters:
    """Per-run operation counts.

    matvecs counts applications of the operator being solved for (A or B),
    solves counts requested applications of B^{-1} (one per solve_spd call,
    whatever the backend), pcg_inner counts PCG inner iterations.
    """

    matvecs: int = 0
    solves: int = 0
    pcg_inner: int = 0


def _round_significant(values: np.ndarray, digits: int = 12) -> np.ndarray:
    """Round to a fixed number of significant digits, mapping -0.0 to 0.0."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(v)
    nz = v != 0.0
    mag = np.floor(np.log10(np.abs(v[nz])))
    scale = np.power(10.0, digits - 1 - mag)
    out[nz] = np.round(v[nz] * scale) / scale
    out[out == 0.0] = 0.0
    return out


def _entry_fingerprint(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> int:
    """64-bit digest of (n, sorted nonzero lower-triangle entry set).

    Values are rounded to 12 significant digits first so that two routes to
    the same matrix (within roundoff) fingerprint identically, and dense and
    CSR storage of the same entries agree.
    """
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    h = hashlib.blake2b(digest_size=8)
    h.update(int(n).to_bytes(8, "little"))
    h.update(np.ascontiguousarray(rows[order], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(cols[order], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(_round_significant(vals[order])).tobytes())
    return int.from_bytes(h.digest(), "little")


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteEntries("matrix has a NaN or infinite entry")


class SymmetricMatrix:
    """Square symmetric matrix with dense or CSR storage.

    Use :meth:`from_dense` or :meth:`from_sparse`; the constructor is not
    part of the public surface. NaN and infinite entries are rejected on
    entry, symmetry is checked against ``SYMMETRY_RTOL`` relative to the
    largest entry, and the stored data is exactly symmetrized afterwards.
    """

    def __init__(self, n: int, kind: str, dense=None, sparse=None):
        self.n = n
        self.kind = kind
        self._dense = dense
        self._sparse = sparse
        self._fp: int | None = None

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
        a = (a + a.T) / 2.0
        return cls(a.shape[0], "dense", dense=a)

    @classmethod
    def from_sparse(cls, mat) -> "SymmetricMatrix":
        s = scipy.sparse.csr_array(mat, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise NotSquare(f"expected a square sparse matrix, got shape {s.shape}")
        _check_finite(s.data)
        diff = (s - s.T).tocoo()
        scale = np.max(np.abs(s.data)) if s.nnz else 0.0
        gap = np.max(np.abs(diff.data)) if diff.nnz else 0.0
        if gap > SYMMETRY_RTOL * max(scale, 1e-300):
            raise AsymmetricEntries(f"max |M - M'| = {gap:.3e} exceeds tolerance")
        s = ((s + s.T) / 2.0).tocsr()
        s.sum_duplicates()
        s.eliminate_zeros()
        s.sort_indices()
        return cls(s.shape[0], "csr", sparse=s)

    @classmethod
    def from_lower_entries(cls, n: int, rows, cols, vals) -> "SymmetricMatrix":
        """Build from lower-triangle coordinates (i >= j), mirroring them."""
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
        return cls(n, "csr", sparse=s)

    @property
    def nnz(self) -> int:
        if self.kind == "csr":
            return int(self._sparse.nnz)
        return int(np.count_nonzero(self._dense))

    def dense(self) -> np.ndarray:
        if self.kind == "dense":
            return self._dense.copy()
        return self._sparse.toarray()

    def diagonal(self) -> np.ndarray:
        if self.kind == "dense":
            return np.diagonal(self._dense).copy()
        return self._sparse.diagonal().copy()

    def trace(self) -> float:
        return float(self.diagonal().sum())

    def matvec(self, x: np.ndarray, counters: Counters | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"vector shape {x.shape} vs order {self.n}")
        if counters is not None:
            counters.matvecs += 1
        if self.kind == "dense":
            return self._dense @ x
        return self._sparse @ x

    def lower_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero lower-triangle entries as (rows, cols, values)."""
        if self.kind == "dense":
            tri = np.tril(self._dense)
            r, c = np.nonzero(tri)
            return r, c, tri[r, c]
        coo = scipy.sparse.tril(self._sparse, format="coo")
        keep = coo.data != 0.0
        return coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64), coo.data[keep]

    def fingerprint(self) -> int:
        if self._fp is None:
            r, c, v = self.lower_entries()
            self._fp = _entry_fingerprint(self.n, r, c, v)
        return self._fp


def add_scaled(a: SymmetricMatrix, b: SymmetricMatrix, eta: float) -> SymmetricMatrix:
    """Return a + eta * b as a new SymmetricMatrix."""
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")
    if a.kind == "csr" and b.kind == "csr":
        return SymmetricMatrix.from_sparse(a._sparse + eta * b._sparse)
    return SymmetricMatrix.from_dense(a.dense() + eta * b.dense())


class CholeskyFactor:
    """Lower-triangular factor L with B = L L', dense or sparse storage.

    Sparse factors keep the strict lower part in CSR plus the diagonal, and
    solve through a SuperLU handle on L built once in natural order with
    diagonal pivoting: L is already triangular with positive pivots, so the
    handle's L U is L itself and both substitutions run compiled, the
    backward one as a transposed solve. The fingerprint of the source
    matrix is stored for staleness checks.
    """

    def __init__(self, n, source_fingerprint, dense_l=None, strict_lower=None,
                 diag=None, complete=True):
        self.n = n
        self.source_fingerprint = source_fingerprint
        self.complete = complete
        self._l = dense_l
        self._strict = strict_lower
        self._diag = diag
        self._lu = None if strict_lower is None else scipy.sparse.linalg.splu(
            scipy.sparse.csc_array(strict_lower + scipy.sparse.diags_array(diag)),
            permc_spec="NATURAL", diag_pivot_thresh=0.0)

    @property
    def kind(self) -> str:
        return "dense" if self._l is not None else "sparse"

    def lower(self) -> np.ndarray:
        if self._l is not None:
            return self._l.copy()
        return self._strict.toarray() + np.diag(self._diag)

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """Solve L y = b."""
        if self._l is not None:
            return scipy.linalg.solve_triangular(self._l, b, lower=True, check_finite=False)
        return self._lu.solve(np.asarray(b, dtype=np.float64))

    def solve_upper(self, b: np.ndarray) -> np.ndarray:
        """Solve L' x = b."""
        if self._l is not None:
            return scipy.linalg.solve_triangular(self._l, b, lower=True, trans="T",
                                                 check_finite=False)
        return self._lu.solve(np.asarray(b, dtype=np.float64), trans="T")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (L L') x = b."""
        return self.solve_upper(self.solve_lower(b))


def cholesky_factorize(b: SymmetricMatrix) -> CholeskyFactor:
    """Dense Cholesky factorization B = L L'.

    Raises NotPositiveDefinite when a pivot is nonpositive or falls below
    ``PIVOT_RTOL`` times the largest diagonal entry of B. Sparse input is
    densified; use :func:`incomplete_cholesky` to stay sparse.
    """
    dense = b.dense()
    try:
        l = np.linalg.cholesky(dense)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivots = np.diagonal(l) ** 2
    floor = PIVOT_RTOL * float(np.max(np.diagonal(dense)))
    if np.min(pivots) <= max(floor, 0.0):
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below threshold {floor:.3e}")
    return CholeskyFactor(b.n, b.fingerprint(), dense_l=l)


def incomplete_cholesky(b: SymmetricMatrix,
                        shifts: tuple = (0.0, 1e-3, 1e-2, 1e-1)) -> CholeskyFactor:
    """IC(0): Cholesky restricted to the lower-triangle pattern of B.

    On pivot breakdown the factorization restarts from B + gamma * diag(B)
    for each shift gamma in turn; NotPositiveDefinite is raised when every
    shift fails. The returned factor is marked incomplete and keeps the
    fingerprint of the unshifted matrix.
    """
    if b.kind == "dense":
        src = scipy.sparse.csr_array(b._dense)
    else:
        src = b._sparse
    low = scipy.sparse.tril(src, format="csr")
    low.sort_indices()
    diag_b = src.diagonal()
    floor = PIVOT_RTOL * float(np.max(diag_b))

    last_exc = None
    for gamma in shifts:
        try:
            strict, diag = _ic0(low, diag_b * gamma, floor)
            return CholeskyFactor(b.n, b.fingerprint(), strict_lower=strict,
                                  diag=diag, complete=False)
        except NotPositiveDefinite as exc:
            last_exc = exc
    raise NotPositiveDefinite(f"IC(0) failed for all shifts: {last_exc}")


def _ic0(low, diag_shift, floor):
    """Factor the given lower CSR pattern; returns (strict lower CSR, diag)."""
    n = low.shape[0]
    indptr, indices, data = low.indptr, low.indices, low.data
    lvals = np.zeros_like(data)
    ldiag = np.zeros(n)
    # row i of the strict part is data[indptr[i]:rowend[i]]; diagonal last
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
            lvals[idx] = (data[idx] - s) / ldiag[j]
        d = data[hi - 1] + diag_shift[i] - np.dot(lvals[lo:hi - 1], lvals[lo:hi - 1])
        if d <= max(floor, 0.0):
            raise NotPositiveDefinite(f"pivot {d:.3e} in row {i}")
        ldiag[i] = np.sqrt(d)
    # diagonal slots in lvals were never written and stay exactly zero
    strict = scipy.sparse.csr_array(
        (lvals, indices.copy(), indptr.copy()), shape=(n, n))
    strict.eliminate_zeros()
    strict.sort_indices()
    return strict, ldiag


class LinearSolver:
    """Solver handle for systems B x = r with B symmetric positive definite.

    mode 'cholesky' uses an exact dense factorization; mode 'pcg' runs
    preconditioned conjugate gradients capped at ``cap`` inner iterations
    with a Jacobi or IC(0) inner preconditioner. Both modes pin the
    fingerprint of B at construction and refuse mismatched matrices later.
    """

    def __init__(self, mode, n, fingerprint, factor=None, cap=30, tol=1e-10,
                 inner="jacobi", inner_diag=None, inner_factor=None):
        self.mode = mode
        self.n = n
        self.fingerprint = fingerprint
        self.factor = factor
        self.cap = cap
        self.tol = tol
        self.inner = inner
        self._inner_diag = inner_diag
        self._inner_factor = inner_factor

    @classmethod
    def exact(cls, b: SymmetricMatrix) -> "LinearSolver":
        return cls("cholesky", b.n, b.fingerprint(), factor=cholesky_factorize(b))

    @classmethod
    def pcg(cls, b: SymmetricMatrix, cap: int = 30, tol: float = 1e-10,
            inner: str | None = "jacobi") -> "LinearSolver":
        diag = None
        factor = None
        if inner == "jacobi":
            diag = b.diagonal()
            if np.min(diag) <= 0.0:
                raise ZeroDiagonal(f"nonpositive diagonal entry {np.min(diag):.3e}")
        elif inner == "ichol":
            factor = incomplete_cholesky(b)
        elif inner is not None:
            raise ValueError(f"unknown inner preconditioner {inner!r}")
        return cls("pcg", b.n, b.fingerprint(), cap=cap, tol=tol, inner=inner,
                   inner_diag=diag, inner_factor=factor)

    def _apply_inner(self, r: np.ndarray) -> np.ndarray:
        if self.inner == "jacobi":
            return r / self._inner_diag
        if self.inner == "ichol":
            return self._inner_factor.solve(r)
        return r.copy()


def solve_spd(solver: LinearSolver, b: SymmetricMatrix, r: np.ndarray,
              counters: Counters | None = None) -> np.ndarray:
    """Solve B x = r through the given handle.

    Counts one solve per call; in PCG mode the inner B-matvecs and inner
    iterations are additionally counted in matvecs and pcg_inner.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (solver.n,):
        raise DimensionMismatch(f"rhs shape {r.shape} vs order {solver.n}")
    if b.n != solver.n or b.fingerprint() != solver.fingerprint:
        raise StaleFactor("solver was built for a different matrix")
    if counters is not None:
        counters.solves += 1
    if solver.mode == "cholesky":
        return solver.factor.solve(r)
    return _pcg(solver, b, r, counters)


def _pcg(solver: LinearSolver, b: SymmetricMatrix, rhs: np.ndarray,
         counters: Counters | None) -> np.ndarray:
    x = np.zeros_like(rhs)
    r = rhs.copy()
    norm_rhs = float(np.linalg.norm(rhs))
    if norm_rhs == 0.0:
        return x
    z = solver._apply_inner(r)
    p = z.copy()
    rz = float(r @ z)
    if rz < 0.0:
        raise PcgBreakdown(f"indefinite inner preconditioner: r'z = {rz:.3e}")
    for _ in range(solver.cap):
        if counters is not None:
            counters.pcg_inner += 1
        bp = b.matvec(p, counters)
        pbp = float(p @ bp)
        if pbp <= 0.0:
            raise PcgBreakdown(f"nonpositive curvature p'Bp = {pbp:.3e}")
        alpha = rz / pbp
        x += alpha * p
        r -= alpha * bp
        if np.linalg.norm(r) <= solver.tol * norm_rhs:
            break
        z = solver._apply_inner(r)
        rz_next = float(r @ z)
        if rz_next < 0.0:
            raise PcgBreakdown(f"indefinite inner preconditioner: r'z = {rz_next:.3e}")
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12,
               max_sweeps: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a dense symmetric matrix.

    Sweeps row pairs until the off-diagonal Frobenius norm falls below
    ``tol`` times the Frobenius norm of the input. Returns eigenvalues in
    ascending order and the matching eigenvector columns. No library path
    calls it (the reference, ``validate_pair`` and the Lanczos Ritz step use
    LAPACK); it is kept because the benchmark's kernel probe imports it.

    Parameters
    ----------
    a : (n, n) array
        Symmetric input; a copy is rotated in place.
    tol : float
        Relative off-diagonal target.
    max_sweeps : int
        Hard sweep cap; exceeding it raises NumericalError.
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


def dominant_eigenvalue(apply_op, n: int, rtol: float = 1e-6, inflate: float = 1.01,
                        max_iters: int = 20000, seed: int = 180) -> float:
    """Power-iteration estimate of the largest eigenvalue of a symmetric
    positive semidefinite operator, inflated by the given factor.

    The start vector comes from a fixed internal seed so repeated calls are
    bitwise identical. Poorly separated spectra stall the iteration; the
    inflation factor is the safety margin for that."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = apply_op(v)
        lam_next = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(lam_next - lam) <= rtol * max(abs(lam_next), 1e-300):
            lam = lam_next
            break
        lam = lam_next
    return lam * inflate


# ---------------------------------------------------------------------------
# Matrix I/O


def read_matrix_market(path) -> SymmetricMatrix:
    """Read a Matrix Market coordinate file into a CSR SymmetricMatrix.

    Accepts real or integer fields with symmetric or general symmetry.
    General files must be square and symmetric within the entry tolerance.
    Duplicate coordinates are summed, per the exchange-format convention.
    """
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
        if nrows != ncols:
            raise NotSquare(f"{nrows} x {ncols} matrix is not square")

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        count = 0
        for line in fh:
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'i j value'")
            if count >= nnz:
                raise ParseError(f"line {lineno}: more entries than declared ({nnz})")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(f"line {lineno}: index ({i}, {j}) out of range")
            rows[count] = i - 1
            cols[count] = j - 1
            vals[count] = v
            count += 1
        if count != nnz:
            raise ParseError(f"declared {nnz} entries, found {count}")

    if symmetry.lower() == "symmetric":
        # mirror across the diagonal; either triangle may be stored
        low_r = np.where(rows >= cols, rows, cols)
        low_c = np.where(rows >= cols, cols, rows)
        return SymmetricMatrix.from_lower_entries(nrows, low_r, low_c, vals)
    coo = scipy.sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols))
    coo.sum_duplicates()
    return SymmetricMatrix.from_sparse(coo.tocsr())


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
    values in row-major order, whitespace separated."""
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
    a = np.zeros((n, n))
    idx = 0
    for i in range(n):
        a[i, : i + 1] = flat[idx: idx + i + 1]
        idx += i + 1
    a = a + np.tril(a, -1).T
    return SymmetricMatrix.from_dense(a)


def write_dense_text(m: SymmetricMatrix, path) -> None:
    """Write the packed dense format (see read_dense_text)."""
    a = m.dense()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.n}\n")
        for i in range(m.n):
            fh.write(" ".join(repr(float(x)) for x in a[i, : i + 1]))
            fh.write("\n")

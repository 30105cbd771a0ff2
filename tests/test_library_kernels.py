"""No library path runs the pure-Python Jacobi eigensolver, and no dense
B-solve goes through scipy's `solve_triangular` wrapper.

`jacobi_eigh` stays exported, but the reference, pair validation and the
Lanczos Ritz step use LAPACK; it is about a thousand times slower at the
orders the benchmark grid uses. Every module attribute bound to it is made
to raise, then each of those paths runs. Dense triangular solves call
LAPACK's `trtrs` directly; the wrapper's Python overhead cost more than the
substitution itself at the grid's orders. For the same reason the Lanczos
Ritz step calls LAPACK's `dstebz` and `dstein` directly, not the
`eigh_tridiagonal` wrapper around them. A dense exact B-solve is one BLAS
`dsymv` on the inverse that the factor's first solve formed, and a dense
product is one `dsymv` on the operand's own upper triangle, never
`ndarray.dot`, into a new array. CSR products call scipy's compiled
`dia_matvec` when the nonzeros lie on few diagonals and `csr_matvec`
otherwise; both live in a private module, and their contract
with `csr_array @ x` is pinned here. The iteration loops' inner products,
scalings and unit-coefficient updates call BLAS level 1 (`ddot`, `dscal`,
`daxpy`) through scipy's wrappers; each form used equals its numpy form bit
for bit on contiguous vectors, which is pinned here too. Dense operands and
the dense factor's L' start on a 64-byte line, where `dsymv` and `dtrtrs`
run fastest; their results do not depend on that placement.
"""

import hashlib
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import daxpy, ddot, dscal, dsymv
from scipy.linalg.lapack import dtrtrs

import gepsolve.linalg
import gepsolve.precond
import gepsolve.solvers
from gepsolve import (Counters, CurvatureBound, LinearSolver, MatrixPair, NotPositiveDefinite,
                      SolverConfig, SymmetricMatrix, SyntheticSpec, gen_synthetic,
                      incomplete_cholesky, read_dense_text, read_matrix_market,
                      reference_solution, run_lanczos, solve, solve_spd, top_k, validate_pair,
                      write_dense_text, write_matrix_market)
from gepsolve.bench import SuiteCell, SuiteConfig, run_suite
from gepsolve.linalg import add_scaled
from gepsolve.solvers import METHODS


def forbid_jacobi(monkeypatch):
    original = gepsolve.linalg.jacobi_eigh

    def forbidden(*args, **kwargs):
        raise AssertionError("jacobi_eigh called from a library path")

    for name, module in list(sys.modules.items()):
        if name == "gepsolve" or name.startswith("gepsolve."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)


def test_reference_validation_and_runners_avoid_jacobi(monkeypatch):
    forbid_jacobi(monkeypatch)
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=3))
    ref = reference_solution(pair)
    assert ref.residual <= 1e-8 * ref.lam
    assert validate_pair(pair).a_positive_semidefinite

    x0 = np.random.default_rng(0).standard_normal(pair.n)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", tol=1e-8, reference=ref.u), x0)
    assert trace.converged
    assert abs(trace.final().lam - ref.lam) <= 1e-8 * ref.lam

    report = run_suite(SuiteConfig(cells=[SuiteCell(16, 10.0)], methods=list(METHODS),
                                   trials=1))
    assert all(m.success_rate == 1.0 for m in report.cells[0].methods)


def test_indefinite_a_validation_avoids_jacobi(monkeypatch):
    forbid_jacobi(monkeypatch)
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([1.0, -2.0, 0.5])),
                      SymmetricMatrix.from_dense(np.eye(3)))
    diag = validate_pair(pair)
    assert not diag.a_positive_semidefinite
    assert diag.min_generalized_eigenvalue == pytest.approx(-2.0, rel=1e-12)


def test_dense_b_solves_avoid_solve_triangular(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_triangular called from a library path")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    pair = gen_synthetic(SyntheticSpec(n=32, kappa_b=10.0, seed=0))
    x0 = np.random.default_rng(0).standard_normal(pair.n)
    for method in METHODS:
        assert solve(pair, SolverConfig(method=method, tol=1e-6), x0).converged
    for method in ("split-merge", "pmd"):
        assert len(top_k(pair, 2, SolverConfig(method=method, tol=1e-6))) == 2


def test_dense_exact_b_solves_make_one_dsymv_call(monkeypatch):
    """Each dense exact B-solve is one dsymv on the inverse its first solve
    formed: no dtrtrs, and never solve_triangular. Dense products are dsymv
    calls too, told apart by their matrix: an operand's own storage."""
    calls = []
    for name in ("dsymv", "dtrtrs"):
        def spy(*args, _real=getattr(gepsolve.linalg, name), _name=name):
            calls.append((_name, args[1]))
            return _real(*args)
        monkeypatch.setattr(gepsolve.linalg, name, spy)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_triangular called from a library path")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    pair = gen_synthetic(SyntheticSpec(n=32, kappa_b=10.0, seed=0))
    rhs = np.random.default_rng(0).standard_normal(pair.n)
    counters = Counters()
    for _ in range(3):
        solve_spd(LinearSolver.exact(pair.b), pair.b, rhs, counters)
    trace = solve(pair, SolverConfig(method="power", tol=1e-6), rhs)
    assert trace.converged
    inverse, operands = pair.b.cholesky()._inv, (pair.a._mt, pair.b._mt)
    solves = [name for name, m in calls if m is inverse]
    products = [name for name, m in calls if any(m is op for op in operands)]
    assert solves == ["dsymv"] * (3 + trace.counters.solves)
    assert products == ["dsymv"] * (len(calls) - len(solves)) and products


class DotSpy(np.ndarray):
    """An operand array that records every ``dot`` called on it."""

    calls = []

    def dot(self, *args, **kwargs):
        DotSpy.calls.append(self.shape)
        return super().dot(*args, **kwargs)


def test_dense_products_make_one_dsymv_call_on_the_operand(monkeypatch):
    """Each dense product is one dsymv on the operand's own storage and no
    ndarray.dot, and returns a new array: gd scales B x in place."""
    base = gen_synthetic(SyntheticSpec(n=32, kappa_b=10.0, seed=0))
    pair = MatrixPair(*(SymmetricMatrix(m._m.view(DotSpy)) for m in (base.a, base.b)))
    names = {id(pair.a._mt): "A", id(pair.b._mt): "B"}
    calls, outs = [], []
    real = gepsolve.linalg.dsymv

    def spy(alpha, m, x, *args, **kwargs):
        calls.append(names.get(id(m), "other"))
        outs.append(real(alpha, m, x, *args, **kwargs))
        return outs[-1]
    monkeypatch.setattr(gepsolve.linalg, "dsymv", spy)
    DotSpy.calls.clear()
    x = np.random.default_rng(0).standard_normal(pair.n)
    got = [pair.a.matvec(x), pair.a.matvec(x), pair.b.matvec(x)]
    assert calls == ["A", "A", "B"] and [id(y) for y in got] == [id(y) for y in outs]
    assert got[0].tobytes() == got[1].tobytes() == base.a.matvec(x).tobytes()
    calls.clear()
    trace = solve(pair, SolverConfig(method="gd", max_iterations=5), x)
    assert trace.iterations == 5 and calls.count("A") >= 5 and calls.count("B") >= 5
    assert set(calls) == {"A", "B"} and DotSpy.calls == []
    assert len({id(y) for y in outs}) == len(outs)  # all held, so ids cannot repeat
    assert all(y.flags.owndata and not np.shares_memory(y, x) for y in outs)


def csr_cases(tmp_path):
    """CSR matrices with int64 indices (read from a file), int32 indices
    (from_sparse), and an all-zero row and column."""
    side = 12
    t = scipy.sparse.diags_array([-1.0, 2.5, -1.0], offsets=[-1, 0, 1], shape=(side, side))
    eye = scipy.sparse.eye_array(side)
    grid = scipy.sparse.csr_array(scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye))
    write_matrix_market(SymmetricMatrix.from_sparse(grid), tmp_path / "grid.mtx")
    from_file = read_matrix_market(tmp_path / "grid.mtx")
    in_memory = SymmetricMatrix.from_sparse(grid)
    holed = grid.tolil()
    holed[5, :] = 0.0
    holed[:, 5] = 0.0
    with_zero_row = SymmetricMatrix.from_sparse(holed.tocsr())
    return {"int64": from_file, "int32": in_memory, "zero-row": with_zero_row}


def scattered_case():
    """A CSR matrix whose nonzeros spread over most diagonals."""
    rng = np.random.default_rng(9)
    s = scipy.sparse.random_array((30, 30), density=0.1, rng=rng)
    return SymmetricMatrix.from_sparse(s + s.T + scipy.sparse.eye_array(30))


def test_csr_products_call_the_compiled_kernel_bitwise(tmp_path, monkeypatch):
    # an ImportError here means scipy moved its private kernels: linalg.py
    # imports them from the same place
    from scipy.sparse._sparsetools import csr_matvec, dia_matvec

    assert gepsolve.linalg.csr_matvec is csr_matvec
    assert gepsolve.linalg.dia_matvec is dia_matvec
    calls = []

    def spying(kernel):
        def spy(*args):
            calls.append((kernel, args[-1]))
            return kernel(*args)
        return spy

    monkeypatch.setattr(gepsolve.linalg, "csr_matvec", spying(csr_matvec))
    monkeypatch.setattr(gepsolve.linalg, "dia_matvec", spying(dia_matvec))
    cases = csr_cases(tmp_path)
    assert cases["int64"].kind == "csr" and cases["int64"]._m.indices.dtype == np.int64
    assert cases["int32"]._m.indices.dtype == np.int32
    assert cases["zero-row"]._m.indptr[5] == cases["zero-row"]._m.indptr[6]
    # the grids' nonzeros lie on five diagonals; the scattered pattern's do not
    cases["scattered"] = scattered_case()
    kernels = {"int64": dia_matvec, "int32": dia_matvec, "zero-row": dia_matvec,
               "scattered": csr_matvec}

    rng = np.random.default_rng(4)
    for name, mat in cases.items():
        basis = rng.standard_normal((mat.n, 3))
        strided = basis[:, 1]
        assert not strided.flags.c_contiguous
        inputs = [rng.standard_normal(mat.n), strided, list(rng.standard_normal(mat.n))]
        counters = Counters()
        for i, x in enumerate(inputs, 1):
            y = mat.matvec(x, counters)
            want = mat._m @ np.asarray(x, dtype=np.float64)
            assert y.dtype == want.dtype and y.shape == want.shape, name
            assert y.tobytes() == want.tobytes(), name
            assert calls[-1][0] is kernels[name] and calls[-1][1] is y, name
            assert counters.matvecs == i
        if name == "zero-row":
            assert y[5] == 0.0
    assert len(calls) == 3 * len(cases)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), band=st.integers(0, 3), holes=st.floats(0.0, 0.3),
       zero_rows=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_banded_products_are_bitwise_csr_products(n, band, holes, zero_rows, seed):
    """Products of banded matrices with holes, zero rows and diagonal-only
    patterns equal ``csr_array @ x`` bit for bit, on either kernel."""
    from scipy.sparse._sparsetools import csr_matvec, dia_matvec

    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for k in range(min(band, n - 1) + 1):
        vals = rng.standard_normal(n - k) * (rng.random(n - k) >= holes)
        dense += np.diag(vals, k) + (np.diag(vals, -k) if k else 0.0)
    for i in rng.integers(0, n, zero_rows):
        dense[i, :] = dense[:, i] = 0.0
    mat = SymmetricMatrix.from_sparse(scipy.sparse.csr_array(dense))
    rows, cols = mat._m.nonzero()
    diagonals = len(np.unique(cols - rows))
    banded = diagonals * n <= gepsolve.linalg.DIA_MAX_FILL * mat.nnz
    assert mat._kernel.func is (dia_matvec if banded else csr_matvec)

    basis = rng.standard_normal((n, 2))
    for x in (rng.standard_normal(n), basis[:, 1], list(rng.standard_normal(n))):
        want = mat._m @ np.asarray(x, dtype=np.float64)
        assert mat.matvec(x).tobytes() == want.tobytes()


def ring_beside_grid():
    """The 12 x 12 grid of csr_cases beside a definite 4 x 4 ring whose
    zero-fill factorization breaks down until the shift ladder's last rung."""
    side = 12
    t = scipy.sparse.diags_array([-1.0, 2.5, -1.0], offsets=[-1, 0, 1], shape=(side, side))
    eye = scipy.sparse.eye_array(side)
    grid = scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)
    base = np.array([[3.0, -2.0, 0.0, 2.0],
                     [-2.0, 3.0, -2.0, 0.0],
                     [0.0, -2.0, 3.0, -2.0],
                     [2.0, 0.0, -2.0, 3.0]])
    d = np.diag(np.diagonal(base))
    ring = d + 0.9 * (base - d)
    return SymmetricMatrix.from_sparse(scipy.sparse.block_diag([grid, ring], format="csr"))


IC0_SHA256 = {
    "int64": "4b5021db00d3c485cd7d4750154c4b937a0c7729890ab61eb055c432cdbc9592",
    "int32": "4b5021db00d3c485cd7d4750154c4b937a0c7729890ab61eb055c432cdbc9592",
    "shifted": "22a6d04637cb1a4893099ba54b4fd03d4501e281defb24c0b2880af12234c5ad",
}


def test_ic0_factor_bytes_are_pinned(tmp_path):
    # the factor's bytes are seeded output: PCG inner steps and pmd's metric
    # run on them, so a faster factorization must reproduce them exactly
    cases = csr_cases(tmp_path)
    shifted = ring_beside_grid()
    assert np.linalg.eigvalsh(shifted.dense())[0] > 0.0
    for gamma in (0.0, 1e-3, 1e-2):
        with pytest.raises(NotPositiveDefinite):
            incomplete_cholesky(shifted, shifts=(gamma,))
    mats = {"int64": cases["int64"], "int32": cases["int32"], "shifted": shifted}
    for name, mat in mats.items():
        lower = incomplete_cholesky(mat).lower()
        assert hashlib.sha256(lower.tobytes()).hexdigest() == IC0_SHA256[name], name


def test_diverging_gd_on_a_banded_pencil_ends_alike():
    # half the curvature the grid needs: the iterates grow until x'Ax
    # overflows, so the run crosses non-finite values in its products
    m = 8
    n = m * m
    t = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.eye_array(m)
    b = scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye) + 0.5 * scipy.sparse.eye_array(n)
    d = np.append(np.linspace(0.01, 1.0, n - 1), 2.0)[np.random.default_rng(0).permutation(n)]
    pair = MatrixPair(SymmetricMatrix.from_sparse(scipy.sparse.diags_array(d)),
                      SymmetricMatrix.from_sparse(b))
    assert pair.a.kind == pair.b.kind == "csr"
    config = SolverConfig(method="gd", tol=1e-6, curvature_bound=CurvatureBound(0.5, "dominant"))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = solve(pair, config, np.ones(n))
    assert trace.status == "diverged"
    assert trace.final().k == 88
    assert trace.counters.matvecs == 178


def vectors(n, seed, count):
    """Contiguous vectors with negative entries, exact zeros of both signs
    and magnitudes over twelve decades."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        v[rng.random(n) < 0.1] = 0.0
        v[rng.random(n) < 0.05] = -0.0
        out.append(v)
    return out


# lengths either side of OpenBLAS's threading threshold, run at its default
# thread count, and of the kernels' unrolled blocks
LENGTHS = st.one_of(st.integers(1, 70_000), st.integers(1, 70),
                    st.sampled_from([4096, 65_536, 70_000]))
COEFFICIENTS = st.floats(1e-8, 1e8).flatmap(lambda a: st.sampled_from([a, -a]))


@settings(max_examples=120, deadline=None)
@given(n=LENGTHS, seed=st.integers(0, 2**32 - 1), a=COEFFICIENTS)
def test_level1_blas_forms_equal_their_numpy_forms_bitwise(n, seed, a):
    """Every BLAS form the loops use against the numpy expression it
    replaced. Where ``daxpy`` adds with coefficient 1 or -1 the products are
    exact, so its fused multiply-add rounds once, as numpy's add does. The
    PCG updates, the gd/pmd step and the gd gradient take a general
    coefficient and round once where numpy rounds twice, so they stay within
    both roundings; the gradient and the normalizations multiply by a
    rounded reciprocal, which moves the quotient by less than one ulp more."""
    x, y, z = vectors(n, seed, 3)

    def same(got, want):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def within(got, want, *rounded):
        """|got - want| within half an ulp of each value: got, want and each
        rounding that one form makes and the other does not."""
        ulps = sum(np.spacing(np.abs(v)) for v in (got, want, *rounded))
        assert np.all(np.abs(got - want) <= ulps / 2)

    for u, v in ((x, y), (x, x), (y, z)):
        if n > 1:
            same(ddot(u, v), u.dot(v))
        else:  # numpy returns a lone product, keeping -0.0; ddot adds it to +0.0
            assert ddot(u, v) == u.dot(v)
    same(dscal(a, x.copy()), a * x)
    within(daxpy(y, x.copy(), a=a), x + a * y, a * y)             # PCG updates
    within(daxpy(y, x.copy(), a=-a), x - a * y, a * y)            # gd/pmd step
    same(daxpy(x, dscal(-a, y.copy())), x - a * y)                # Rayleigh residuals
    same(daxpy(dscal(-a, y.copy()), x.copy()), x - a * y)         # Lanczos w
    same(daxpy(x, y * -a), x - y * a)                             # deflation, sin, split-merge
    root = abs(a)
    quotient = y / root
    within(daxpy(y, dscal(2.0, x.copy()), a=-1.0 / root), 2.0 * x - quotient,  # gd gradient
           quotient, quotient, quotient)
    within(dscal(1.0 / root, y.copy()), quotient, quotient, quotient)  # normalizations


def test_strided_numpy_dots_can_differ_from_contiguous_ddot():
    # why every BLAS operand is contiguous: numpy hands a strided view to the
    # kernel's strided loop, which sums in another order than the unrolled one
    rng = np.random.default_rng(0)
    differ = 0
    for _ in range(10):
        view = rng.standard_normal(3 * 4096)[::3]
        differ += view.dot(view) != ddot(view.copy(), view.copy())
    assert differ > 0


def test_pcg_and_gd_call_level1_blas(monkeypatch):
    """A refactor that falls back to numpy's dispatch in these loops fails here."""
    calls = []

    def spying(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append((module.__name__, name))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    for name in ("ddot", "daxpy"):  # PCG fuses every scaling into a daxpy
        spying(gepsolve.precond, name)
    for name in ("ddot", "dscal", "daxpy"):
        spying(gepsolve.solvers, name)
    b = SymmetricMatrix.from_sparse(scipy.sparse.diags_array(
        [-1.0, 2.5, -1.0], offsets=[-1, 0, 1], shape=(40, 40)))
    rhs = np.random.default_rng(0).standard_normal(b.n)
    solve_spd(LinearSolver.pcg(b, cap=5), b, rhs, Counters())
    assert {name for module, name in calls if module == "gepsolve.precond"} == \
        {"ddot", "daxpy"}
    calls.clear()
    divides = []
    real_divide = np.divide

    def divide(*args, **kwargs):
        divides.append(args)
        return real_divide(*args, **kwargs)
    monkeypatch.setattr(np, "divide", divide)
    pair = gen_synthetic(SyntheticSpec(n=16, kappa_b=10.0, seed=0))
    solve(pair, SolverConfig(method="gd", max_iterations=1), np.ones(pair.n))
    assert {name for module, name in calls if module == "gepsolve.solvers"} == \
        {"ddot", "dscal", "daxpy"}
    assert divides == []

    # every power and split-merge step normalizes its new direction by dscal
    units = []
    spied = gepsolve.solvers.dscal

    def dscal_unit(alpha, x, *args, **kwargs):
        out = spied(alpha, x, *args, **kwargs)
        units.append(abs(ddot(out, out) - 1.0) <= 1e-14)
        return out
    monkeypatch.setattr(gepsolve.solvers, "dscal", dscal_unit)
    ref = reference_solution(pair).u
    for method in ("power", "split-merge"):
        units.clear()
        trace = solve(pair, SolverConfig(method=method, max_iterations=3, reference=ref),
                      np.ones(pair.n))
        assert trace.iterations == 3 and sum(units) == 3, method


def test_lanczos_ritz_step_calls_lapack_directly(monkeypatch):
    """One dstebz and one dstein call per cycle, never eigh_tridiagonal."""
    calls = []
    for name in ("dstebz", "dstein"):
        def spy(*args, _real=getattr(gepsolve.solvers, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(gepsolve.solvers, name, spy)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called from a library path")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", forbidden)
    pair = gen_synthetic(SyntheticSpec(n=64, kappa_b=10.0, seed=0))
    x0 = np.random.default_rng(0).standard_normal(pair.n)
    trace = run_lanczos(pair, SolverConfig(method="lanczos", lanczos_cycle=5), x0)
    assert trace.converged and len(trace.records) >= 2
    assert calls == ["dstebz", "dstein"] * len(trace.records)


def test_dense_matrix_market_files_are_wrapped_once(tmp_path, monkeypatch):
    """A file stored dense is wrapped once, dense: same bytes and
    fingerprint as densifying the CSR matrix."""
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=0))
    write_matrix_market(pair.b, tmp_path / "b.mtx")
    built = []
    real_init = SymmetricMatrix.__init__

    def counted(self, m):
        built.append(type(m).__name__)
        real_init(self, m)

    monkeypatch.setattr(SymmetricMatrix, "__init__", counted)
    got = read_matrix_market(tmp_path / "b.mtx")
    assert built == ["ndarray"] and got.kind == "dense"
    monkeypatch.undo()
    r, c, v = pair.b.lower_entries()
    want = SymmetricMatrix.from_dense(
        SymmetricMatrix.from_lower_entries(pair.n, r, c, v).dense())
    assert got._m.tobytes() == want._m.tobytes()
    assert got.fingerprint() == want.fingerprint() == pair.b.fingerprint()


def placed(a, offset, order="C"):
    """A copy of ``a`` in ``order`` whose data starts ``offset`` bytes past a 64-byte line."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start:start + a.nbytes].view(np.float64).reshape(a.shape, order=order)
    out[...] = a
    return out


def on_line(a, order="C"):
    return a.ctypes.data % 64 == 0 and a.flags[order + "_CONTIGUOUS"]


def test_dense_operands_and_factors_start_on_a_line(tmp_path):
    for n in (40, 41, 64):
        pair = gen_synthetic(SyntheticSpec(n=n, kappa_b=10.0, seed=n))
        write_matrix_market(pair.b, tmp_path / "b.mtx")
        write_dense_text(pair.a, tmp_path / "a.txt")
        mats = {
            "gen_synthetic A": pair.a, "gen_synthetic B": pair.b,
            "from_dense": SymmetricMatrix.from_dense(placed(pair.a.dense(), 16)),
            "from_dense, F order": SymmetricMatrix.from_dense(placed(pair.a.dense(), 8, "F")),
            "read_matrix_market": read_matrix_market(tmp_path / "b.mtx"),
            "read_dense_text": read_dense_text(tmp_path / "a.txt"),
            "add_scaled": add_scaled(pair.a, pair.b, -0.5),
        }
        for name, m in mats.items():
            assert m.kind == "dense" and on_line(m._m), (n, name)
            assert m.dense().tobytes() == m._m.tobytes(), (n, name)
        factor = pair.b.cholesky()
        assert on_line(factor._lt, "F") and factor._l.flags.c_contiguous
        assert np.array_equal(factor.lower(), np.linalg.cholesky(pair.b.dense()))


@pytest.mark.parametrize("n", [63, 64, 65, 256])
def test_operand_placement_leaves_results_unchanged(n):
    """A pencil built from operands 16 bytes off a line computes what one
    built from operands on a line does, and what BLAS and LAPACK compute on
    the off-line operands themselves, bit for bit."""
    base = gen_synthetic(SyntheticSpec(n=n, kappa_b=10.0, seed=n))
    a, b = base.a.dense(), base.b.dense()
    pairs = [MatrixPair(SymmetricMatrix.from_dense(placed(a, offset)),
                        SymmetricMatrix.from_dense(placed(b, offset))) for offset in (16, 0)]
    off_a = placed(a, 16)
    off_lt = placed(base.b.cholesky().lower().T, 16, "F")
    assert off_a.ctypes.data % 64 == off_lt.ctypes.data % 64 == 16

    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    results = []
    for pair in pairs:
        factor = pair.b.cholesky()
        assert on_line(pair.a._m) and on_line(factor._lt, "F")
        got = [pair.a.matvec(x), factor.solve_lower(x), factor.solve_upper(x)]
        for method in ("gd", "pmd", "power"):
            trace = solve(pair, SolverConfig(method=method, tol=1e-6, seed=n), x)
            last = trace.final()
            got.append((trace.status, last.k, last.f.hex(), last.lam.hex(),
                        trace.counters.matvecs, trace.counters.solves))
        results.append([r.tobytes() if isinstance(r, np.ndarray) else r for r in got])
    assert results[0] == results[1]
    assert results[0][:3] == [dsymv(1.0, off_a.T, x).tobytes(),
                              dtrtrs(off_lt, x, 0, 1)[0].tobytes(),
                              dtrtrs(off_lt, x, 0, 0)[0].tobytes()]

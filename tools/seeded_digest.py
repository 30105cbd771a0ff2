"""One SHA-256 over gepsolve's seeded outcomes, to show a change leaves them bit-identical.

    python3 tools/seeded_digest.py

Run from anywhere in a source checkout; the package is imported from that
checkout's ``src`` directory, with one BLAS thread. It prints one ``name
sha256 summary`` line per outcome and then the total over all of them as the
last line. The summary is for reading: a run's status, iterations, counters
and final lambda (floats as ``repr``), a ``top_k``'s lambdas, a reference's
lambda and route. Only the canonical text behind each sha256 is hashed. Run
it on two trees and compare: equal last lines mean every outcome below has
the same bytes, and ``diff`` of the two listings is a before/after table of
the outcomes that moved.

Outcomes covered:
  - all five methods, with and without a reference, on ``gen_synthetic``
    (64, 10, 0), (128, 100, 1) and (256, 10, 2), and on a 16x16 grid pencil
    written to and read back from ``.mtx``;
  - power, split-merge and lanczos over ``LinearSolver.pcg(cap=40)`` on the
    grid pencil and on ``gen_synthetic`` (64, 10, 0), whose B's diagonal
    varies, so that Jacobi is no uniform scale there; and pmd in the grid
    pencil's IC(0) metric;
  - power and split-merge over ``LinearSolver.pcg(cap=30)`` on the grid
    pencil, where every solve stops at its cap;
  - ``top_k(3)`` for each method;
  - a two-cell ``run_suite`` report without its ``elapsed_ns`` statistics;
  - ``reference_solution``'s lambda and u for every pencil.
Each run hashes its status, iterations, counters, every record's k, f,
lambda and sin theta (as ``float.hex``), the bytes of x and the diagnostics.
A run that raises hashes the error's type and message.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.sparse  # noqa: E402

from gepsolve import (GepSolveError, LinearSolver, MatrixPair, SolverConfig,  # noqa: E402
                      SymmetricMatrix, SyntheticSpec, build_preconditioner, gen_synthetic,
                      read_matrix_market, reference_solution, solve, top_k,
                      write_matrix_market)
from gepsolve.bench import SuiteCell, SuiteConfig, run_suite  # noqa: E402
from gepsolve.solvers import METHODS  # noqa: E402

SYNTHETIC = ((64, 10.0, 0), (128, 100.0, 1), (256, 10.0, 2))
TOL = 1e-6
CAP = 3000


def canonical(value) -> str:
    """A text form of nested outcomes in which every float is exact."""
    if isinstance(value, (bool, type(None), str, int, np.integer)):
        return repr(value if not isinstance(value, np.integer) else int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:{hashlib.sha256(value.tobytes()).hexdigest()}"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{canonical(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def outcome(run) -> tuple[str, str]:
    """``run()``'s trace, pairs or error in canonical form, and a summary."""
    try:
        result = run()
    except GepSolveError as exc:
        return f"error:{type(exc).__name__}:{exc}", f"error {type(exc).__name__}"
    if isinstance(result, list):  # top_k's (lambda, u) pairs
        return (canonical([[lam, u] for lam, u in result]),
                f"lams={[lam for lam, _ in result]!r}")
    text = canonical([
        result.method, result.status, result.iterations, asdict(result.counters),
        [[r.k, r.f, r.lam, r.sin_theta, r.matvecs, r.solves] for r in result.records],
        result.criterion, result.criterion_values, result.x, result.diagnostics])
    counters = " ".join(f"{k}={v!r}" for k, v in asdict(result.counters).items())
    return text, (f"{result.status} iterations={result.iterations} {counters} "
                  f"lam={result.final().lam!r}")


def grid_pencil(m: int, folder: Path) -> MatrixPair:
    """The m x m grid pencil (B: 5-point Laplacian plus 0.5 I; A: diagonal
    with one planted top entry), written to ``.mtx`` and read back."""
    n = m * m
    t = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.eye_array(m)
    b = scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye) + 0.5 * scipy.sparse.eye_array(n)
    d = np.append(np.linspace(0.01, 1.0, n - 1), 2.0)[np.random.default_rng(0).permutation(n)]
    mats = []
    for name, mat in (("a", scipy.sparse.diags_array(d)), ("b", b)):
        path = folder / f"grid_{name}.mtx"
        write_matrix_market(SymmetricMatrix.from_sparse(mat), path)
        mats.append(read_matrix_market(path))
    return MatrixPair(*mats)


def outcomes(folder: Path):
    """(name, canonical outcome, summary) for every case, in a fixed order."""
    pencils = [(f"synthetic{n}-{kb:g}-{seed}",
                gen_synthetic(SyntheticSpec(n=n, kappa_b=kb, seed=seed)), seed)
               for n, kb, seed in SYNTHETIC]
    pencils.append(("grid16", grid_pencil(16, folder), 3))
    for name, pair, seed in pencils:
        ref = reference_solution(pair)
        yield (f"{name}/reference", canonical([ref.lam, ref.u, ref.route]),
               f"lam={ref.lam!r} route={ref.route}")
        x0 = np.random.default_rng(seed).standard_normal(pair.n)
        for method in METHODS:
            for reference in (None, ref.u):
                config = SolverConfig(method=method, tol=TOL, max_iterations=CAP,
                                      seed=seed, reference=reference)
                label = "ref" if reference is not None else "gradient"
                yield f"{name}/{method}/{label}", *outcome(lambda: solve(pair, config, x0))

    for name, pair, seed in (pencils[-1], pencils[0]):
        x0 = np.random.default_rng(seed).standard_normal(pair.n)
        pcg = LinearSolver.pcg(pair.b, cap=40)
        for method in ("power", "split-merge", "lanczos"):
            config = SolverConfig(method=method, tol=TOL, max_iterations=CAP, linear_solver=pcg)
            yield f"{name}/{method}/pcg40", *outcome(lambda: solve(pair, config, x0))
    name, pair, seed = pencils[-1]
    x0 = np.random.default_rng(seed).standard_normal(pair.n)
    pcg = LinearSolver.pcg(pair.b, cap=30)
    for method in ("power", "split-merge"):
        config = SolverConfig(method=method, tol=TOL, max_iterations=CAP, linear_solver=pcg)
        yield f"{name}/{method}/pcg30", *outcome(lambda: solve(pair, config, x0))
    ic0 = build_preconditioner(pair.b, "incomplete-cholesky")
    config = SolverConfig(method="pmd", tol=TOL, max_iterations=CAP, preconditioner=ic0)
    yield f"{name}/pmd/ic0", *outcome(lambda: solve(pair, config, x0))

    name, pair, seed = pencils[0]
    x0 = np.random.default_rng(seed).standard_normal(pair.n)
    for method in METHODS:
        config = SolverConfig(method=method, tol=TOL, max_iterations=CAP, seed=seed)
        yield f"{name}/top_k3/{method}", *outcome(lambda: top_k(pair, 3, config, x0))

    suite = SuiteConfig(cells=[SuiteCell(16, 10.0), SuiteCell(24, 100.0)],
                        methods=list(METHODS), trials=2, tol=TOL, max_iterations=CAP, seed=7)
    report = run_suite(suite).to_dict()
    for cell in report["cells"]:
        for stats in cell["methods"]:
            stats.pop("elapsed_ns_median")
            stats.pop("elapsed_ns_mean")
    yield "run_suite", canonical(report), f"cells={len(report['cells'])}"


def main() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, summary in outcomes(Path(tmp)):
            entry = f"{name}\n{text}\n".encode()
            total.update(entry)
            print(name, hashlib.sha256(entry).hexdigest(), summary)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

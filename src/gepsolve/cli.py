"""Command-line interface.

Subcommands: gen (write a synthetic pair), solve (one run on a pair from
disk), topk (staged deflation), bench (suite over a grid). Exit codes: 0
converged or completed, 2 iteration cap hit, 3 input error or invalid
argument, 4 numerical failure, 5 degenerate run, 6 diverged run (the
objective became non-finite).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import SuiteConfig, ci_suite, export_report, full_suite, run_suite
from .deflation import top_k
from .errors import GepSolveError, InputError
from .linalg import read_dense_text, read_matrix_market, write_dense_text, \
    write_matrix_market
from .objective import MatrixPair
from .precond import LinearSolver, build_preconditioner
from .reference import reference_solution
from .solvers import METHODS, SolverConfig, solve
from .synthetic import SyntheticSpec, gen_synthetic

EXIT_OK = 0
EXIT_CAP = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
EXIT_DEGENERATE = 5
EXIT_DIVERGED = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gepsolve",
        description="Solvers for the dominant generalized eigenpair of (A, B)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic pair and write it")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kappa-a", type=float, default=100.0)
    gen.add_argument("--kappa-b", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="path prefix; _A/_B suffixes added")
    gen.add_argument("--format", choices=("mm", "dense"), default="mm")

    solve = sub.add_parser("solve", help="run one solver on a pair from disk")
    _pair_arguments(solve)
    _solver_arguments(solve)
    solve.add_argument("--ref", choices=("internal", "none"), default="internal",
                       help="stopping reference: computed eigenpair or gradient-based")
    solve.add_argument("--trace", help="write the iteration trace CSV here")

    topk = sub.add_parser("topk", help="leading k eigenpairs by deflation")
    _pair_arguments(topk)
    _solver_arguments(topk)
    topk.add_argument("--k", type=int, required=True)
    topk.add_argument("--out", help="write eigenvalues and vectors as JSON")

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--suite", help="suite config JSON; omit for a built-in grid")
    bench.add_argument("--grid", choices=("ci", "full"), default="ci",
                       help="built-in grid when --suite is absent")
    bench.add_argument("--methods", default="power,split-merge",
                       help="comma list for the built-in grids")
    bench.add_argument("--trials", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True, help="directory for report.json/csv")
    bench.add_argument("--traces", action="store_true",
                       help="also write per-run trace CSVs under --out")
    return parser


def _pair_arguments(p) -> None:
    p.add_argument("--a", required=True, help="file with the A operand")
    p.add_argument("--b", required=True, help="file with the B operand")
    p.add_argument("--format", choices=("mm", "dense"), default="mm")


def _solver_arguments(p) -> None:
    p.add_argument("--method", choices=METHODS, default="split-merge")
    p.add_argument("--precond",
                   choices=("identity", "diag", "cholesky", "ichol"),
                   default="cholesky", help="metric for pmd")
    p.add_argument("--linsolve", choices=("cholesky", "pcg"), default="cholesky")
    p.add_argument("--pcg-cap", type=int, default=30)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stepsize", type=float, default=None)


PRECOND_KINDS = {"identity": "identity", "diag": "diagonal",
                 "cholesky": "cholesky", "ichol": "incomplete-cholesky"}


def _load_pair(args) -> MatrixPair:
    reader = read_matrix_market if args.format == "mm" else read_dense_text
    try:
        a = reader(args.a)
        b = reader(args.b)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    return MatrixPair(a, b)


def _build_config(args, pair, reference) -> SolverConfig:
    pair.b.cholesky()  # B must be definite for every method, also where no run factors it
    solver = LinearSolver.pcg(pair.b, cap=args.pcg_cap) if args.linsolve == "pcg" else None
    precond = (build_preconditioner(pair.b, PRECOND_KINDS[args.precond])
               if args.method == "pmd" else None)
    return SolverConfig(
        method=args.method, tol=args.tol, max_iterations=args.max_iters,
        seed=args.seed, rho=args.rho, stepsize=args.stepsize,
        linear_solver=solver, preconditioner=precond, reference=reference)


def _cmd_gen(args) -> int:
    pair = gen_synthetic(SyntheticSpec(
        n=args.n, kappa_b=args.kappa_b, kappa_a=args.kappa_a, seed=args.seed))
    if args.format == "mm":
        paths = (f"{args.out}_A.mtx", f"{args.out}_B.mtx")
        write_matrix_market(pair.a, paths[0])
        write_matrix_market(pair.b, paths[1])
    else:
        paths = (f"{args.out}_A.txt", f"{args.out}_B.txt")
        write_dense_text(pair.a, paths[0])
        write_dense_text(pair.b, paths[1])
    print(f"wrote {paths[0]} and {paths[1]} (n={args.n}, "
          f"kappa_a={args.kappa_a:g}, kappa_b={args.kappa_b:g}, seed={args.seed})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    pair = _load_pair(args)
    ref = reference_solution(pair) if args.ref == "internal" else None
    config = _build_config(args, pair, None if ref is None else ref.u)
    x0 = np.random.default_rng(args.seed).standard_normal(pair.n)
    trace = solve(pair, config, x0)
    if args.trace:
        trace.to_csv(args.trace)
    final = trace.final()
    print(f"status      {trace.status}")
    print(f"iterations  {trace.iterations}")
    print(f"lambda      {final.lam!r}")
    if ref is not None:
        print(f"reference   {ref.lam!r}")
    print(f"criterion   {trace.criterion} = {trace.criterion_values[-1]:.3e}")
    print(f"matvecs     {trace.counters.matvecs}")
    print(f"solves      {trace.counters.solves}")
    if trace.diagnostics.get("solver_mode") == "pcg":
        print(f"pcg_inner   {trace.counters.pcg_inner}")
        print(f"pcg_capped  {trace.counters.pcg_capped}")
        print(f"pcg_residual {trace.counters.pcg_residual:.3e}")
    print(f"elapsed_ms  {final.elapsed_ns / 1e6:.3f}")
    return {"converged": EXIT_OK, "degenerate": EXIT_DEGENERATE,
            "diverged": EXIT_DIVERGED}.get(trace.status, EXIT_CAP)


def _cmd_topk(args) -> int:
    pair = _load_pair(args)
    config = _build_config(args, pair, None)
    pairs = top_k(pair, args.k, config)
    for i, (lam, _) in enumerate(pairs, 1):
        print(f"lambda_{i}  {lam!r}")
    if args.out:
        payload = {"lambdas": [lam for lam, _ in pairs],
                   "vectors": [u.tolist() for _, u in pairs]}
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.suite:
        config = SuiteConfig.from_json(args.suite)
    else:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        builder = ci_suite if args.grid == "ci" else full_suite
        config = builder(methods, trials=args.trials, seed=args.seed)
    report = run_suite(config, trace_dir=args.out if args.traces else None)
    json_path, csv_path = export_report(report, args.out)
    print(f"wrote {json_path} and {csv_path} "
          f"({len(report.cells)} cells x {len(config.methods)} methods)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error 2, here the cap-hit code
        return EXIT_INPUT if exc.code else EXIT_OK
    handlers = {"gen": _cmd_gen, "solve": _cmd_solve, "topk": _cmd_topk,
                "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GepSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

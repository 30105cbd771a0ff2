"""The three workloads: what each prepares, sets up, times and checks.

``run.measure`` drives every workload through the same plan: make the
inputs and the oracle from the seed (untimed), set up once and warm up
(untimed), set up again several times (``setup_s``), then run complete
rounds of timed ops until the time budget is spent. Every op is checked
against the oracle. A traced run first probes the kernels on the workload's
own operands, then records spans in every second round. Times are taken as
windows and converted to reference time by the run's clock (see ``clock``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gepsolve import (LinearSolver, MatrixPair, SolverConfig, StageFailure,
                      SyntheticSpec, build_preconditioner,
                      estimate_curvature_bound, gen_synthetic,
                      read_matrix_market, reference_solution, run_gd,
                      run_lanczos, run_pmd, run_power, run_split_merge, top_k,
                      write_matrix_market)
from gepsolve.bench import SuiteCell, SuiteConfig, run_suite

import pencils
from clock import Clock
from tracing import Tracer

METHODS = ("gd", "pmd", "power", "split-merge", "lanczos")
TOPK = 4
# A returned eigenvalue may miss the oracle by this many tolerances
# (relative). A runner's eigenvalue is the Rayleigh quotient of the vector it
# returns; top_k returns Rayleigh quotients itself.
LAMBDA_GATE = 10.0
# A run that stops on sin theta against the oracle vector must return a
# vector within this many tolerances of it. The runners read sin theta as
# sqrt(1 - cos^2), which is off by up to about 3e-8 at n=256.
ANGLE_GATE = 2.0


def sin_angle(x: np.ndarray, u: np.ndarray) -> float:
    """Sine of the angle between x and u, from the component of x normal
    to u, which keeps its digits where sqrt(1 - cos^2) loses them."""
    x = x / np.linalg.norm(x)
    u = u / np.linalg.norm(u)
    return float(np.linalg.norm(x - (x @ u) * u))


def call_runner(method: str, pair, config, x0):
    if method == "gd":
        return run_gd(pair, config, x0)
    if method == "pmd":
        return run_pmd(pair, config, None, x0)
    if method == "power":
        return run_power(pair, config, x0)
    if method == "split-merge":
        return run_split_merge(pair, config, x0)
    return run_lanczos(pair, config, x0)


class TimedOperator:
    """The A operand, noting when each counted matvec happens.

    Every runner call makes its own Counters, so the Counters object that
    reaches the base matvec tells which top-k stage a product belongs to.
    Only traced rounds use it."""

    def __init__(self, base):
        self.base = base
        self.n = base.n
        self.stages: dict[int, list] = {}

    def matvec(self, x, counters=None):
        t0 = time.perf_counter_ns()
        y = self.base.matvec(x, counters)
        if counters is not None:
            entry = self.stages.setdefault(id(counters), [t0, 0, counters])
            entry[1] = time.perf_counter_ns()
        return y


@dataclass
class Run:
    """Timed windows, op outcomes and the tracer of one benchmark run.

    A window is a pair of ``perf_counter_ns`` readings; the run's clock
    converts it to reference time once the run has ended."""

    tracer: Tracer
    clock: Clock
    setups: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    rounds: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    # per runner, the largest miss of its running estimate final().lam, in
    # tolerances; reported, not gated (see README)
    estimate_miss: dict = field(default_factory=dict)

    def new_round(self) -> None:
        self.rounds.append([])

    def timed(self, name: str | None, op: str, t0: int, t1: int) -> None:
        """One timed call into gepsolve. It is a sample of metric ``name``
        for the op called ``op`` (every round repeats each op), and part of
        the wall time of the current round."""
        if name is not None:
            self.samples.setdefault(name, {}).setdefault(op, []).append((t0, t1))
        self.rounds[-1].append((t0, t1))

    def ms(self, window) -> float:
        return self.clock.ms(*window)

    def outcome(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    @staticmethod
    def lambda_problem(lam: float, ref: float, tol: float) -> str | None:
        rel = abs(lam - ref) / abs(ref)
        if not rel <= LAMBDA_GATE * tol:
            return f"lambda {lam!r} misses oracle {ref!r} (relative {rel:.2e})"
        return None

    def solve(self, method, pair, config, x0, lam_ref, label):
        """One timed runner call, checked against the oracle. Its time counts
        whatever the outcome."""
        with self.tracer.span(f"solvers.{method}") as attrs:
            t0 = time.perf_counter_ns()
            try:
                trace = call_runner(method, pair, config, x0)
            except Exception as exc:  # an op that raises is a failed op
                trace, problem = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if trace is not None:
                c = trace.counters
                attrs.update(iterations=trace.iterations, matvecs=c.matvecs,
                             solves=c.solves, pcg_inner=c.pcg_inner)
        self.timed(f"solve_ms.{method}", label, t0, t1)
        if trace is None:
            pass
        elif trace.status != "converged":
            problem = f"ended {trace.status} after {trace.iterations} iterations"
        else:
            problem = self.eigenpair_problem(pair, trace.x, lam_ref, config)
            miss = abs(trace.final().lam - lam_ref) / abs(lam_ref) / config.tol
            self.estimate_miss[method] = max(self.estimate_miss.get(method, 0.0), miss)
        self.outcome(label, problem)

    @classmethod
    def eigenpair_problem(cls, pair, x, lam_ref, config) -> str | None:
        """The returned vector checked against the oracle: its Rayleigh
        quotient, and its angle where the run stopped on the angle."""
        ax, bx = pair.a.matvec(x), pair.b.matvec(x)
        problem = cls.lambda_problem(float(x @ ax) / float(x @ bx), lam_ref, config.tol)
        if problem is None and config.reference is not None:
            sin = sin_angle(x, config.reference)
            if not sin <= ANGLE_GATE * config.tol:
                problem = f"vector off the oracle vector by sin theta {sin:.2e}"
        return problem

    def top_k(self, pair, config, x0, lams_ref, label):
        """One timed top_k call. In traced rounds the A operand is wrapped so
        that each stage's window and counters become child spans."""
        timed = TimedOperator(pair.a) if self.tracer.enabled else None
        if timed is not None:
            pair = MatrixPair(timed, pair.b)
        with self.tracer.span("deflation.top_k"):
            t0 = time.perf_counter_ns()
            try:
                found = top_k(pair, TOPK, config, x0)
            except Exception as exc:  # an op that raises is a failed op
                found, problem = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if timed is not None:
                for s, (first, last, c) in enumerate(timed.stages.values(), 1):
                    self.tracer.add(f"deflation.top_k.stage{s}", first, last,
                                    matvecs=c.matvecs, solves=c.solves,
                                    pcg_inner=c.pcg_inner)
        self.timed("topk_ms", label, t0, t1)
        if found is not None:
            problems = [self.lambda_problem(lam, ref, config.tol)
                        for (lam, _), ref in zip(found, lams_ref)]
            problem = next((p for p in problems if p), None)
        self.outcome(label, problem)


@dataclass
class Operands:
    """What the timed ops of a workload share, built by its set-up."""

    pair: MatrixPair
    solver: LinearSolver
    precond: object
    bound: object


class Workload:
    name = ""
    why = ""
    tol = 0.0
    topk_method = "split-merge"
    # back-to-back calls per kernel probe, sized to the kernel's cost
    probe_calls = {"matvec": 200, "solve": 50, "factor": 50}

    def prepare(self, seed: int, workdir: Path) -> None:
        """Make the inputs and the oracle; untimed."""
        raise NotImplementedError

    def set_up(self, tracer: Tracer):
        """Build what the timed ops share; timed as ``setup_s``."""
        raise NotImplementedError

    def warm_up(self, ops) -> None:
        """Untimed calls that load every code path the rounds use."""

    def solves(self, ops) -> list[tuple]:
        """The runner calls of one round, in order, as arguments of
        ``Run.solve``: (method, pair, config, x0, oracle lambda, label)."""
        raise NotImplementedError

    def round(self, ops, run: Run) -> None:
        """One pass over the workload's timed calls."""
        raise NotImplementedError

    def extras(self, ops, run: Run) -> None:
        """Untimed work after the rounds."""

    def probe_operands(self, ops) -> tuple[Operands, np.ndarray]:
        """Operands for the kernel probes and the oracle's top eigenvectors
        (B-normalized columns) to deflate them with."""
        return ops, self.vecs

    def layer_extras(self, run: Run) -> dict:
        """Per-layer numbers that only this workload produces."""
        return {}

    def solver_counts(self, run: Run) -> dict:
        """Per runner: means over the traced calls that returned a trace, of
        its counters and of the call's time in reference nanoseconds."""
        out = {}
        for m in METHODS:
            spans = [s for s in run.tracer.named(f"solvers.{m}") if s.attrs]
            if spans:
                total = {k: sum(s.attrs[k] for s in spans)
                         for k in ("iterations", "matvecs", "solves", "pcg_inner")}
                total["elapsed_ns"] = sum(run.clock.ns(s.start_ns, s.end_ns) for s in spans)
                out[m] = {k: v / len(spans) for k, v in total.items()}
        return out

    def _write(self, workdir: Path, stem: str, a, b) -> None:
        self.files = (workdir / f"{stem}_A.mtx", workdir / f"{stem}_B.mtx")
        for mat, path in zip((a, b), self.files):
            write_matrix_market(pencils.to_symmetric(mat), path)

    def _read_setup(self, tracer: Tracer, make_solver, precond_kind) -> Operands:
        with tracer.span("setup"):
            mats = []
            for path in self.files:
                with tracer.span("linalg.read_matrix_market"):
                    mats.append(read_matrix_market(path))
            pair = MatrixPair(*mats)
            with tracer.span("linalg.LinearSolver"):
                solver = make_solver(pair.b)
            with tracer.span("precond.build_preconditioner"):
                precond = build_preconditioner(pair.b, precond_kind)
            with tracer.span("objective.estimate_curvature_bound"):
                bound = estimate_curvature_bound(pair.b)
        return Operands(pair, solver, precond, bound)

    def _config(self, ops: Operands, method: str, seed: int, reference=None) -> SolverConfig:
        return SolverConfig(method=method, tol=self.tol, seed=seed, reference=reference,
                            linear_solver=ops.solver, preconditioner=ops.precond,
                            curvature_bound=ops.bound)

    def _warm(self, ops: Operands, x0) -> None:
        for m in METHODS:
            # a safe transformed bound skips pmd's power estimate, which only
            # repeats the products the other runners already warmed
            config = replace(self._config(ops, m, 0), max_iterations=40,
                             transformed_bound=2.0)
            call_runner(m, ops.pair, config, x0)
        try:
            top_k(ops.pair, TOPK, replace(self._config(ops, self.topk_method, 0),
                                          tol=1e-2), x0)
        except StageFailure:
            pass


class DenseLoop(Workload):
    name = "dense-loop"
    why = ("n=256 dense pencil from .mtx; five runners to tol 1e-7 and top_k(4) "
           "on shared set-up: iteration-bound, reference_solution never runs")
    # A tol of 1e-8 is below what the runners' sin theta test resolves: there
    # run_lanczos raises Breakdown on some starts (see README)
    tol = 1e-7

    def __init__(self, n: int = 256, kappa_b: float = 10.0, starts: int = 8,
                 lanczos_starts: int = 48, topk_calls: int = 2):
        # A lanczos start takes 82 or 123 products, one cycle more or less
        # by the roundoff of its stopping test (see README), so lanczos runs
        # from more starts than the others to keep its mean steady.
        self.n, self.kappa_b, self.starts = n, kappa_b, starts
        self.lanczos_starts, self.topk_calls = lanczos_starts, topk_calls

    def prepare(self, seed, workdir):
        # The pencil stays fixed because the top gap moves a lot between
        # gen_synthetic's seeds (see pencils); the seed perturbs the starts.
        pair = gen_synthetic(SyntheticSpec(n=self.n, kappa_b=self.kappa_b, seed=0))
        a, b = pair.a.dense(), pair.b.dense()
        self._write(workdir, "dense", a, b)
        self.x0s = pencils.perturbed_starts(self.n, max(self.starts, self.lanczos_starts),
                                            seed)
        self.lams, self.vecs = pencils.dense_oracle(a, b, TOPK)
        self.reference = self.vecs[:, 0]

    def set_up(self, tracer):
        return self._read_setup(tracer, LinearSolver.exact, "cholesky")

    def warm_up(self, ops):
        self._warm(ops, self.x0s[0])

    def solves(self, ops):
        return [(m, ops.pair, self._config(ops, m, j, reference=self.reference), x0,
                 self.lams[0], f"{m} start {j}")
                for j, x0 in enumerate(self.x0s)
                for m in (METHODS if j < self.starts else ("lanczos",))]

    def round(self, ops, run):
        for call in self.solves(ops):
            run.solve(*call)
        for j in range(self.topk_calls):
            run.top_k(ops.pair, self._config(ops, self.topk_method, j), self.x0s[j],
                      self.lams, f"top_k start {j}")


class SparsePcg(Workload):
    name = "sparse-pcg"
    why = ("n=4096 grid pencil from .mtx; PCG inner solves, the IC(0) metric "
           "and CSR products at tol 1e-6, no reference: the sparse path only")
    tol = 1e-6
    topk_method = "lanczos"  # the top four are within 4%: lanczos separates them
    probe_calls = {"matvec": 200, "solve": 10, "factor": 5}

    def __init__(self, m: int = 64, starts: int = 4, pcg_cap: int = 30):
        self.m, self.starts, self.pcg_cap = m, starts, pcg_cap

    def prepare(self, seed, workdir):
        # The layout stays fixed because a seeded layout moves the top gap
        # too much (see pencils); the seed perturbs the starts.
        a, b = pencils.grid_pencil(self.m, layout_seed=0)
        self._write(workdir, "grid", a, b)
        self.x0s = pencils.perturbed_starts(self.m * self.m, self.starts, seed)
        self.lams, self.vecs = pencils.sparse_oracle(a, b, TOPK)

    def set_up(self, tracer):
        return self._read_setup(tracer, lambda b: LinearSolver.pcg(b, cap=self.pcg_cap),
                                "incomplete-cholesky")

    def warm_up(self, ops):
        self._warm(ops, self.x0s[0])

    def solves(self, ops):
        # one pmd solve costs as much as the rest of the round
        cheap = [(m, ops.pair, self._config(ops, m, j), x0, self.lams[0], f"{m} start {j}")
                 for j, x0 in enumerate(self.x0s)
                 for m in ("gd", "power", "split-merge", "lanczos")]
        return cheap + [("pmd", ops.pair, self._config(ops, "pmd", 0), self.x0s[0],
                             self.lams[0], "pmd start 0")]

    def round(self, ops, run):
        for call in self.solves(ops):
            run.solve(*call)
        run.top_k(ops.pair, self._config(ops, self.topk_method, 0), self.x0s[0],
                  self.lams, "top_k start 0")


@dataclass
class Cell:
    n: int
    kappa_b: float
    pair_seed: int
    lams: np.ndarray
    vecs: np.ndarray
    x0s: list
    operands: Operands | None = None


class GridCi(Workload):
    name = "grid-ci"
    why = ("run_suite on n in {64,128} x kappa_B in {10,100}, five methods, 3 "
           "trials, then each runner and top_k(4) per cell: the bench job")
    tol = 1e-5  # the suite's default tolerance

    def __init__(self, ns=(64, 128), kappas=(10.0, 100.0), trials: int = 3,
                 starts: int = 8):
        # The suite draws its pencils from its own seed, and their top gaps
        # change iteration counts twofold between suite seeds, so the suite
        # seed stays at 0, the default of `gepsolve bench`. The workload seed
        # perturbs the starts of the per-cell runner and top_k calls.
        self.starts = starts
        self.config = SuiteConfig(cells=[SuiteCell(n, kb) for n in ns for kb in kappas],
                                  methods=list(METHODS), trials=trials, seed=0)

    def prepare(self, seed, workdir):
        # The warm-up is here because it also reports each cell's pair seed:
        # the suite once, with one trial per cell.
        report = run_suite(replace(self.config, trials=1))
        self.cells = []
        for got in report.cells:
            pair = gen_synthetic(self._spec(got.n, got.kappa_b, got.pair_seed))
            lams, vecs = pencils.dense_oracle(pair.a.dense(), pair.b.dense(), TOPK)
            x0s = pencils.perturbed_starts(got.n, self.starts, seed)
            self.cells.append(Cell(got.n, got.kappa_b, got.pair_seed, lams, vecs, x0s))

    def _spec(self, n, kappa_b, pair_seed):
        return SyntheticSpec(n=n, kappa_b=kappa_b, kappa_a=self.config.kappa_a,
                             seed=pair_seed)

    def set_up(self, tracer):
        with tracer.span("setup"):
            for cell in self.cells:
                cell.operands = self._cell_setup(tracer, cell)
        return self.cells

    def _cell_setup(self, tracer, cell) -> Operands:
        """The per-cell work run_suite does before its runs, reference aside."""
        with tracer.span("synthetic.gen_synthetic"):
            pair = gen_synthetic(self._spec(cell.n, cell.kappa_b, cell.pair_seed))
        with tracer.span("linalg.LinearSolver"):
            solver = LinearSolver.exact(pair.b)
        with tracer.span("precond.build_preconditioner"):
            precond = build_preconditioner(pair.b, self.config.pmd_precond)
        with tracer.span("objective.estimate_curvature_bound"):
            bound = estimate_curvature_bound(pair.b)
        return Operands(pair, solver, precond, bound)

    def solves(self, cells):
        calls = []
        for cell in cells:
            for j, x0 in enumerate(cell.x0s):
                label = f"n={cell.n} kappa_b={cell.kappa_b:g} start {j}"
                for m in METHODS:
                    config = self._config(cell.operands, m, 0, reference=cell.vecs[:, 0])
                    calls.append((m, cell.operands.pair, config, x0, cell.lams[0],
                                  f"{m} {label}"))
        return calls

    def round(self, cells, run):
        with run.tracer.span("bench.run_suite") as attrs:
            t0 = time.perf_counter_ns()
            report = run_suite(self.config)
            run.timed(None, "run_suite", t0, time.perf_counter_ns())
            attrs["report"] = report
        for cell, got in zip(cells, report.cells):
            label = f"cell n={got.n} kappa_b={got.kappa_b:g}"
            run.outcome(f"{label} reference", run.lambda_problem(
                got.reference_lambda, cell.lams[0], 1e-10))
            for stats in got.methods:
                failed = {f["trial"]: f["status"] for f in stats.failures}
                for t in range(stats.trials):
                    run.outcome(f"{label} {stats.method} trial {t}",
                                f"ended {failed[t]}" if t in failed else None)
        # The runs inside run_suite give three samples per cell and round;
        # the same solves timed here, from eight starts per cell, give the
        # per-method metrics. Their counts move with the start, so distinct
        # starts keep the metrics steadier than repeats of one.
        for call in self.solves(cells):
            run.solve(*call)
        for cell in cells:
            for j, x0 in enumerate(cell.x0s):
                run.top_k(cell.operands.pair, self._config(cell.operands, self.topk_method, 0),
                          x0, cell.lams, f"top_k n={cell.n} kappa_b={cell.kappa_b:g} start {j}")

    def extras(self, cells, run):
        if run.tracer.enabled:
            # run_suite's own per-cell set-up, redone outside it, so that the
            # rest of its time (loops, fingerprints, aggregation) shows
            for cell in cells:
                with run.tracer.span("bench.cell_parts"):
                    ops = self._cell_setup(run.tracer, cell)
                    with run.tracer.span(f"reference.reference_solution.n{cell.n}"):
                        reference_solution(ops.pair)

    def probe_operands(self, cells):
        return cells[-1].operands, cells[-1].vecs

    def layer_extras(self, run):
        tr, span_ns = run.tracer, lambda s: run.clock.ns(s.start_ns, s.end_ns)
        suite = tr.named("bench.run_suite")[-1]
        report = suite.attrs["report"]
        # the report's run times are wall times inside the suite's span, so
        # they take the span's conversion to reference time
        runs_ns = sum(m.elapsed_ns_mean * m.successes for c in report.cells for m in c.methods)
        suite_ns = span_ns(suite)
        parts_ns = sum(span_ns(s) for s in tr.named("bench.cell_parts"))
        other_ns = suite_ns - parts_ns - runs_ns * suite_ns / suite.ns
        out = {"bench.run_suite.other_ms": (other_ns / 1e6, "ms")}
        for n in sorted({c.n for c in self.cells}):
            spans = tr.named(f"reference.reference_solution.n{n}")
            out[f"reference.reference_solution.n{n}.ms"] = (
                sum(map(span_ns, spans)) / len(spans) / 1e6, "ms")
        return out


WORKLOADS = {w.name: w for w in (GridCi, DenseLoop, SparsePcg)}

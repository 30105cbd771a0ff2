"""Benchmark suites over synthetic condition-number grids.

A suite is a grid of (n, kappa_b) cells crossed with solver methods. Per
cell the pair is generated once, the reference eigenpair is computed once,
and every method sees the same start vectors trial for trial (their
fingerprints are recorded so fairness is auditable from the report).
Failures never abort a suite; they are tallied separately, and statistics
cover only the successful runs whenever any run fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GepSolveError, InputError
from .linalg import LinearSolver
from .objective import estimate_curvature_bound
from .precond import build_preconditioner, transformed_dominant_eigenvalue
from .reference import reference_solution
from .solvers import METHODS, SolverConfig, solve
from .synthetic import SyntheticSpec, gen_synthetic

SCHEMA_VERSION = 1

FULL_KAPPA_B = (3.0, 5.0, 8.0, 10.0, 13.0, 30.0, 40.0, 50.0, 80.0, 100.0)
FULL_N = (256, 512, 1024)
CI_N = (64, 128)

STATISTICS = ("success_rate", "trials", "successes", "iterations_median",
              "iterations_mean", "iterations_std", "matvecs_mean", "solves_mean",
              "pcg_inner_mean", "elapsed_ns_median", "elapsed_ns_mean")


@dataclass
class SuiteCell:
    n: int
    kappa_b: float


@dataclass
class SuiteConfig:
    cells: list[SuiteCell]
    methods: list[str]
    trials: int = 100
    tol: float = 1e-5
    max_iterations: int = 100000
    kappa_a: float = 100.0
    seed: int = 0
    rho: float = 1.0
    linsolve: str = "cholesky"
    pcg_cap: int = 30
    pmd_precond: str = "cholesky"

    _KEYS = ("cells", "methods", "trials", "tol", "max_iterations", "kappa_a",
             "seed", "rho", "linsolve", "pcg_cap", "pmd_precond")

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise InputError(f"unknown method {m!r}")
        if self.linsolve not in ("cholesky", "pcg"):
            raise InputError(f"linsolve must be cholesky or pcg, got {self.linsolve!r}")
        if not self.cells:
            raise InputError("suite has no cells")

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        unknown = set(data) - set(cls._KEYS)
        if unknown:
            raise InputError(f"unknown suite keys: {sorted(unknown)}")
        if "cells" not in data or "methods" not in data:
            raise InputError("suite needs 'cells' and 'methods'")
        cells = [SuiteCell(int(c["n"]), float(c["kappa_b"])) for c in data["cells"]]
        rest = {k: v for k, v in data.items() if k not in ("cells", "methods")}
        return cls(cells=cells, methods=list(data["methods"]), **rest)

    @classmethod
    def from_json(cls, path) -> "SuiteConfig":
        with open(path, "r", encoding="ascii") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"suite file {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self._KEYS}
        out["cells"] = [{"n": c.n, "kappa_b": c.kappa_b} for c in self.cells]
        out["methods"] = list(self.methods)
        return out


def ci_suite(methods, trials: int = 20, seed: int = 0, **overrides) -> SuiteConfig:
    """The small grid used by continuous checks: n in CI_N, full kappa row."""
    cells = [SuiteCell(n, kb) for n in CI_N for kb in FULL_KAPPA_B]
    return SuiteConfig(cells=cells, methods=list(methods), trials=trials,
                       seed=seed, **overrides)


def full_suite(methods, trials: int = 100, seed: int = 0, **overrides) -> SuiteConfig:
    cells = [SuiteCell(n, kb) for n in FULL_N for kb in FULL_KAPPA_B]
    return SuiteConfig(cells=cells, methods=list(methods), trials=trials,
                       seed=seed, **overrides)


@dataclass
class RunOutcome:
    trial: int
    status: str
    iterations: int
    matvecs: int
    solves: int
    pcg_inner: int
    elapsed_ns: int
    lam: float


@dataclass
class MethodCellStats:
    method: str
    n: int
    kappa_b: float
    trials: int
    successes: int
    success_rate: float
    iterations_median: float
    iterations_mean: float
    iterations_std: float
    matvecs_mean: float
    solves_mean: float
    pcg_inner_mean: float
    elapsed_ns_median: float
    elapsed_ns_mean: float
    failures: list[dict] = field(default_factory=list)

    def statistic(self, name: str) -> float:
        return float(getattr(self, name))


@dataclass
class CellReport:
    n: int
    kappa_b: float
    pair_seed: int
    reference_lambda: float
    x0_fingerprints: list[str]
    methods: list[MethodCellStats]
    speedup: dict | None  # split-merge over power, when both ran


@dataclass
class BenchmarkReport:
    schema_version: int
    config: dict
    cells: list[CellReport]

    def to_dict(self) -> dict:
        out = {"schema_version": self.schema_version, "config": self.config,
               "cells": []}
        for cell in self.cells:
            out["cells"].append({
                "n": cell.n, "kappa_b": cell.kappa_b, "pair_seed": cell.pair_seed,
                "reference_lambda": cell.reference_lambda,
                "x0_fingerprints": cell.x0_fingerprints,
                "speedup": cell.speedup,
                "methods": [{
                    "method": m.method,
                    **{s: m.statistic(s) for s in STATISTICS},
                    "failures": m.failures,
                } for m in cell.methods],
            })
        return out


def _derived_seed(parts) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _x0_fingerprint(x0: np.ndarray) -> str:
    return hashlib.blake2b(x0.tobytes(), digest_size=8).hexdigest()


def run_suite(config: SuiteConfig, trace_dir=None) -> BenchmarkReport:
    """Execute the suite and aggregate per cell and method.

    With trace_dir set, every run's trace CSV lands under
    ``trace_dir/n{n}_kb{kappa_b}/{method}_t{trial}.csv``.
    """
    cells = []
    for ci, cell in enumerate(config.cells):
        pair_seed = _derived_seed([config.seed, ci, 0])
        pair = gen_synthetic(SyntheticSpec(
            n=cell.n, kappa_b=cell.kappa_b, kappa_a=config.kappa_a, seed=pair_seed))
        ref = reference_solution(pair)

        # one linear solver, metric with its transformed bound, and curvature
        # bound per cell, shared by every run on it
        precond = (build_preconditioner(pair.b, config.pmd_precond)
                   if "pmd" in config.methods else None)
        base = SolverConfig(
            tol=config.tol, max_iterations=config.max_iterations, rho=config.rho,
            linear_solver=(LinearSolver.pcg(pair.b, cap=config.pcg_cap)
                           if config.linsolve == "pcg" else LinearSolver.exact(pair.b)),
            preconditioner=precond,
            transformed_bound=(transformed_dominant_eigenvalue(pair.b, precond)
                               if precond is not None else None),
            curvature_bound=(estimate_curvature_bound(pair.b)
                             if "gd" in config.methods else None),
            reference=ref.u)

        x0s = []
        fps = []
        for t in range(config.trials):
            x0 = np.random.default_rng(
                np.random.SeedSequence([config.seed, ci, 1, t])).standard_normal(cell.n)
            x0s.append(x0)
            fps.append(_x0_fingerprint(x0))

        method_stats = []
        iterations_by_method = {}
        for method in config.methods:
            outcomes = []
            for t, x0 in enumerate(x0s):
                run_config = replace(base, method=method,
                                     seed=_derived_seed([config.seed, ci, 2, t]))
                try:
                    trace = solve(pair, run_config, x0)
                except GepSolveError as exc:
                    outcomes.append(RunOutcome(t, f"error:{type(exc).__name__}",
                                               0, 0, 0, 0, 0, float("nan")))
                    continue
                final = trace.final()
                outcomes.append(RunOutcome(
                    t, trace.status, trace.iterations, trace.counters.matvecs,
                    trace.counters.solves, trace.counters.pcg_inner,
                    final.elapsed_ns, final.lam))
                if trace_dir is not None:
                    _write_trace(trace_dir, cell, method, t, trace)
            method_stats.append(_aggregate(method, cell, outcomes))
            good = [o for o in outcomes if o.status == "converged"]
            if good:
                iterations_by_method[method] = float(np.median(
                    [o.iterations for o in good]))

        speedup = None
        if "power" in iterations_by_method and "split-merge" in iterations_by_method:
            sm = iterations_by_method["split-merge"]
            if sm > 0:
                speedup = {"iterations_ratio": iterations_by_method["power"] / sm}

        cells.append(CellReport(cell.n, cell.kappa_b, pair_seed, ref.lam, fps,
                                method_stats, speedup))
    return BenchmarkReport(SCHEMA_VERSION, config.to_dict(), cells)


def _aggregate(method, cell, outcomes) -> MethodCellStats:
    good = [o for o in outcomes if o.status == "converged"]
    bad = [o for o in outcomes if o.status != "converged"]
    if good:
        iters = np.array([o.iterations for o in good], dtype=np.float64)
        stats = dict(
            iterations_median=float(np.median(iters)),
            iterations_mean=float(np.mean(iters)),
            iterations_std=float(np.std(iters)),
            matvecs_mean=float(np.mean([o.matvecs for o in good])),
            solves_mean=float(np.mean([o.solves for o in good])),
            pcg_inner_mean=float(np.mean([o.pcg_inner for o in good])),
            elapsed_ns_median=float(np.median([o.elapsed_ns for o in good])),
            elapsed_ns_mean=float(np.mean([o.elapsed_ns for o in good])),
        )
    else:
        # every statistic but the three tallies passed below
        stats = dict.fromkeys(STATISTICS[3:], float("nan"))
    return MethodCellStats(
        method=method, n=cell.n, kappa_b=cell.kappa_b, trials=len(outcomes),
        successes=len(good), success_rate=len(good) / max(len(outcomes), 1),
        failures=[{"trial": o.trial, "status": o.status} for o in bad],
        **stats)


def _write_trace(trace_dir, cell, method, trial, trace) -> None:
    sub = os.path.join(str(trace_dir), f"n{cell.n}_kb{cell.kappa_b:g}")
    os.makedirs(sub, exist_ok=True)
    trace.to_csv(os.path.join(sub, f"{method}_t{trial}.csv"))


def matvec_equivalent_cost(matvecs: int, solves: int, n: int, exact_mode: bool) -> float:
    """Total work in units of one dense matvec (2 n^2 flops).

    Exact mode charges the Cholesky setup (n^3/3 flops = n/6 matvecs) plus
    one unit per triangular solve pair; PCG solves are already paid for by
    their counted inner matvecs."""
    if exact_mode:
        return matvecs + solves + n / 6.0
    return float(matvecs)


def export_report(report: BenchmarkReport, out_dir) -> tuple[str, str]:
    """Write report.json and the long-format report.csv; returns the paths."""
    os.makedirs(str(out_dir), exist_ok=True)
    json_path = os.path.join(str(out_dir), "report.json")
    csv_path = os.path.join(str(out_dir), "report.csv")
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "kappa_b", "method", "statistic", "value"])
        for cell in report.cells:
            for m in cell.methods:
                for stat in STATISTICS:
                    writer.writerow([cell.n, f"{cell.kappa_b:g}", m.method,
                                     stat, repr(m.statistic(stat))])
    return json_path, csv_path


def read_report(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)

"""Benchmark suites over synthetic condition-number grids.

A suite is a grid of (n, kappa_b) cells crossed with solver methods. Per
cell the pair is generated once, the reference eigenpair is computed once,
and every method sees the same start vectors trial for trial (their
fingerprints are recorded so fairness is auditable from the report).
A run that ends unconverged or raises a NumericalError never aborts a
suite: it is tallied separately, and statistics cover only the converged
runs whenever any run fails. An input error ends the suite; SuiteConfig
rejects a malformed suite, naming the key, before any run starts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import InputError, NumericalError
from .precond import KINDS, LinearSolver, build_preconditioner
from .reference import reference_solution
from .solvers import METHODS, SolverConfig, prepare, solve
from .synthetic import SyntheticSpec, gen_synthetic

SCHEMA_VERSION = 1

FULL_KAPPA_B = (3.0, 5.0, 8.0, 10.0, 13.0, 30.0, 40.0, 50.0, 80.0, 100.0)
FULL_N = (256, 512, 1024)
CI_N = (64, 128)

_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "list[str]": (list, tuple)}


def _check_types(obj, where="") -> None:
    """Reject a field of the wrong type, naming it; a float field takes an int."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, _TYPES.get(f.type, object)):
            raise InputError(f"{where}{f.name} must be {f.type}, got {value!r}")
        if f.type == "float":
            setattr(obj, f.name, float(value))


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

    def __post_init__(self):
        _check_types(self)
        for i, cell in enumerate(self.cells):
            _check_types(cell, f"cells[{i}]: ")
            if not (cell.n >= 2 and cell.kappa_b >= 1):
                raise InputError(f"cells[{i}] needs n >= 2 and kappa_b >= 1, got {cell}")
        for name, ok, rule in (
                ("cells", len(self.cells) > 0, "non-empty"),
                ("methods", len(self.methods) > 0 and all(m in METHODS for m in self.methods),
                 f"a non-empty list from {METHODS}"),
                ("linsolve", self.linsolve in ("cholesky", "pcg"), "cholesky or pcg"),
                ("pmd_precond", self.pmd_precond in KINDS, f"one of {KINDS}"),
                ("trials", self.trials >= 1, "at least 1"),
                ("tol", self.tol > 0, "positive"),
                ("max_iterations", self.max_iterations >= 1, "at least 1"),
                ("rho", self.rho >= 1, "at least 1"),
                ("pcg_cap", self.pcg_cap >= 1, "at least 1"),
                ("kappa_a", self.kappa_a >= 1, "at least 1"),
                ("seed", self.seed >= 0, "non-negative")):
            if not ok:
                raise InputError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict) or not {"cells", "methods"} <= set(data):
            raise InputError("a suite is a JSON object with 'cells' and 'methods'")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown suite keys: {sorted(unknown)}")
        try:
            cells = [SuiteCell(**c) for c in data["cells"]]
        except TypeError as exc:  # a cell key missing or unknown, or not a list of objects
            raise InputError(f"cells must be a list of {{n, kappa_b}} objects: {exc}") from exc
        return cls(**{**data, "cells": cells})

    @classmethod
    def from_json(cls, path) -> "SuiteConfig":
        try:
            with open(path, "r", encoding="ascii") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not ASCII or not JSON
            raise InputError(f"suite file {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


def _grid_suite(ns, methods, trials, seed) -> SuiteConfig:
    return SuiteConfig(cells=[SuiteCell(n, kb) for n in ns for kb in FULL_KAPPA_B],
                       methods=list(methods), trials=trials, seed=seed)


def ci_suite(methods, trials: int = 20, seed: int = 0) -> SuiteConfig:
    """The small grid used by continuous checks: n in CI_N, full kappa row."""
    return _grid_suite(CI_N, methods, trials, seed)


def full_suite(methods, trials: int = 100, seed: int = 0) -> SuiteConfig:
    return _grid_suite(FULL_N, methods, trials, seed)


@dataclass
class MethodCellStats:
    """One method's statistics over one cell's trials, in report order; those
    after the three tallies cover the converged runs, NaN if none converged."""
    method: str
    success_rate: float
    trials: int
    successes: int
    iterations_median: float
    iterations_mean: float
    iterations_std: float
    matvecs_mean: float
    solves_mean: float
    pcg_inner_mean: float
    elapsed_ns_median: float
    elapsed_ns_mean: float
    failures: list[dict] = field(default_factory=list)


STATISTICS = tuple(f.name for f in fields(MethodCellStats) if f.type in ("int", "float"))


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
        return asdict(self)


def _derived_seed(parts) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


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

        # set up once per cell: what the suite chooses here, the rest per method
        # by prepare; B's Cholesky factor is computed once, shared by b.cholesky()
        base = SolverConfig(
            tol=config.tol, max_iterations=config.max_iterations, rho=config.rho,
            linear_solver=(LinearSolver.pcg(pair.b, cap=config.pcg_cap)
                           if config.linsolve == "pcg" else None),
            preconditioner=(build_preconditioner(pair.b, config.pmd_precond)
                            if "pmd" in config.methods else None),
            reference=ref.u)
        for method in config.methods:
            base = prepare(pair, replace(base, method=method))

        x0s = [np.random.default_rng(np.random.SeedSequence([config.seed, ci, 1, t]))
               .standard_normal(cell.n) for t in range(config.trials)]
        fps = [hashlib.blake2b(x0.tobytes(), digest_size=8).hexdigest() for x0 in x0s]

        method_stats = []
        for method in config.methods:
            runs = []
            for t, x0 in enumerate(x0s):
                run_config = replace(base, method=method,
                                     seed=_derived_seed([config.seed, ci, 2, t]))
                try:
                    trace = solve(pair, run_config, x0)
                except NumericalError as exc:
                    runs.append((t, f"error:{type(exc).__name__}", None))
                    continue
                runs.append((t, trace.status, trace))
                if trace_dir is not None:
                    _write_trace(trace_dir, cell, method, t, trace)
            method_stats.append(_aggregate(method, runs))

        medians = {m.method: m.iterations_median for m in method_stats if m.successes}
        speedup = ({"iterations_ratio": medians["power"] / medians["split-merge"]}
                   if "power" in medians and medians.get("split-merge", 0) > 0 else None)
        cells.append(CellReport(cell.n, cell.kappa_b, pair_seed, ref.lam, fps,
                                method_stats, speedup))
    return BenchmarkReport(SCHEMA_VERSION, config.to_dict(), cells)


def _aggregate(method, runs) -> MethodCellStats:
    """Statistics over (trial, status, trace or None) runs, from the converged traces."""
    good = [trace for _, status, trace in runs if status == "converged"]

    def over(values, reduce=np.mean) -> float:
        return float(reduce(values)) if good else float("nan")

    iterations = [t.iterations for t in good]
    elapsed = [t.final().elapsed_ns for t in good]  # one record per run
    return MethodCellStats(
        method=method, success_rate=len(good) / len(runs), trials=len(runs), successes=len(good),
        iterations_median=over(iterations, np.median),
        iterations_mean=over(iterations),
        iterations_std=over(iterations, np.std),
        matvecs_mean=over([t.counters.matvecs for t in good]),
        solves_mean=over([t.counters.solves for t in good]),
        pcg_inner_mean=over([t.counters.pcg_inner for t in good]),
        elapsed_ns_median=over(elapsed, np.median),
        elapsed_ns_mean=over(elapsed),
        failures=[{"trial": t, "status": status} for t, status, _ in runs
                  if status != "converged"])


def _write_trace(trace_dir, cell, method, trial, trace) -> None:
    sub = os.path.join(str(trace_dir), f"n{cell.n}_kb{cell.kappa_b:g}")
    os.makedirs(sub, exist_ok=True)
    trace.to_csv(os.path.join(sub, f"{method}_t{trial}.csv"))


def matvec_equivalent_cost(matvecs: int, solves: int, n: int, exact_mode: bool) -> float:
    """Total work in units of one dense matvec (2 n^2 flops).

    Exact mode charges the Cholesky setup (n^3/3 flops = n/6 matvecs) plus
    one unit per triangular solve pair; PCG solves are already paid for by
    their counted inner matvecs."""
    return matvecs + solves + n / 6.0 if exact_mode else float(matvecs)


def export_report(report: BenchmarkReport, out_dir) -> tuple[str, str]:
    """Write report.json and the long-format report.csv; returns the paths."""
    os.makedirs(str(out_dir), exist_ok=True)
    json_path, csv_path = (os.path.join(str(out_dir), f) for f in ("report.json", "report.csv"))
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "kappa_b", "method", "statistic", "value"])
        writer.writerows([cell.n, f"{cell.kappa_b:g}", m.method, s, repr(float(getattr(m, s)))]
                         for cell in report.cells for m in cell.methods for s in STATISTICS)
    return json_path, csv_path

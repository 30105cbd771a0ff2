"""Iterative solvers for the dominant generalized eigenpair.

Every method runs through ``solve(pair, config, x0)`` and the ``RUNNERS``
registry: a runner supplies its set-up and one step, and one driver loop
owns the checks, counters, recording, stopping and the trace. The trace
holds one row per iteration (a TraceRecord once read) with the objective
value, the eigenvalue estimate, the stopping quantity, cumulative
matvec/solve counts, and wall time. With a reference vector the stopping
rule is the principal-angle sine; without one it is the scale-free gradient
criterion ||A d - q B d|| / (sqrt(d'Ad) q) for the unit direction d with
Rayleigh quotient q, which coincides with ||grad f|| / lambda at the scale
where the objective is stationary along the ray.

Iterates of the power and surrogate methods are kept as unit directions and
each step is taken from the ray minimiser c d with c = sqrt(d'Ad)/(2 d'Bd);
the recorded objective is then -q/4, nonincreasing, and the eigenvalue
estimate 2 sqrt(x'Ax) equals q.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.linalg.lapack import dstebz, dstein

from .errors import (
    Breakdown,
    DegenerateDirection,
    DimensionMismatch,
    InputError,
    InvalidStepsize,
    NonFiniteEntries,
    NumericalError,
    ZeroVector,
)
from .linalg import Counters, as_vector
from .objective import CurvatureBound, MatrixPair, estimate_curvature_bound, is_degenerate
from .precond import LinearSolver, Preconditioner, apply_gram_inverse, \
    build_preconditioner, solve_spd, transformed_dominant_eigenvalue

TRACE_HEADER = "k,f,lambda,sin_theta,matvecs,solves,elapsed_ns"


@dataclass
class SolverConfig:
    """Knobs shared by every runner; method-specific fields are ignored by
    the methods that do not use them. Without ``stepsize``, gd and pmd draw
    one from [0.9, 0.99] of the stability limit with ``seed``."""

    method: str = "split-merge"
    tol: float = 1e-5
    max_iterations: int = 100000
    seed: int = 0
    rho: float = 1.0
    stepsize: float | None = None
    curvature_bound: CurvatureBound | None = None
    transformed_bound: float | None = None
    linear_solver: LinearSolver | None = None
    preconditioner: Preconditioner | None = None
    reference: np.ndarray | None = None
    lanczos_cycle: int = 20


@dataclass
class TraceRecord:
    k: int
    f: float
    lam: float
    sin_theta: float
    matvecs: int
    solves: int
    elapsed_ns: int


def _record(row: tuple) -> TraceRecord:
    k, f, lam, sin_theta, matvecs, solves, elapsed_ns = row
    return TraceRecord(k, float(f), float(lam), sin_theta, matvecs, solves, elapsed_ns)


@dataclass
class SolveTrace:
    """Result of one run: per-iteration rows, terminal state, and the
    method's diagnostics (stepsize, bounds, setup, escalations, drift).

    The loop stores each iteration as a plain tuple in ``rows``, in the
    field order of :class:`TraceRecord`; ``records`` builds the
    TraceRecord list at its first read and keeps it. ``final()`` and
    ``iterations`` read the last row alone, so a caller that never reads
    ``records`` (the suite, top-k, the CLI) builds at most one record."""

    method: str
    status: str  # converged | max-iterations | degenerate | diverged
    rows: list[tuple]
    x: np.ndarray
    counters: Counters
    criterion: str  # sin-theta | gradient
    criterion_values: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def records(self) -> list[TraceRecord]:
        return [_record(row) for row in self.rows]

    @property
    def iterations(self) -> int:
        return self.rows[-1][0] if self.rows else 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def final(self) -> TraceRecord:
        if "records" in self.__dict__:  # already built
            return self.records[-1]
        return _record(self.rows[-1])

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(TRACE_HEADER + "\n")
            for r in self.records:
                fh.write(f"{r.k},{r.f!r},{r.lam!r},{r.sin_theta!r},"
                         f"{r.matvecs},{r.solves},{r.elapsed_ns}\n")


def check_stopping(x: np.ndarray, u_ref: np.ndarray, tol: float) -> tuple[float, bool]:
    """Sine of the principal angle between x and the reference direction,
    and whether it meets the tolerance. Scale and sign free. With c = x.u
    for the unit reference u, sqrt(1 - c^2/x.x) is returned where its square
    exceeds max(4 tol^2, 1e-9 n): rounding in the two length-n products
    moves the square by a few n eps at most, under 3e-7 of the sine there,
    and the value is at least 2 tol, so the decision is the exact sine's.
    Below, the sine is measured from the part of x normal to u, which keeps
    the digits sqrt(1 - c^2) loses (it reads 0 below about 1.5e-8)."""
    x = as_vector(x, np.size(u_ref))
    sin = _sin_to_unit(x, _unit(as_vector(u_ref, x.size, "reference")), _sin_gate(tol, x.size))
    return sin, sin <= tol


def _sin_gate(tol: float, n: int) -> float:
    """sin^2 above which two inner products give the sine (see check_stopping)."""
    return max(4.0 * tol * tol, 1e-9 * n)


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVector("stopping check on a zero vector")
    return v / norm


def _sin_to_unit(x: np.ndarray, unit: np.ndarray, gate: float, xx=None) -> float:
    xx = ddot(x, x) if xx is None else xx  # x.x, when the caller has it
    if xx == 0.0:
        raise ZeroVector("stopping check on a zero vector")
    c = ddot(x, unit)
    sin2 = 1.0 - c * c / xx
    if sin2 > gate:
        return math.sqrt(sin2)
    normal = daxpy(x, unit * -c)
    return math.sqrt(ddot(normal, normal) / xx)


class _Recorder:
    """Collects trace rows against a shared clock and counter set."""

    def __init__(self, counters: Counters, reference, tol: float):
        self.counters = counters
        # normalized once, with its gate; every row measures its angle against it
        self.unit = None if reference is None else _unit(reference)
        self.gate = None if reference is None else _sin_gate(tol, self.unit.size)
        self.tol = tol
        self.rows: list[tuple] = []
        self.values: list[float] = []
        self.start = time.perf_counter_ns()

    def add(self, k: int, f: float, lam: float, x: np.ndarray,
            grad_ratio: float | None, xx=None) -> bool:
        """Append a row; returns True when the stopping rule fires."""
        if self.unit is None:
            sin, crit = math.nan, float(grad_ratio)
        else:
            sin = crit = _sin_to_unit(x, self.unit, self.gate, xx)
        counters = self.counters
        self.rows.append((k, f, lam, sin, counters.matvecs, counters.solves,
                          time.perf_counter_ns() - self.start))
        self.values.append(crit)
        return crit <= self.tol


class _Degenerate(Exception):
    """No A-energy left, or f overflowed; args[0] is the f the last record shows."""


class _Runner:
    """One method: set-up in ``__init__``; ``measure`` gives (f, lambda,
    gradient ratio, x.x or None) at an iterate, ``advance`` the next one."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        self.pair = pair
        self.gradient_stop = config.reference is None
        # The gradient ratio ||grad f|| / lambda scales as t / sqrt(s) on a
        # pencil (s A, t B), so on one small enough to fail the absolute
        # degeneracy scale it reads far below any tol at the start: such a
        # run ends degenerate rather than converged with a wrong lambda.
        self.relative_degeneracy = not self.gradient_stop
        self.diagnostics: dict = {}

    def start(self, x: np.ndarray) -> np.ndarray:
        """The start the method runs from: x itself, or, where x'x underflows
        or overflows, x times the exact power of two that puts its largest
        entry in [0.5, 1). Power, split-merge and lanczos use only the
        direction of x, so they then give that multiple's bytes."""
        if sys.float_info.min <= ddot(x, x) < math.inf:
            return x
        return np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])

    def iterate(self, x: np.ndarray, rec: _Recorder, cap: int) -> tuple[str, np.ndarray]:
        """The driver loop; returns (status, final iterate)."""
        counters = rec.counters
        try:
            for k in range(cap + 1):
                f, lam, ratio, xx = self.measure(x, counters)
                if rec.add(k, f, lam, x, ratio, xx):
                    return "converged", x
                if k < cap:
                    x = self.advance(x, counters)
        except _Degenerate as exc:
            rec.add(len(rec.rows), exc.args[0], 0.0, x, math.inf)
            return "degenerate" if math.isfinite(exc.args[0]) else "diverged", x
        return "max-iterations", x


class _FirstOrder(_Runner):
    """gd (no metric) and pmd: x <- x - alpha M^{-1} grad f(x)."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.precond = config.preconditioner if config.method == "pmd" else None
        if self.precond is None:
            curvature = config.curvature_bound
            bound, scale = curvature.bound, 2.0
            self.diagnostics.update(curvature_bound=bound, curvature_method=curvature.method)
        else:
            bound, scale = config.transformed_bound, 1.0
            self.diagnostics["transformed_bound"] = bound
        if not (0.0 < bound < math.inf):
            raise InvalidStepsize(f"stability bound must be positive and finite, got {bound}")
        limit = scale / bound

        if config.stepsize is not None:
            alpha = float(config.stepsize)
            if not (0.0 < alpha < limit):
                raise InvalidStepsize(f"stepsize {alpha} outside (0, {limit})")
        else:
            alpha = float(np.random.default_rng(config.seed).uniform(0.9 * limit, 0.99 * limit))
        self.alpha = alpha
        self.diagnostics["stepsize"] = alpha

    def start(self, x):
        return x  # f depends on the scale of x

    def measure(self, x, counters):
        ax = self.pair.a.matvec(x, counters)
        bx = self.pair.b.matvec(x, counters)
        xax, xbx, xx = ddot(x, ax), ddot(x, bx), ddot(x, x)
        # a NaN x'Ax (overflowed start) ends the run too
        if is_degenerate(xax, xx, x, ax, self.relative_degeneracy):
            raise _Degenerate(xbx)
        root = math.sqrt(xax)
        lam = 2.0 * root
        # 2 bx - ax/root in bx's own buffer: 2 bx is exact, the daxpy rounds once
        g = self.g = daxpy(ax, dscal(2.0, bx), a=-1.0 / root)
        ratio = math.sqrt(ddot(g, g)) / lam if self.gradient_stop else None
        return xbx - root, lam, ratio, xx

    def advance(self, x, counters):
        g = self.g
        d = g if self.precond is None else apply_gram_inverse(self.precond, g, counters)
        return daxpy(d, x, a=-self.alpha)  # x - alpha d, in the run's own iterate


class _Ray(_Runner):
    """Unit iterates measured by their Rayleigh quotient (power, split-merge);
    x'Bx comes from the previous step's solve byproducts."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.solver = config.linear_solver
        self.diagnostics.update(setup_matvecs=1, solver_mode=self.solver.mode)

    def start(self, x):
        x = super().start(x)
        x /= math.sqrt(ddot(x, x))
        self.bq = ddot(x, self.pair.b.matvec(x))  # setup matvec, uncounted
        return x

    def measure(self, x, counters):
        ax = self.pair.a.matvec(x, counters)
        xax = ddot(x, ax)
        if is_degenerate(xax, 1.0, x, ax, self.relative_degeneracy):  # x is a unit vector
            raise _Degenerate(0.0)
        q = xax / self.bq
        ratio = None
        if self.gradient_stop:
            r = daxpy(ax, dscal(-q, self.pair.b.matvec(x, counters)))
            ratio = math.sqrt(ddot(r, r)) / (math.sqrt(xax) * q)
        self.ax = ax
        self.xax = xax
        return -q / 4.0, q, ratio, None


class _Power(_Ray):
    def advance(self, x, counters):
        w = solve_spd(self.solver, self.pair.b, self.ax, counters)
        norm_w = math.sqrt(ddot(w, w))
        if norm_w == 0.0:
            raise _Degenerate(0.0)
        self.bq = ddot(w, self.ax) / (norm_w * norm_w)
        return dscal(1.0 / norm_w, w)  # the solve's fresh array


class _SplitMerge(_Ray):
    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.rho = config.rho
        self.diagnostics.update(rho_escalations=0, fallback_steps=0)

    def advance(self, x, counters):
        scale = math.sqrt(self.xax) / (2.0 * self.bq)  # ray minimiser of f along x
        x_next, state = split_merge_step(self.pair, dscal(scale, x), self.rho, self.solver,
                                         counters, ax=dscal(scale, self.ax))
        self.diagnostics["rho_escalations"] += state.doublings
        self.diagnostics["fallback_steps"] += 1 if state.fallback else 0
        norm = math.sqrt(ddot(x_next, x_next))
        if not 0.0 < norm < math.inf:  # from solves that overflowed
            raise NumericalError(f"split-merge step has norm {norm}")
        self.bq = ddot(x_next, state.b_next) / (norm * norm)
        return dscal(1.0 / norm, x_next)  # the step's fresh array


class _Lanczos(_Runner):
    """Restarted Lanczos; its own cycle loop replaces the shared one."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.solver = config.linear_solver
        self.cycle = config.lanczos_cycle
        self.seed = config.seed
        if not (isinstance(self.cycle, numbers.Integral) and self.cycle >= 2):
            raise InputError(f"cycle length must be an integer of at least 2, got {self.cycle}")
        self.diagnostics.update(solver_mode=self.solver.mode, basis_drift=[])

    def iterate(self, x, rec, cap):
        a, b, solver, cycle = self.pair.a, self.pair.b, self.solver, self.cycle
        counters = rec.counters
        n = b.n
        drift = self.diagnostics["basis_drift"]
        builds = 0

        while True:
            bx = b.matvec(x, counters)
            nb2 = ddot(x, bx)
            if nb2 <= 0.0:
                raise ZeroVector("restart vector has zero B-norm")
            nb = math.sqrt(nb2)
            v = x / nb
            bv = bx / nb
            basis = np.empty((n, cycle))
            bimages = np.empty((n, cycle))
            alphas: list[float] = []
            betas: list[float] = []
            top = 1.0  # max(1, |alpha|, beta) over the cycle so far
            broke = False

            m = 0
            while m < cycle and builds < cap:
                basis[:, m] = v
                bimages[:, m] = bv
                av = a.matvec(v, counters)
                u = solve_spd(solver, b, av, counters)
                alpha = ddot(av, v)
                w = daxpy(dscal(-alpha, v), u)  # v is in the basis already
                w -= basis[:, : m + 1] @ (bimages[:, : m + 1].T @ w)
                bw = b.matvec(w, counters)
                beta = math.sqrt(max(0.0, ddot(w, bw)))
                alphas.append(alpha)
                betas.append(beta)
                m += 1
                builds += 1
                top = max(top, abs(alpha), beta)
                if beta <= 1e-13 * top:
                    broke = True
                    break
                if m < cycle:  # w and bw are fresh arrays
                    v = np.divide(w, beta, out=w)
                    bv = np.divide(bw, beta, out=bw)

            theta, vec = _top_ritz(alphas, betas[: m - 1])
            ritz = basis[:, :m] @ vec

            gram = bimages[:, :m].T @ basis[:, :m]
            gram.flat[:: m + 1] -= 1.0  # x - 0.0 == x: the bytes of gram - I
            drift.append(float(np.max(np.abs(gram))))

            ratio = None
            if self.gradient_stop:
                aritz = a.matvec(ritz, counters)
                britz = b.matvec(ritz, counters)
                raz = ddot(ritz, aritz)
                if raz > 0.0 and theta > 0.0:
                    r = daxpy(aritz, dscal(-theta, britz))
                    ratio = math.sqrt(ddot(r, r)) / (math.sqrt(raz) * theta)
                else:
                    ratio = float("inf")
            if rec.add(builds, -theta / 4.0, theta, ritz, ratio):
                return "converged", ritz
            if broke and m == n:
                raise Breakdown(
                    f"basis spans the whole space at build {builds} with the Ritz pair unconverged")
            if builds >= cap:
                return "max-iterations", ritz
            x = ritz
            if broke:  # the basis spans an invariant subspace: step outside it
                z = np.random.default_rng((self.seed, builds)).standard_normal(n)
                for _ in range(2):
                    z -= basis[:, :m] @ (bimages[:, :m].T @ z)
                ritz_b2 = ddot(ritz, bimages[:, :m] @ vec)  # B ritz from the B-images
                x = ritz + math.sqrt(ritz_b2 / ddot(z, b.matvec(z, counters))) * z


def _top_ritz(alphas: list, betas: list) -> tuple[float, np.ndarray]:
    """Top eigenpair of the tridiagonal (diagonal ``alphas``, off-diagonal
    ``betas``) by the two LAPACK calls of ``eigh_tridiagonal(select="i")``, with
    its bytes: ``dstebz`` by index (abstol 0, block order), then ``dstein``."""
    m = len(alphas)
    if m == 1:
        return alphas[0], np.ones(1)
    d, e = np.array(alphas), np.array(betas)
    _, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, m, m, 0.0, "B")
    if info == 0:
        vecs, info = dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolve failed (LAPACK dstebz/dstein info {info})")
    return float(w[0]), vecs[:, 0]


RUNNERS = {
    "gd": _FirstOrder,
    "pmd": _FirstOrder,
    "power": _Power,
    "split-merge": _SplitMerge,
    "lanczos": _Lanczos,
}
METHODS = tuple(RUNNERS)


def prepare(pair: MatrixPair, config: SolverConfig) -> SolverConfig:
    """``config`` with what ``config.method`` needs and lacks set up: the exact
    B-solver for power, split-merge and lanczos, the curvature bound for gd,
    pmd's metric (by default exact Cholesky) and its transformed bound. B's
    factor is computed once and shared through ``b.cholesky()``. Returns
    ``config`` itself when nothing is missing."""
    method, fill = config.method, {}
    if method in ("power", "split-merge", "lanczos") and config.linear_solver is None:
        fill["linear_solver"] = LinearSolver.exact(pair.b)
    elif method == "gd" and config.curvature_bound is None:
        fill["curvature_bound"] = estimate_curvature_bound(pair.b)
    elif method == "pmd":
        if config.preconditioner is None:
            fill["preconditioner"] = build_preconditioner(pair.b, "cholesky")
        if config.transformed_bound is None:
            precond = fill.get("preconditioner", config.preconditioner)
            fill["transformed_bound"] = transformed_dominant_eigenvalue(pair.b, precond)
    return replace(config, **fill) if fill else config


def _observed_rate(rec: _Recorder) -> float | None:
    """Geometric mean of the criterion's per-record ratio over the second
    half of the records, per unit of k (per build for Lanczos): the product
    telescopes to its endpoints. None below 4 records or at an endpoint that
    is not positive and finite."""
    mid, values = len(rec.values) // 2, rec.values
    if mid < 2 or not (0.0 < values[mid] < math.inf and 0.0 < values[-1] < math.inf):
        return None
    return (values[-1] / values[mid]) ** (1.0 / (rec.rows[-1][0] - rec.rows[mid][0]))


def _run(method: str, pair: MatrixPair, config: SolverConfig, x0) -> SolveTrace:
    """The driver: checks, set-up, the method's loop, the trace."""
    n = pair.n
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    if not (config.tol > 0.0):
        raise InputError(f"tolerance must be positive, got {config.tol}")
    cap = config.max_iterations
    if not (isinstance(cap, numbers.Integral) and cap >= 1):
        raise InputError(f"iteration cap must be an integer of at least 1, got {cap}")
    if not (config.rho >= 1.0):
        raise InputError(f"rho must be at least 1, got {config.rho}")
    ref = config.reference
    if ref is not None and np.shape(ref) != (n,):
        raise DimensionMismatch(f"reference shape {np.shape(ref)} vs order {n}")
    x = np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise DimensionMismatch(f"start vector shape {x.shape} vs order {n}")
    if not (np.isfinite(x).all() and (ref is None or np.isfinite(ref).all())):
        raise NonFiniteEntries("start vector or reference holds a NaN or infinite entry")
    if not x.any():
        raise ZeroVector("start vector is zero")

    if config.method != method:
        config = replace(config, method=method)
    runner = RUNNERS[method](pair, prepare(pair, config))
    x = runner.start(x)
    rec = _Recorder(Counters(), config.reference, config.tol)
    status, x = runner.iterate(x, rec, cap)
    runner.diagnostics["observed_rate"] = _observed_rate(rec)
    criterion = "sin-theta" if config.reference is not None else "gradient"
    return SolveTrace(method, status, rec.rows, x, rec.counters, criterion,
                      rec.values, runner.diagnostics)


def solve(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Run ``config.method`` on the pair from x0 and return its trace.

    The clock of the trace starts after the method's set-up (factorization,
    stability bound, stepsize draw), so ``elapsed_ns`` times the iterations
    alone. Method-specific outputs land in ``trace.diagnostics``.
    """
    return _run(config.method, pair, config, x0)


def run_gd(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Gradient descent on f with a fixed stepsize.

    The curvature bound must be positive and finite, and a fixed stepsize
    must satisfy alpha * bound in (0, 2); otherwise one value is drawn
    uniformly from [0.9, 0.99] * (2 / bound) once per run using config.seed.
    """
    return _run("gd", pair, config, x0)


def run_pmd(pair: MatrixPair, config: SolverConfig,
            precond: Preconditioner | None = None,
            x0: np.ndarray | None = None) -> SolveTrace:
    """Preconditioned mirror descent: x <- x - alpha (P'P)^{-1} grad f(x).

    The metric is ``precond`` when given, else ``config.preconditioner``,
    else the exact Cholesky factor of B.

    Stability demands alpha * lambda_1(P^{-T} B P^{-1}) < 1; with the exact
    Cholesky metric that eigenvalue is 1 and alpha = 1/2 reproduces the
    power method iterate for iterate. Without a fixed stepsize alpha is drawn
    from [0.9, 0.99] of the limit.

    With the exact metric, near the solution each eigen-component of the
    iterate is multiplied by 1 - 2 alpha (1 - lambda_i / lambda_1) per step,
    so the angle to the dominant eigenvector contracts at
    max_{i>=2} |1 - 2 alpha (1 - lambda_i / lambda_1)|. At alpha = 1/2 that
    is lambda_2 / lambda_1, the power method's rate. For alpha in the
    sampled interval the bottom of the spectrum floors the rate at
    |1 - 2 alpha (1 - lambda_n / lambda_1)|, which is 0.80..0.98 when
    lambda_n << lambda_1. The drawn alpha beats 1/2 only when the maximum
    is below lambda_2 / lambda_1: a clustered top of the spectrum, not a
    wide gap.
    """
    if precond is not None:
        config = replace(config, preconditioner=precond)
    return _run("pmd", pair, config, x0)


def run_power(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Generalized power iteration B x+ = A x / (2 sqrt(x'Ax)).

    Cost per iteration: one A-matvec and one B-solve. The direction is
    renormalized every iteration; the Rayleigh quotient of the new direction
    comes free from the solve byproduct (w'Bw = w'Ax for exact solves), so
    no extra B-matvecs are spent on the trace. One B-matvec of setup seeds
    the quotient of the start vector and is reported in diagnostics, not in
    the run counters.
    """
    return _run("power", pair, config, x0)


@dataclass
class SplitMergeState:
    """Scalars and cached vectors of one surrogate step.

    In solver notation ax = Ax, w = B^{-1}Ax, h = Aw and t = B^{-1}h.
    resid_energy is d'(Ad), the A-energy of d = w - (b/a) x, the part of w
    A-orthogonal to x (a = x'Ax, b = ax'w), and pd_margin the positivity
    margin of the corrected surrogate at rho_used, the rho after
    ``doublings`` escalations; w_second weights t - (b/a) w in the step.
    b_next is B x_next from solve byproducts (exact for exact solves).
    fallback marks a step whose second direction carried no new energy,
    which returns the double power step t / (2 sqrt(a) r) with w_second = 0.
    """

    resid_energy: float
    pd_margin: float
    w_second: float
    rho_used: float
    doublings: int
    fallback: bool
    ax: np.ndarray
    w: np.ndarray
    h: np.ndarray
    t: np.ndarray
    b_next: np.ndarray


DEGENERATE_STEP_RTOL = 1e-14


def split_merge_step(pair: MatrixPair, x: np.ndarray, rho: float, solver: LinearSolver,
                     counters: Counters | None = None,
                     ax: np.ndarray | None = None) -> tuple[np.ndarray, SplitMergeState]:
    """One Split-Merge step x+ = w_first B^{-1}Ax + w_second B^{-1}AB^{-1}Ax.

    With g = Ax, w = B^{-1}g, h = Aw, t = B^{-1}h, a = x'Ax and r = b/a,
    b = g'w, it is merged as x+ = w/(2 sqrt(a)) + w_second e, e = t - r w.
    Exactly two solves, two A-matvecs, and four inner products: a, b,
    d'(Ad) with d = w - r x and Ad = h - r g, and Ad'e = z'B^{-1}z, z = Ad.
    When the second direction carries no new energy (d'(Ad) <= 1e-14 b^2/a,
    which also absorbs roundoff negatives) the step returns the double
    power step t / (2 sqrt(a) r) from the two solves already paid for, and
    raises NumericalError if its x'Bx is not positive and finite. A
    nonpositive margin doubles rho until positive, with no cap: rho reaches
    inf at the latest, where the margin is 1. A NaN margin raises
    NumericalError.

    ``ax`` may carry a precomputed A x (the run loop shares it with its
    bookkeeping). A ``rho`` below 1 (or NaN) raises InputError.
    """
    if not (rho >= 1.0):
        raise InputError(f"rho must be at least 1, got {rho}")
    x = np.asarray(x, dtype=np.float64)
    g = ax if ax is not None else pair.a.matvec(x, counters)
    quad_a = ddot(x, g)
    if is_degenerate(quad_a, ddot(x, x), x, g):
        raise DegenerateDirection(f"x'Ax = {quad_a:.3e} is degenerate")
    root_a = math.sqrt(quad_a)

    w = solve_spd(solver, pair.b, g, counters)
    quad_ab = ddot(g, w)
    h = pair.a.matvec(w, counters)
    t = solve_spd(solver, pair.b, h, counters)

    ratio = quad_ab / quad_a
    ad = daxpy(h, g * -ratio)
    resid_energy = ddot(daxpy(w, x * -ratio), ad)  # d'(Ad)
    if resid_energy <= DEGENERATE_STEP_RTOL * quad_ab * ratio:
        s = 1.0 / (2.0 * root_a * ratio)  # t s: the double power step, B t = h
        x_next, b_next = t * s, h * s
        if not 0.0 < (xbx := ddot(x_next, b_next)) < math.inf:  # from solves that overflowed
            raise NumericalError(f"double power step has norm {math.sqrt(ddot(x_next, x_next))}"
                                 f" and x'Bx = {xbx}")
        return x_next, SplitMergeState(resid_energy, 1.0, 0.0, rho, 0, True, g, w, h, t, b_next)

    e = daxpy(t, w * -ratio)
    resid_gram = ddot(ad, e)

    rho_k = float(rho)
    doublings = 0
    while (margin := 1.0 - resid_gram / (2.0 * rho_k * root_a * resid_energy)) <= 0.0:
        rho_k *= 2.0
        doublings += 1
    if not margin > 0.0:
        raise NumericalError(f"surrogate margin is {margin} at rho = {rho_k}")

    w_second = 1.0 / (4.0 * margin * rho_k * quad_a)
    w_power = 1.0 / (2.0 * root_a)
    x_next = daxpy(e, w * w_power, a=w_second)
    b_next = daxpy(ad, g * w_power, a=w_second)
    return x_next, SplitMergeState(resid_energy, margin, w_second, rho_k, doublings,
                                   False, g, w, h, t, b_next)


def run_split_merge(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Split-Merge iteration with per-iteration renormalization.

    Each step is taken from the ray minimiser of the current direction, so
    the recorded objective -q/4 never increases outside rho-escalation
    steps and the eigenvalue estimate is the Rayleigh quotient. rho resets
    to the configured value every iteration; escalations and fallbacks
    (double power steps t / (2 sqrt(a) r), from about sin theta = 1e-7 on)
    are tallied in diagnostics.
    """
    return _run("split-merge", pair, config, x0)


def run_lanczos(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Restarted Lanczos on B^{-1}A in the B inner product.

    Builds cycles of up to config.lanczos_cycle basis vectors, each new
    vector B-orthogonalized in full against the whole basis through its
    stored B-images, then restarts from the top Ritz vector.
    One trace record per cycle at k = cumulative basis builds; the max
    off-diagonal of V'BV - I per cycle lands in diagnostics["basis_drift"].
    A cycle whose continuation norm vanishes short of convergence restarts
    from its Ritz vector plus a random vector B-orthogonal to its basis
    (drawn with config.seed); Breakdown is raised only when that basis spans
    the whole space.
    """
    return _run("lanczos", pair, config, x0)

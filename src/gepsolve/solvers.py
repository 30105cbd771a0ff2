"""Iterative solvers for the dominant generalized eigenpair.

Every method runs through ``solve(pair, config, x0)`` and the ``RUNNERS``
registry: a runner supplies its set-up and one step, and one driver loop
owns the checks, counters, recording, stopping and the trace. The trace
holds one record per iteration with the objective value, the eigenvalue
estimate, the stopping quantity, cumulative matvec/solve counts, and wall
time. With a reference vector the stopping rule is the principal-angle
sine; without one it is the scale-free gradient criterion
||A d - q B d|| / (sqrt(d'Ad) q) for the unit direction d with Rayleigh
quotient q, which coincides with ||grad f|| / lambda at the scale where the
objective is stationary along the ray.

Iterates of the power and surrogate methods are kept as unit directions and
each step is taken from the ray minimiser c d with c = sqrt(d'Ad)/(2 d'Bd);
the recorded objective is then -q/4, nonincreasing, and the eigenvalue
estimate 2 sqrt(x'Ax) equals q.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    Breakdown,
    DegenerateDirection,
    DimensionMismatch,
    InputError,
    InvalidStepsize,
    NumericalError,
    ZeroVector,
)
from .linalg import Counters, LinearSolver, solve_spd
from .objective import DEGENERATE_RTOL, CurvatureBound, MatrixPair, estimate_curvature_bound
from .precond import Preconditioner, apply_gram_inverse, build_preconditioner, \
    transformed_dominant_eigenvalue

TRACE_HEADER = "k,f,lambda,sin_theta,matvecs,solves,elapsed_ns"

# A nonpositive surrogate margin doubles rho at most this many times per
# step before the step gives up with NumericalError.
RHO_DOUBLING_CAP = 30


@dataclass
class SolverConfig:
    """Knobs shared by every runner; method-specific fields are ignored by
    the methods that do not use them."""

    method: str = "split-merge"
    tol: float = 1e-5
    max_iterations: int = 100000
    seed: int = 0
    rho: float = 1.0
    stepsize: float | None = None
    stepsize_interval: tuple[float, float] | None = None
    curvature_bound: CurvatureBound | None = None
    transformed_bound: float | None = None
    linear_solver: LinearSolver | None = None
    preconditioner: Preconditioner | None = None
    reference: np.ndarray | None = None
    lanczos_cycle: int = 20
    reorthogonalize: bool = True


@dataclass
class TraceRecord:
    k: int
    f: float
    lam: float
    sin_theta: float
    matvecs: int
    solves: int
    elapsed_ns: int


@dataclass
class SolveTrace:
    """Result of one run: per-iteration records, terminal state, and the
    method's diagnostics (stepsize, bounds, setup, escalations, drift)."""

    method: str
    status: str  # converged | max-iterations | degenerate
    records: list[TraceRecord]
    x: np.ndarray
    counters: Counters
    criterion: str  # sin-theta | gradient
    criterion_values: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.records[-1].k if self.records else 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(TRACE_HEADER + "\n")
            for r in self.records:
                fh.write(f"{r.k},{r.f!r},{r.lam!r},{r.sin_theta!r},"
                         f"{r.matvecs},{r.solves},{r.elapsed_ns}\n")


def check_stopping(x: np.ndarray, u_ref: np.ndarray, tol: float) -> tuple[float, bool]:
    """Sine of the principal angle between x and the reference direction,
    and whether it meets the tolerance. Scale and sign free; measured from
    the part of x normal to the unit reference, which keeps the digits that
    sqrt(1 - cos^2) loses (it reads 0 below about 1.5e-8)."""
    sin = _sin_to_unit(x, _unit(u_ref))
    return sin, sin <= tol


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVector("stopping check on a zero vector")
    return v / norm


def _sin_to_unit(x: np.ndarray, unit: np.ndarray) -> float:
    xx = float(x @ x)
    if xx == 0.0:
        raise ZeroVector("stopping check on a zero vector")
    normal = x - float(x @ unit) * unit
    return math.sqrt(float(normal @ normal) / xx)


class _Recorder:
    """Collects trace records against a shared clock and counter set."""

    def __init__(self, counters: Counters, reference, tol: float):
        self.counters = counters
        # normalized once; every record measures its angle against it
        self.unit = None if reference is None else _unit(reference)
        self.tol = tol
        self.records: list[TraceRecord] = []
        self.values: list[float] = []
        self.start = time.perf_counter_ns()

    def add(self, k: int, f: float, lam: float, x: np.ndarray,
            grad_ratio: float | None) -> bool:
        """Append a record; returns True when the stopping rule fires."""
        if self.unit is not None:
            sin = crit = _sin_to_unit(x, self.unit)
        else:
            sin = float("nan")
            crit = grad_ratio if grad_ratio is not None else float("inf")
        ok = crit <= self.tol
        now = time.perf_counter_ns() - self.start
        self.records.append(TraceRecord(k, float(f), float(lam), sin,
                                        self.counters.matvecs, self.counters.solves,
                                        now))
        self.values.append(float(crit))
        return ok


class _Degenerate(Exception):
    """The iterate carries no A-energy; args[0] is the f the last record shows."""


class _Runner:
    """One method: set-up in ``__init__``; ``measure`` gives (f, lambda,
    gradient ratio) at an iterate and ``advance`` the next iterate."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        self.pair = pair
        self.gradient_stop = config.reference is None
        self.diagnostics: dict = {}

    def start(self, x: np.ndarray) -> np.ndarray:
        return x

    def iterate(self, x: np.ndarray, rec: _Recorder, cap: int) -> tuple[str, np.ndarray]:
        """The driver loop; returns (status, final iterate)."""
        counters = rec.counters
        try:
            for k in range(cap + 1):
                f, lam, ratio = self.measure(x, counters)
                if rec.add(k, f, lam, x, ratio):
                    return "converged", x
                if k < cap:
                    x = self.advance(x, counters)
        except _Degenerate as exc:
            rec.add(len(rec.records), exc.args[0], 0.0, x, None)
            return "degenerate", x
        return "max-iterations", x


class _FirstOrder(_Runner):
    """gd (no metric) and pmd: x <- x - alpha M^{-1} grad f(x)."""

    def __init__(self, pair: MatrixPair, config: SolverConfig,
                 precond: Preconditioner | None = None):
        super().__init__(pair, config)
        self.precond = precond
        if precond is None:
            bound = config.curvature_bound or estimate_curvature_bound(pair.b)
            limit = 2.0 / bound.bound
            self.diagnostics["curvature_bound"] = bound.bound
            self.diagnostics["curvature_method"] = bound.method
        else:
            lam_t = config.transformed_bound
            if lam_t is None:
                lam_t = transformed_dominant_eigenvalue(pair.b, precond)
            limit = 1.0 / lam_t
            self.diagnostics["transformed_bound"] = lam_t

        if config.stepsize is not None:
            alpha = float(config.stepsize)
            if not (0.0 < alpha < limit):
                raise InvalidStepsize(f"stepsize {alpha} outside (0, {limit})")
        else:
            lo, hi = config.stepsize_interval or (0.9 * limit, 0.99 * limit)
            if not (0.0 < lo <= hi < limit):
                raise InvalidStepsize(f"interval [{lo}, {hi}] not inside (0, {limit})")
            alpha = float(np.random.default_rng(config.seed).uniform(lo, hi))
        self.alpha = alpha
        self.diagnostics["stepsize"] = alpha

    def measure(self, x, counters):
        ax = self.pair.a.matvec(x, counters)
        bx = self.pair.b.matvec(x, counters)
        xax = float(x @ ax)
        if xax <= DEGENERATE_RTOL * float(x @ x):
            raise _Degenerate(float(x @ bx))
        root = np.sqrt(xax)
        lam = 2.0 * root
        self.g = 2.0 * bx - ax / root
        ratio = float(np.linalg.norm(self.g)) / lam if self.gradient_stop else None
        return float(x @ bx) - root, lam, ratio

    def advance(self, x, counters):
        g = self.g
        d = g if self.precond is None else apply_gram_inverse(self.precond, g, counters)
        return x - self.alpha * d


class _Ray(_Runner):
    """Unit iterates measured by their Rayleigh quotient (power, split-merge);
    x'Bx comes from the previous step's solve byproducts."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.solver = config.linear_solver or LinearSolver.exact(pair.b)
        self.diagnostics.update(setup_matvecs=1, solver_mode=self.solver.mode)

    def start(self, x):
        x /= np.linalg.norm(x)
        self.bq = float(x @ self.pair.b.matvec(x))  # setup matvec, uncounted
        return x

    def measure(self, x, counters):
        ax = self.pair.a.matvec(x, counters)
        xax = float(x @ ax)
        if xax <= DEGENERATE_RTOL:
            raise _Degenerate(0.0)
        q = xax / self.bq
        ratio = None
        if self.gradient_stop:
            bd = self.pair.b.matvec(x, counters)
            ratio = float(np.linalg.norm(ax - q * bd)) / (np.sqrt(xax) * q)
        self.ax = ax
        self.xax = xax
        return -q / 4.0, q, ratio


class _Power(_Ray):
    def advance(self, x, counters):
        w = solve_spd(self.solver, self.pair.b, self.ax, counters)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            raise _Degenerate(0.0)
        self.bq = float(w @ self.ax) / (norm_w * norm_w)
        return w / norm_w


class _SplitMerge(_Ray):
    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.rho = config.rho
        self.diagnostics.update(rho_escalations=0, fallback_steps=0)

    def advance(self, x, counters):
        scale = np.sqrt(self.xax) / (2.0 * self.bq)  # ray minimiser of f along x
        x_next, state = split_merge_step(self.pair, scale * x, self.rho, self.solver,
                                         counters, ax=scale * self.ax)
        self.diagnostics["rho_escalations"] += state.doublings
        self.diagnostics["fallback_steps"] += 1 if state.fallback else 0
        norm = float(np.linalg.norm(x_next))
        self.bq = float(x_next @ state.b_next) / (norm * norm)
        return x_next / norm


class _Lanczos(_Runner):
    """Restarted Lanczos; its own cycle loop replaces the shared one."""

    def __init__(self, pair: MatrixPair, config: SolverConfig):
        super().__init__(pair, config)
        self.solver = config.linear_solver or LinearSolver.exact(pair.b)
        self.cycle = config.lanczos_cycle
        if self.cycle < 2:
            raise InputError(f"cycle length must be at least 2, got {self.cycle}")
        self.reorthogonalize = config.reorthogonalize
        self.diagnostics.update(solver_mode=self.solver.mode, basis_drift=[])

    def iterate(self, x, rec, cap):
        a, b, solver, cycle = self.pair.a, self.pair.b, self.solver, self.cycle
        counters = rec.counters
        n = b.n
        drift = self.diagnostics["basis_drift"]
        builds = 0

        while True:
            bx = b.matvec(x, counters)
            nb2 = float(x @ bx)
            if nb2 <= 0.0:
                raise ZeroVector("restart vector has zero B-norm")
            nb = np.sqrt(nb2)
            v = x / nb
            bv = bx / nb
            basis = np.empty((n, cycle))
            bimages = np.empty((n, cycle))
            alphas: list[float] = []
            betas: list[float] = []
            v_prev = None
            beta_prev = 0.0
            broke = False

            m = 0
            while m < cycle and builds < cap:
                basis[:, m] = v
                bimages[:, m] = bv
                av = a.matvec(v, counters)
                u = solve_spd(solver, b, av, counters)
                alpha = float(av @ v)
                w = u - alpha * v
                if v_prev is not None:
                    w -= beta_prev * v_prev
                if self.reorthogonalize:
                    w -= basis[:, : m + 1] @ (bimages[:, : m + 1].T @ w)
                bw = b.matvec(w, counters)
                beta = float(np.sqrt(max(0.0, float(w @ bw))))
                alphas.append(alpha)
                betas.append(beta)
                m += 1
                builds += 1
                tiny = 1e-13 * max(1.0, max(abs(al) for al in alphas), max(betas))
                if beta <= tiny:
                    broke = True
                    break
                if m < cycle:
                    v_prev = v
                    v = w / beta
                    bv = bw / beta

            evals, vecs = scipy.linalg.eigh_tridiagonal(
                alphas, betas[: m - 1], select="i", select_range=(m - 1, m - 1))
            theta = float(evals[0])
            ritz = basis[:, :m] @ vecs[:, 0]

            gram = bimages[:, :m].T @ basis[:, :m]
            drift.append(float(np.max(np.abs(gram - np.eye(m)))))

            ratio = None
            if self.gradient_stop:
                aritz = a.matvec(ritz, counters)
                britz = b.matvec(ritz, counters)
                raz = float(ritz @ aritz)
                if raz > 0.0 and theta > 0.0:
                    ratio = float(np.linalg.norm(aritz - theta * britz)) / (np.sqrt(raz) * theta)
                else:
                    ratio = float("inf")
            if rec.add(builds, -theta / 4.0, theta, ritz, ratio):
                return "converged", ritz
            if broke:
                raise Breakdown(
                    f"continuation norm vanished at build {builds} with the Ritz pair unconverged")
            if builds >= cap:
                return "max-iterations", ritz
            x = ritz


RUNNERS = {
    "gd": _FirstOrder,
    "pmd": lambda pair, config: _FirstOrder(
        pair, config, config.preconditioner or build_preconditioner(pair.b, "cholesky")),
    "power": _Power,
    "split-merge": _SplitMerge,
    "lanczos": _Lanczos,
}
METHODS = tuple(RUNNERS)


def _run(method: str, pair: MatrixPair, config: SolverConfig, x0) -> SolveTrace:
    """The driver: checks, set-up, the method's loop, the trace."""
    n = pair.n
    if config.method not in METHODS:
        raise InputError(f"unknown method {config.method!r}")
    if not (config.tol > 0.0):
        raise InputError(f"tolerance must be positive, got {config.tol}")
    if config.max_iterations < 1:
        raise InputError(f"iteration cap must be at least 1, got {config.max_iterations}")
    if config.rho < 1.0:
        raise InputError(f"rho must be at least 1, got {config.rho}")
    if config.reference is not None and np.shape(config.reference) != (n,):
        raise DimensionMismatch(
            f"reference shape {np.shape(config.reference)} vs order {n}")
    x = np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise DimensionMismatch(f"start vector shape {x.shape} vs order {n}")
    if float(np.linalg.norm(x)) == 0.0:
        raise ZeroVector("start vector has zero norm")

    runner = RUNNERS[method](pair, config)
    x = runner.start(x)
    rec = _Recorder(Counters(), config.reference, config.tol)
    status, x = runner.iterate(x, rec, config.max_iterations)
    criterion = "sin-theta" if config.reference is not None else "gradient"
    return SolveTrace(method, status, rec.records, x, rec.counters, criterion,
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

    The stepsize is validated against the curvature bound: fixed values must
    satisfy alpha * bound in (0, 2); otherwise one value is drawn uniformly
    from [0.9, 0.99] * (2 / bound) once per run using config.seed.
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
    power method iterate for iterate. Sampling defaults to [0.9, 0.99] of
    the limit.

    With the exact metric, near the solution each eigen-component of the
    iterate is multiplied by 1 - 2 alpha (1 - lambda_i / lambda_1) per step,
    so the angle to the dominant eigenvector contracts at
    max_{i>=2} |1 - 2 alpha (1 - lambda_i / lambda_1)|. At alpha = 1/2 that
    is lambda_2 / lambda_1, the power method's rate. For alpha in the
    default interval the bottom of the spectrum floors the rate at
    |1 - 2 alpha (1 - lambda_n / lambda_1)|, which is 0.80..0.98 when
    lambda_n << lambda_1. The default beats 1/2 only when the maximum is
    below lambda_2 / lambda_1: a clustered top of the spectrum, not a wide
    gap.
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

    In solver notation g = Ax, w = B^{-1}g, h = Aw and t = B^{-1}h. Then
    quad_a = x'Ax, quad_ab = g'w = x'AB^{-1}Ax and quad_aba = g't = w'Aw.
    With ratio = quad_ab / quad_a, the part of w that is A-orthogonal to x
    is w - ratio x; resid = h - ratio g is its A-image and resid_energy =
    quad_aba - quad_ab * ratio its A-energy, nonnegative by Cauchy-Schwarz
    up to roundoff. pd_margin is the positivity margin sigma of the
    corrected surrogate at rho_used, the rho after ``doublings``
    escalations inside the step; w_first and w_second weight w and t in
    the step. b_next is B x_next rebuilt from solve byproducts (exact for
    exact solves). fallback marks a step whose second direction carried no
    new energy and which took the power update instead; it has no resid.
    """

    quad_a: float
    quad_ab: float
    quad_aba: float
    resid_energy: float
    pd_margin: float
    w_first: float
    w_second: float
    rho_used: float
    doublings: int
    fallback: bool
    ax: np.ndarray
    w: np.ndarray
    h: np.ndarray | None
    t: np.ndarray | None
    resid: np.ndarray | None
    b_next: np.ndarray


DEGENERATE_STEP_RTOL = 1e-14


def split_merge_step(pair: MatrixPair, x: np.ndarray, rho: float, solver: LinearSolver,
                     counters: Counters | None = None,
                     ax: np.ndarray | None = None) -> tuple[np.ndarray, SplitMergeState]:
    """One Split-Merge step x+ = w_first B^{-1}Ax + w_second B^{-1}AB^{-1}Ax.

    Exactly two solves, two A-matvecs, and four inner products: a = x'Ax,
    b = g'w, c = g't, and z'B^{-1}z with B^{-1}z formed from the vectors
    already solved (t - (b/a) w). When the second direction carries no new
    energy (resid_energy <= 1e-14 b^2/a, which also absorbs roundoff
    negatives) the step degrades to the power update w / (2 sqrt(a)). A
    nonpositive margin doubles rho until positive, up to RHO_DOUBLING_CAP
    times.

    ``ax`` may carry a precomputed A x (the run loop shares it with its
    bookkeeping).
    """
    x = np.asarray(x, dtype=np.float64)
    g = ax if ax is not None else pair.a.matvec(x, counters)
    quad_a = float(x @ g)
    if quad_a <= DEGENERATE_RTOL * float(x @ x):
        raise DegenerateDirection(f"x'Ax = {quad_a:.3e} is degenerate")
    root_a = np.sqrt(quad_a)

    w = solve_spd(solver, pair.b, g, counters)
    quad_ab = float(g @ w)
    h = pair.a.matvec(w, counters)
    t = solve_spd(solver, pair.b, h, counters)
    quad_aba = float(g @ t)

    ratio = quad_ab / quad_a
    resid_energy = quad_aba - quad_ab * ratio
    if resid_energy <= DEGENERATE_STEP_RTOL * quad_ab * ratio:
        x_next = w / (2.0 * root_a)
        st = SplitMergeState(quad_a, quad_ab, quad_aba, resid_energy, 1.0,
                             1.0 / (2.0 * root_a), 0.0, rho, 0, True,
                             g, w, h, t, None, g / (2.0 * root_a))
        return x_next, st

    binv_resid = t - ratio * w
    resid = h - ratio * g
    resid_gram = float(resid @ binv_resid)

    rho_k = float(rho)
    doublings = 0
    while True:
        margin = 1.0 - resid_gram / (2.0 * rho_k * root_a * resid_energy)
        if margin > 0.0:
            break
        doublings += 1
        if doublings > RHO_DOUBLING_CAP:
            raise NumericalError(
                f"margin stayed nonpositive after {RHO_DOUBLING_CAP} rho doublings")
        rho_k *= 2.0

    w_second = 1.0 / (4.0 * margin * rho_k * quad_a)
    w_first = 1.0 / (2.0 * root_a) - w_second * ratio
    x_next = w_first * w + w_second * t
    b_next = w_first * g + w_second * h
    st = SplitMergeState(quad_a, quad_ab, quad_aba, resid_energy, margin,
                         w_first, w_second, rho_k, doublings, False,
                         g, w, h, t, resid, b_next)
    return x_next, st


def run_split_merge(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Split-Merge iteration with per-iteration renormalization.

    Each step is taken from the ray minimiser of the current direction, so
    the recorded objective -q/4 never increases outside rho-escalation
    steps and the eigenvalue estimate is the Rayleigh quotient. rho resets
    to the configured value every iteration; escalations and power
    fallbacks are tallied in diagnostics.
    """
    return _run("split-merge", pair, config, x0)


def run_lanczos(pair: MatrixPair, config: SolverConfig, x0: np.ndarray) -> SolveTrace:
    """Restarted Lanczos on B^{-1}A in the B inner product.

    Builds cycles of up to config.lanczos_cycle basis vectors with the
    three-term recurrence, optional full reorthogonalization against the
    stored B-images of the basis, then restarts from the top Ritz vector.
    One trace record per cycle at k = cumulative basis builds; the max
    off-diagonal of V'BV - I per cycle lands in diagnostics["basis_drift"].
    A vanishing continuation norm with the Ritz pair unconverged raises
    Breakdown.
    """
    return _run("lanczos", pair, config, x0)

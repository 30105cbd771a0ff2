"""First-order runners, power iteration, stopping logic, trace format."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gepsolve import (
    CurvatureBound,
    MatrixPair,
    SolverConfig,
    SymmetricMatrix,
    SyntheticSpec,
    build_preconditioner,
    check_stopping,
    estimate_curvature_bound,
    gen_synthetic,
    reference_solution,
    run_gd,
    run_pmd,
    run_power,
    solve,
    top_k,
)
from gepsolve.errors import (
    DimensionMismatch,
    InputError,
    InvalidStepsize,
    NonFiniteEntries,
    ZeroVector,
)
import gepsolve.solvers
from gepsolve.bench import SuiteCell, SuiteConfig, run_suite
from gepsolve.solvers import METHODS, TRACE_HEADER, TraceRecord


def rand_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(1.0 / cond, 1.0, n)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def rand_pair(n, seed, cond_a=50.0, cond_b=10.0):
    a = SymmetricMatrix.from_dense(rand_spd(n, seed, cond_a))
    b = SymmetricMatrix.from_dense(rand_spd(n, seed + 1, cond_b))
    return MatrixPair(a, b)


def diag_pair(avals, bvals):
    return MatrixPair(SymmetricMatrix.from_dense(np.diag(avals)),
                      SymmetricMatrix.from_dense(np.diag(bvals)))


def top_vector(pair):
    _, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())
    return vecs[:, -1]


# ---------------------------------------------------------------------------
# Stopping rule


def test_check_stopping_aligned():
    sin, ok = check_stopping(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1e-5)
    assert sin == 0.0
    assert ok


def test_check_stopping_orthogonal():
    sin, ok = check_stopping(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1e-5)
    assert sin == 1.0
    assert not ok


def test_check_stopping_analytic_angle():
    sin, _ = check_stopping(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1e-5)
    npt.assert_allclose(sin, math.sqrt(2.0) / 2.0, rtol=1e-15, atol=0)


def test_check_stopping_sign_free():
    sin, ok = check_stopping(np.array([-3.0, 0.0]), np.array([1.0, 0.0]), 1e-5)
    assert sin == 0.0 and ok


def test_check_stopping_resolves_tiny_angles():
    # cos rounds to 1 below an angle of about 1.5e-8, so sqrt(1 - cos^2)
    # read 0 here; the normal component keeps the angle.
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    theta = 1e-9
    x = 3.0 * (math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1])
    sin, ok = check_stopping(x, -2.0 * q[:, 0], 1e-10)
    npt.assert_allclose(sin, math.sin(theta), rtol=1e-6)
    assert not ok


def test_sin_theta_stopping_reaches_tolerances_below_1e8():
    # the run stops on the angle it reads, so a 0 read too early leaves the
    # returned vector up to 1.5e-8 off
    pair = rand_pair(12, 31)
    u = top_vector(pair)
    u = u / np.linalg.norm(u)
    trace = run_power(pair, SolverConfig(method="power", tol=1e-10, reference=u,
                                         max_iterations=5000),
                      np.random.default_rng(4).standard_normal(12))
    assert trace.status == "converged"
    x = trace.x / np.linalg.norm(trace.x)
    assert float(np.linalg.norm(x - (x @ u) * u)) <= 2e-10


def test_check_stopping_zero_vector():
    with pytest.raises(ZeroVector):
        check_stopping(np.zeros(2), np.ones(2), 1e-5)
    with pytest.raises(ZeroVector):
        check_stopping(np.ones(2), np.zeros(2), 1e-5)


def test_check_stopping_validates_its_vectors():
    """A list gives the array's result; a vector of another length or a 2-d
    one raises DimensionMismatch rather than f2py's error or a flattened read."""
    x, u_ref = np.array([3.0, 4.0]), np.array([1.0, 0.0])
    assert check_stopping(x.tolist(), u_ref, 1e-5) == check_stopping(x, u_ref, 1e-5)
    assert check_stopping(x, u_ref.tolist(), 1e-5) == check_stopping(x, u_ref, 1e-5)
    for bad_x, bad_ref in ((np.ones(3), u_ref), (np.ones((1, 2)), u_ref),
                           (x, np.ones((1, 2))), (x, np.ones(3))):
        with pytest.raises(DimensionMismatch):
            check_stopping(bad_x, bad_ref, 1e-5)


def normal_component_sine(x, u_ref):
    """The sine read from the part of x normal to the unit reference alone."""
    unit = u_ref / float(np.linalg.norm(u_ref))
    normal = x - float(x @ unit) * unit
    return math.sqrt(float(normal @ normal) / float(x @ x))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 64) | st.sampled_from([576, 4096, 65536]),
       log_angle=st.floats(-12.0, 0.0), log_scale=st.floats(-100.0, 100.0),
       negative=st.booleans(),
       log_ref_scale=st.floats(-50.0, 50.0), log_tol=st.floats(-11.0, math.log10(0.3)),
       seed=st.integers(0, 2**32 - 1))
def test_check_stopping_agrees_with_the_normal_component_sine(
        n, log_angle, log_scale, negative, log_ref_scale, log_tol, seed):
    """Two inner products give the sine wherever it is clearly above both
    2 tol and sqrt(1e-9 n), at any order up to sparse-pcg's and beyond;
    below that the normal component gives it, bit for bit. Either way the
    stop decision is the normal-component sine's."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 2)))[0]
    theta, tol = 10.0 ** log_angle, 10.0 ** log_tol
    scale = -(10.0 ** log_scale) if negative else 10.0 ** log_scale
    x = scale * (math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1])
    u_ref = 10.0 ** log_ref_scale * q[:, 0]
    sin, ok = check_stopping(x, u_ref, tol)
    expected = normal_component_sine(x, u_ref)
    assert type(sin) is float
    assert ok == (expected <= tol)
    if expected < max(2.0 * tol, math.sqrt(1e-9 * n)) * (1.0 - 1e-6):
        assert sin == expected
    else:
        assert abs(sin - expected) <= 1e-6 * expected


def assert_python_scalars(trace):
    """Trace fields hold Python scalars (numpy 2 writes an np.float64 as
    'np.float64(...)', which would corrupt the CSV), on a monotone clock."""
    for r in trace.records:
        assert [type(v) for v in (r.f, r.lam, r.sin_theta)] == [float] * 3, r
        assert [type(v) for v in (r.k, r.matvecs, r.solves, r.elapsed_ns)] == [int] * 4, r
    elapsed = [r.elapsed_ns for r in trace.records]
    assert elapsed == sorted(elapsed)
    assert len(trace.criterion_values) == len(trace.records)
    assert all(type(v) is float for v in trace.criterion_values)


@pytest.mark.parametrize("with_reference", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_trace_records_hold_python_scalars(method, with_reference):
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=2))
    reference = reference_solution(pair).u if with_reference else None
    trace = solve(pair, SolverConfig(method=method, tol=1e-6, reference=reference),
                  np.random.default_rng(5).standard_normal(pair.n))
    assert trace.converged
    assert_python_scalars(trace)
    if with_reference:
        assert [r.sin_theta for r in trace.records] == trace.criterion_values
    else:
        assert all(math.isnan(r.sin_theta) for r in trace.records)


@pytest.fixture
def built_records(monkeypatch):
    """Counts the TraceRecords the package builds."""
    built = []

    class Counted(TraceRecord):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(gepsolve.solvers, "TraceRecord", Counted)
    return built


def test_paths_that_never_read_records_build_none(built_records):
    """The loop keeps plain rows: a suite run, whose statistics read
    ``final()`` once, builds one record; a top-k stage, which reads the
    status and the iterate, builds none; ``final()`` and ``iterations``
    after a solve build one between them."""
    config = SuiteConfig(cells=[SuiteCell(24, 10.0)], methods=list(METHODS), trials=2)
    report = run_suite(config)
    runs = sum(m.successes for cell in report.cells for m in cell.methods)
    assert runs == len(METHODS) * 2 and len(built_records) <= runs

    del built_records[:]
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=2))
    assert len(top_k(pair, 3, SolverConfig(method="power", tol=1e-8))) == 3
    assert len(built_records) <= 3

    del built_records[:]
    trace = solve(pair, SolverConfig(method="gd", tol=1e-6),
                  np.random.default_rng(5).standard_normal(pair.n))
    assert trace.final().k == trace.iterations > 1
    assert len(built_records) == 1


@pytest.mark.parametrize("method", METHODS)
def test_records_built_on_read_match_the_rows(method):
    """``records`` is one TraceRecord per row, field by field and type by type,
    built once: a second read returns the same list."""
    pair = gen_synthetic(SyntheticSpec(n=24, kappa_b=10.0, seed=2))
    trace = solve(pair, SolverConfig(method=method, tol=1e-6, reference=reference_solution(pair).u),
                  np.random.default_rng(5).standard_normal(pair.n))
    records = trace.records
    assert trace.records is records and len(records) == len(trace.rows) >= 1
    for r, row in zip(records, trace.rows):
        fields = (r.k, r.f, r.lam, r.sin_theta, r.matvecs, r.solves, r.elapsed_ns)
        assert [type(v) for v in fields] == [int, float, float, float, int, int, int]
        assert [v.hex() if type(v) is float else v for v in fields] == \
            [float(v).hex() if type(v) is not int else v for v in row]
    assert trace.final() is records[-1] and trace.iterations == records[-1].k
    assert_python_scalars(trace)


@pytest.mark.parametrize("with_reference", [False, True])
@pytest.mark.parametrize("method", ["gd", "power", "split-merge"])
def test_degenerate_trace_holds_python_scalars(method, with_reference):
    pair = diag_pair([1.0, -2.0, 0.5, 0.3], [1.0, 1.0, 1.0, 1.0])
    reference = np.array([1.0, 0.0, 0.0, 0.0]) if with_reference else None
    trace = solve(pair, SolverConfig(method=method, tol=1e-8, reference=reference),
                  np.array([0.0, 1.0, 0.0, 0.0]))
    assert trace.status == "degenerate"
    assert_python_scalars(trace)


# ---------------------------------------------------------------------------
# Config validation


def test_bad_configs_rejected():
    pair = diag_pair([2.0, 1.0], [1.0, 1.0])
    x0 = np.array([1.0, 1.0])
    with pytest.raises(InputError):
        solve(pair, SolverConfig(method="newton"), x0)
    with pytest.raises(InputError):
        run_gd(pair, SolverConfig(method="gd", tol=0.0), x0)
    with pytest.raises(InputError):
        run_gd(pair, SolverConfig(method="gd", max_iterations=0), x0)
    with pytest.raises(InputError):
        run_gd(pair, SolverConfig(method="gd", rho=0.5), x0)
    with pytest.raises(DimensionMismatch):
        run_gd(pair, SolverConfig(method="gd", reference=np.ones(3)), x0)
    with pytest.raises(ZeroVector):
        run_gd(pair, SolverConfig(method="gd"), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        run_gd(pair, SolverConfig(method="gd"), np.ones(3))


def test_runner_ignores_the_method_named_in_config():
    pair = diag_pair([2.0, 1.0], [1.0, 1.0])
    trace = run_power(pair, SolverConfig(method="nope"), np.array([1.0, 1.0]))
    assert trace.method == "power"


@pytest.mark.parametrize("method, field, value", [
    ("split-merge", "rho", math.nan), ("power", "max_iterations", 2.5),
    ("power", "max_iterations", math.nan), ("lanczos", "lanczos_cycle", 2.5),
    ("lanczos", "lanczos_cycle", math.nan)])
def test_non_finite_or_fractional_knobs_rejected_up_front(method, field, value):
    pair = diag_pair([2.0, 1.0], [1.0, 1.0])
    config = SolverConfig(method=method, **{field: value})
    with pytest.raises(InputError, match="rho|cap|cycle"):
        solve(pair, config, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_start_rejected_up_front(method, bad):
    # unchecked, gd, pmd and power spend their cap on lambda = nan,
    # split-merge doubles rho 30 times and lanczos meets a NaN Ritz value
    pair = diag_pair([2.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    x0 = np.array([1.0, bad, 1.0])
    with pytest.raises(NonFiniteEntries, match="start vector"):
        solve(pair, SolverConfig(method=method, max_iterations=50), x0)


def test_non_finite_reference_rejected_up_front():
    pair = diag_pair([2.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    config = SolverConfig(method="power", max_iterations=50,
                          reference=np.array([1.0, math.nan, 0.0]))
    with pytest.raises(NonFiniteEntries, match="reference"):
        run_power(pair, config, np.ones(3))


def _outcome(trace):
    """What a run returns, but its wall clock, in exact form."""
    c = trace.counters
    records = [(r.k, r.f.hex(), r.lam.hex(), r.sin_theta.hex(), r.matvecs, r.solves)
               for r in trace.records]
    return (trace.status, records, [v.hex() for v in trace.criterion_values],
            (c.matvecs, c.solves, c.pcg_inner, c.pcg_capped, c.pcg_residual.hex()),
            trace.x.tobytes(), repr(trace.diagnostics))


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["tiny", "huge"])
@pytest.mark.parametrize("with_reference", [False, True])
@pytest.mark.parametrize("method", ["power", "split-merge", "lanczos"])
def test_direction_methods_ignore_the_start_scale(method, with_reference, scale):
    # x'x of the scaled start underflows or overflows; the run brings it back
    # by a power of two, which is exact, so it matches the ordinary start's
    pair = gen_synthetic(SyntheticSpec(n=16, kappa_b=10.0))
    x0 = np.random.default_rng(5).standard_normal(16)
    reference = reference_solution(pair).u if with_reference else None
    config = SolverConfig(method=method, tol=1e-10, max_iterations=500, reference=reference)
    assert _outcome(solve(pair, config, scale * x0)) == _outcome(solve(pair, config, x0))


@pytest.mark.parametrize("method", ["gd", "pmd"])
def test_first_order_methods_keep_the_start_scale(method):
    # f depends on the scale: x'Ax of this start underflows, a degenerate start
    pair = gen_synthetic(SyntheticSpec(n=16, kappa_b=10.0))
    x0 = 2.0**-600 * np.ones(16)
    trace = solve(pair, SolverConfig(method=method, max_iterations=50), x0)
    assert trace.status == "degenerate" and trace.iterations == 0
    assert trace.x.tobytes() == x0.tobytes()


@pytest.mark.parametrize("method", ["gd", "pmd"])
def test_first_order_methods_end_an_overflowed_start_at_once(method):
    # x'x overflows and x'Ax's mixed-sign products give inf - inf = NaN: the
    # run ends diverged at k = 0 instead of spending its cap on NaN
    pair = gen_synthetic(SyntheticSpec(n=16, kappa_b=10.0))
    x0 = 2.0**600 * np.random.default_rng(3).standard_normal(16)
    trace = solve(pair, SolverConfig(method=method, max_iterations=200), x0)
    assert trace.status == "diverged" and trace.iterations == 0


def test_invalid_stepsizes_rejected():
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    x0 = np.array([1.0, 1.0])
    bound = CurvatureBound(2.0, "dominant")
    for alpha in (-0.1, 0.0, 1.0, 2.5 / 2.0):
        with pytest.raises(InvalidStepsize):
            run_gd(pair, SolverConfig(method="gd", stepsize=alpha,
                                      curvature_bound=bound), x0)
    # a stability bound that is not positive and finite has no stepsize
    # range; it is rejected before the limit is divided out of it
    metric = build_preconditioner(pair.b, "diagonal")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidStepsize):
            run_gd(pair, SolverConfig(method="gd",
                                      curvature_bound=CurvatureBound(bad, "dominant")), x0)
        with pytest.raises(InvalidStepsize):
            run_pmd(pair, SolverConfig(method="pmd", preconditioner=metric,
                                       transformed_bound=bad), x0=x0)


def test_valid_fixed_stepsize_accepted():
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    bound = CurvatureBound(2.0, "dominant")
    trace = run_gd(pair, SolverConfig(method="gd", stepsize=0.4, tol=1e-6,
                                      curvature_bound=bound,
                                      reference=np.array([1.0, 0.0])),
                   np.array([1.0, 1.0]))
    assert trace.diagnostics["stepsize"] == 0.4
    assert trace.converged


# ---------------------------------------------------------------------------
# Gradient descent


def test_gd_stationary_start_converges_immediately():
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    trace = run_gd(pair, SolverConfig(method="gd",
                                      reference=np.array([1.0, 0.0])),
                   np.array([1.0, 0.0]))
    assert trace.converged
    assert trace.iterations == 0
    assert trace.records[0].f == -1.0


def test_gd_two_by_two_descends_to_convergence():
    """From (1, 1) with a safe fixed stepsize the value drops strictly each
    step until the angle criterion fires."""
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    trace = run_gd(pair, SolverConfig(method="gd", stepsize=0.4, tol=1e-8,
                                      curvature_bound=CurvatureBound(2.0, "dominant"),
                                      reference=np.array([1.0, 0.0])),
                   np.array([1.0, 1.0]))
    assert trace.converged
    f_values = [r.f for r in trace.records]
    assert all(b < a for a, b in zip(f_values, f_values[1:]))
    assert trace.records[-1].sin_theta <= 1e-8


def test_gd_descent_lemma():
    """Every accepted step decreases f by at least the guaranteed margin
    alpha (1 - alpha L / 2) ||g||^2, up to additive roundoff slack."""
    for trial in range(100):
        pair = rand_pair(10, 2300 + trial, cond_a=20.0, cond_b=6.0)
        rng = np.random.default_rng(2400 + trial)
        trace = run_gd(pair, SolverConfig(method="gd", tol=1e-12,
                                          max_iterations=60,
                                          seed=trial),
                       rng.standard_normal(10))
        alpha = trace.diagnostics["stepsize"]
        bound = trace.diagnostics["curvature_bound"]
        margin = alpha * (1.0 - alpha * bound / 2.0)
        assert margin > 0.0
        for prev, nxt, ratio in zip(trace.records, trace.records[1:],
                                    trace.criterion_values):
            grad_norm = ratio * prev.lam
            assert nxt.f <= prev.f - margin * grad_norm ** 2 + 1e-10 * abs(prev.f)


def test_gd_f_monotone():
    for trial in range(10):
        pair = rand_pair(14, 2500 + trial)
        rng = np.random.default_rng(2600 + trial)
        trace = run_gd(pair, SolverConfig(method="gd", tol=1e-6, seed=trial,
                                          max_iterations=4000),
                       rng.standard_normal(14))
        f_values = [r.f for r in trace.records]
        for a, b in zip(f_values, f_values[1:]):
            assert b <= a + 1e-12 * abs(a)


def test_gd_reference_free_convergence():
    """Without a reference the gradient norm over lambda is the criterion;
    sine entries stay undefined."""
    pair = rand_pair(16, 70, cond_a=10.0, cond_b=3.0)
    rng = np.random.default_rng(71)
    trace = run_gd(pair, SolverConfig(method="gd", tol=1e-6,
                                      max_iterations=20000),
                   rng.standard_normal(16))
    assert trace.converged
    assert trace.criterion == "gradient"
    assert trace.criterion_values[-1] <= 1e-6
    assert all(math.isnan(r.sin_theta) for r in trace.records)
    # the converged direction matches the dominant eigenvector after all
    sin, ok = check_stopping(trace.x, top_vector(pair), 1e-4)
    assert ok


def test_gd_sampled_stepsize_in_interval():
    pair = rand_pair(8, 72)
    trace = run_gd(pair, SolverConfig(method="gd", tol=1e-3, max_iterations=5,
                                      seed=9),
                   np.ones(8))
    limit = 2.0 / trace.diagnostics["curvature_bound"]
    assert 0.9 * limit <= trace.diagnostics["stepsize"] <= 0.99 * limit


def test_gd_deterministic_given_seed():
    pair = rand_pair(12, 73)
    rng = np.random.default_rng(74)
    x0 = rng.standard_normal(12)
    cfg = dict(method="gd", tol=1e-7, seed=5, max_iterations=3000)
    t1 = run_gd(pair, SolverConfig(**cfg), x0)
    t2 = run_gd(pair, SolverConfig(**cfg), x0)
    assert t1.diagnostics["stepsize"] == t2.diagnostics["stepsize"]
    assert [r.f for r in t1.records] == [r.f for r in t2.records]
    npt.assert_array_equal(t1.x, t2.x)


def test_gd_iteration_cap_status():
    pair = rand_pair(10, 75)
    trace = run_gd(pair, SolverConfig(method="gd", tol=1e-14, max_iterations=7),
                   np.ones(10))
    assert trace.status == "max-iterations"
    assert not trace.converged
    assert trace.iterations == 7
    assert len(trace.records) == 8


def test_gd_degenerate_status():
    pair = diag_pair([1.0, 0.0], [2.0, 1.0])
    trace = run_gd(pair, SolverConfig(method="gd"), np.array([0.0, 1.0]))
    assert trace.status == "degenerate"
    assert trace.records[-1].lam == 0.0


def test_gd_divergence_status():
    # about a quarter of the curvature bound of B: the iterates grow until
    # x'Ax overflows, and a run whose objective is no longer finite has
    # diverged, not degenerated
    pair = gen_synthetic(SyntheticSpec(n=64, kappa_b=10.0))
    config = SolverConfig(method="gd", tol=1e-6, curvature_bound=CurvatureBound(0.5, "dominant"))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = solve(pair, config, np.ones(64))
    assert trace.status == "diverged"
    assert not trace.converged
    assert trace.final().k == 188
    assert trace.final().f == math.inf
    assert trace.diagnostics["observed_rate"] is None


def test_gd_matvec_count():
    """Two matvecs per recorded iteration, nothing else."""
    pair = rand_pair(9, 76)
    trace = run_gd(pair, SolverConfig(method="gd", tol=1e-14, max_iterations=12),
                   np.ones(9))
    assert trace.counters.matvecs == 2 * len(trace.records)
    assert trace.counters.solves == 0


# ---------------------------------------------------------------------------
# Preconditioned descent


def test_pmd_identity_equals_gd_bitwise():
    pair = rand_pair(12, 77)
    rng = np.random.default_rng(78)
    x0 = rng.standard_normal(12)
    ident = build_preconditioner(pair.b, "identity")
    alpha = 0.45
    gd = run_gd(pair, SolverConfig(method="gd", stepsize=alpha, tol=1e-8,
                                   max_iterations=500, seed=3), x0)
    pmd = run_pmd(pair, SolverConfig(method="pmd", stepsize=alpha, tol=1e-8,
                                     max_iterations=500, seed=3), ident, x0)
    assert [r.f for r in gd.records] == [r.f for r in pmd.records]
    assert [r.lam for r in gd.records] == [r.lam for r in pmd.records]
    npt.assert_array_equal(gd.x, pmd.x)


def test_pmd_half_step_collinear_with_power():
    """With the exact metric and alpha = 1/2 every iterate lies on the power
    method's ray."""
    pair = rand_pair(20, 79)
    rng = np.random.default_rng(80)
    x0 = rng.standard_normal(20)
    chol = build_preconditioner(pair.b, "cholesky")
    for k in range(1, 16):
        cfg = dict(tol=1e-300, max_iterations=k, seed=0)
        xp = run_pmd(pair, SolverConfig(method="pmd", stepsize=0.5, **cfg),
                     chol, x0).x
        xw = run_power(pair, SolverConfig(method="power", **cfg), x0).x
        cos = abs(float(xp @ xw)) / (np.linalg.norm(xp) * np.linalg.norm(xw))
        assert cos >= 1.0 - 1e-10, k


def test_pmd_default_preconditioner_is_exact_metric():
    pair = rand_pair(10, 81)
    trace = run_pmd(pair, SolverConfig(method="pmd", tol=1e-3,
                                       max_iterations=50),
                    x0=np.ones(10))
    assert trace.diagnostics["transformed_bound"] == 1.0


def test_pmd_explicit_precond_overrides_config():
    pair = MatrixPair(SymmetricMatrix.from_dense(np.diag([2.0, 1.0])),
                      SymmetricMatrix.from_dense(np.diag([3.0, 1.0])))
    cfg = SolverConfig(method="pmd", tol=1e-3, max_iterations=10,
                       preconditioner=build_preconditioner(pair.b, "identity"))
    with_override = run_pmd(pair, cfg, build_preconditioner(pair.b, "cholesky"),
                            np.ones(2))
    assert with_override.diagnostics["transformed_bound"] == 1.0
    without = run_pmd(pair, cfg, x0=np.ones(2))
    assert without.diagnostics["transformed_bound"] > 2.0


def spectrum_pair(n, seed, values):
    """Pair whose generalized eigenvalues are exactly the given values."""
    b = rand_spd(n, seed, cond=10.0)
    l = np.linalg.cholesky(b)
    rng = np.random.default_rng(3000 + seed)
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = l @ (w * np.asarray(values)) @ w.T @ l.T
    return MatrixPair(SymmetricMatrix.from_dense(0.5 * (a + a.T)),
                      SymmetricMatrix.from_dense(b))


def test_pmd_stepsize_tradeoff_by_gap():
    """With the exact metric, alpha = 1/2 is the power method, whose rate is
    the top eigenvalue ratio. A larger step multiplies mode i by
    1 - 2 alpha (1 - lambda_i / lambda_1): it speeds up the top modes, but
    the bottom of the spectrum floors its rate at
    |1 - 2 alpha (1 - lambda_n / lambda_1)|, so it wins
    when the top of the spectrum is clustered and loses when the gap is
    wide."""
    n = 64
    chol_runs = {}
    for label, values in (("clustered", np.linspace(0.2, 1.0, n)),
                          ("gapped", np.concatenate([np.linspace(0.05, 0.5, n - 1),
                                                     [1.0]]))):
        pair = spectrum_pair(n, 82, values)
        u_ref = top_vector(pair)
        rng = np.random.default_rng(83)
        x0 = rng.standard_normal(n)
        chol = build_preconditioner(pair.b, "cholesky")
        iters = {}
        for alpha in (0.5, 0.95):
            trace = run_pmd(pair, SolverConfig(method="pmd", stepsize=alpha,
                                               tol=1e-5, reference=u_ref,
                                               max_iterations=100000),
                            chol, x0)
            assert trace.converged
            iters[alpha] = trace.iterations
        chol_runs[label] = iters
    assert chol_runs["clustered"][0.95] < chol_runs["clustered"][0.5]
    assert chol_runs["gapped"][0.5] < chol_runs["gapped"][0.95]


def test_pmd_f_monotone():
    for trial in range(6):
        pair = rand_pair(12, 2700 + trial)
        rng = np.random.default_rng(2800 + trial)
        trace = run_pmd(pair, SolverConfig(method="pmd", tol=1e-6, seed=trial,
                                           max_iterations=3000),
                        x0=rng.standard_normal(12))
        f_values = [r.f for r in trace.records]
        for a, b in zip(f_values, f_values[1:]):
            assert b <= a + 1e-12 * abs(a)


def test_pmd_counts_solves():
    pair = rand_pair(8, 84)
    trace = run_pmd(pair, SolverConfig(method="pmd", tol=1e-14,
                                       max_iterations=9),
                    x0=np.ones(8))
    # one gram solve per step taken, two matvecs per recorded iteration
    assert trace.counters.matvecs == 2 * len(trace.records)
    assert trace.counters.solves == trace.iterations


# ---------------------------------------------------------------------------
# Power iteration


def test_power_single_step_direction():
    pair = diag_pair([3.0, 1.0], [1.0, 1.0])
    x0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    trace = run_power(pair, SolverConfig(method="power", tol=1e-300,
                                         max_iterations=1), x0)
    want = np.array([3.0, 1.0]) / math.sqrt(10.0)
    npt.assert_allclose(trace.x, want, rtol=0, atol=1e-14)


def test_power_scaling_identity():
    """Doubling B while halving A leaves the direction sequence unchanged."""
    a = rand_spd(10, 85)
    rng = np.random.default_rng(86)
    x0 = rng.standard_normal(10)
    pair1 = MatrixPair(SymmetricMatrix.from_dense(a),
                       SymmetricMatrix.from_dense(np.eye(10)))
    pair2 = MatrixPair(SymmetricMatrix.from_dense(a / 2.0),
                       SymmetricMatrix.from_dense(2.0 * np.eye(10)))
    cfg = dict(method="power", tol=1e-300, max_iterations=6)
    x1 = run_power(pair1, SolverConfig(**cfg), x0).x
    x2 = run_power(pair2, SolverConfig(**cfg), x0).x
    npt.assert_allclose(x1, x2, rtol=0, atol=1e-13)


def test_power_converges_to_reference():
    pair = rand_pair(30, 87)
    u_ref = top_vector(pair)
    rng = np.random.default_rng(88)
    trace = run_power(pair, SolverConfig(method="power", tol=1e-5,
                                         reference=u_ref),
                      rng.standard_normal(30))
    assert trace.converged
    assert trace.records[-1].sin_theta <= 1e-5


def test_power_iterations_track_gap():
    """A thinner eigenvalue gap needs more iterations."""
    n = 12
    wide = diag_pair([1.0] + [0.5] * (n - 1), [1.0] * n)
    thin = diag_pair([1.0] + [0.95] * (n - 1), [1.0] * n)
    rng = np.random.default_rng(89)
    x0 = rng.standard_normal(n)
    e1 = np.eye(n)[:, 0]
    runs = {}
    for name, pair in (("wide", wide), ("thin", thin)):
        trace = run_power(pair, SolverConfig(method="power", tol=1e-5,
                                             reference=e1), x0)
        assert trace.converged
        runs[name] = trace.iterations
    assert runs["thin"] > runs["wide"]


def test_power_cost_per_iteration():
    """One A-matvec plus one B-solve per step; the trace quotient rides on
    solve byproducts instead of extra matvecs."""
    pair = rand_pair(16, 90)
    u_ref = top_vector(pair)
    trace = run_power(pair, SolverConfig(method="power", tol=1e-5,
                                         reference=u_ref),
                      np.ones(16))
    assert trace.converged
    k = trace.iterations
    assert trace.counters.solves == k
    assert trace.counters.matvecs == k + 1
    assert trace.diagnostics["setup_matvecs"] == 1


def test_power_reference_free_costs_one_matvec_per_check():
    pair = rand_pair(16, 91)
    trace = run_power(pair, SolverConfig(method="power", tol=1e-5),
                      np.ones(16))
    assert trace.converged
    k = trace.iterations
    assert trace.counters.solves == k
    assert trace.counters.matvecs == 2 * (k + 1)


def test_power_lambda_records_match_reference():
    pair = rand_pair(18, 92)
    lam_ref = scipy.linalg.eigh(pair.a.dense(), pair.b.dense(),
                                eigvals_only=True)[-1]
    u_ref = top_vector(pair)
    rng = np.random.default_rng(93)
    trace = run_power(pair, SolverConfig(method="power", tol=1e-7,
                                         reference=u_ref),
                      rng.standard_normal(18))
    assert trace.converged
    assert abs(trace.final().lam - lam_ref) <= 1e-6 * lam_ref
    assert abs(trace.final().f - (-lam_ref / 4.0)) <= 1e-6 * lam_ref


def test_power_degenerate_start():
    pair = diag_pair([1.0, 0.0], [1.0, 1.0])
    trace = run_power(pair, SolverConfig(method="power"), np.array([0.0, 1.0]))
    assert trace.status == "degenerate"


@pytest.mark.parametrize("method", ["gd", "pmd", "power", "split-merge"])
def test_tiny_definite_pencil_is_not_degenerate(method):
    """On A = 1e-300 diag(linspace(1, 2, 32)) and B = 1e-300 I, x'Ax is below
    1e-30 x'x but not negligible against ||Ax|| ||x||: the runs converge to
    the top eigenvalue 2 against a reference (each ended degenerate at k = 0
    with lambda 0 when the absolute scale alone decided). Without one they
    still end degenerate at k = 0: the gradient ratio reads about 1e-151 at
    the start on this pencil, so it would stop at once with a wrong lambda."""
    pair = diag_pair(1e-300 * np.linspace(1.0, 2.0, 32), np.full(32, 1e-300))
    reference = np.eye(pair.n)[-1]
    trace = solve(pair, SolverConfig(method=method, tol=1e-8, reference=reference),
                  np.ones(pair.n))
    assert trace.status == "converged"
    assert trace.final().lam == pytest.approx(2.0, rel=1e-8)
    trace = solve(pair, SolverConfig(method=method, tol=1e-8), np.ones(pair.n))
    assert trace.status == "degenerate"
    assert len(trace.records) == 1


# ---------------------------------------------------------------------------
# Trace export


def test_trace_csv_format(tmp_path):
    pair = rand_pair(10, 94)
    u_ref = top_vector(pair)
    trace = run_gd(pair, SolverConfig(method="gd", tol=1e-4, reference=u_ref,
                                      max_iterations=5000),
                   np.ones(10))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[0] == "k,f,lambda,sin_theta,matvecs,solves,elapsed_ns"
    assert len(lines) == len(trace.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace.records[0].f
    assert float(first[3]) == trace.records[0].sin_theta
    assert int(first[4]) == trace.records[0].matvecs
    last = lines[-1].split(",")
    assert int(last[0]) == trace.iterations


def test_trace_csv_nan_without_reference(tmp_path):
    pair = rand_pair(8, 95)
    trace = run_gd(pair, SolverConfig(method="gd", tol=1e-3,
                                      max_iterations=2000),
                   np.ones(8))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "nan"


# ---------------------------------------------------------------------------
# Observed rate


@pytest.mark.parametrize("n, seed", [(128, 1), (256, 0)])
def test_observed_rate_matches_the_gap(n, seed):
    # power contracts at lambda_2/lambda_1 per step; split-merge's tail is
    # all double power steps, so it contracts at the square
    pair = gen_synthetic(SyntheticSpec(n=n, kappa_b=10.0, seed=seed))
    vals = scipy.linalg.eigh(pair.a.dense(), pair.b.dense(), eigvals_only=True)
    gap = vals[-2] / vals[-1]
    ref = reference_solution(pair).u
    x0 = np.random.default_rng(0).standard_normal(n)
    for method, want in (("power", gap), ("split-merge", gap * gap)):
        trace = solve(pair, SolverConfig(method=method, tol=1e-10, reference=ref), x0)
        assert trace.converged
        assert abs(trace.diagnostics["observed_rate"] - want) <= 1e-3, method


def test_observed_rate_needs_four_records():
    pair = diag_pair([4.0, 1.0], [1.0, 2.0])
    ref = np.array([1.0, 0.0])
    for method in METHODS:
        at_top = solve(pair, SolverConfig(method=method, tol=1e-5, reference=ref), ref)
        assert at_top.diagnostics["observed_rate"] is None, method
    capped = run_power(pair, SolverConfig(method="power", tol=1e-300, max_iterations=2),
                       np.array([1.0, 1.0]))
    assert len(capped.records) == 3
    assert capped.diagnostics["observed_rate"] is None
    longer = run_power(pair, SolverConfig(method="power", tol=1e-300, max_iterations=3),
                       np.array([1.0, 1.0]))
    assert 0.0 < longer.diagnostics["observed_rate"] < 1.0


def test_observed_rate_is_per_build_for_lanczos():
    pair = rand_pair(40, 5)
    trace = solve(pair, SolverConfig(method="lanczos", tol=1e-12, lanczos_cycle=3),
                  np.ones(40))
    ks = [r.k for r in trace.records]
    mid = len(ks) // 2
    assert len(ks) >= 4
    want = (trace.criterion_values[-1] / trace.criterion_values[mid]) ** (1.0 / (ks[-1] - ks[mid]))
    assert trace.diagnostics["observed_rate"] == want

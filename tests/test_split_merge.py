"""Split-Merge step and runner against brute-force dense evaluators.

The oracles here recompute every coefficient from explicit dense inverses
and share no code path with the implementation beyond numpy itself.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies
from scipy.linalg.blas import ddot

from gepsolve import (
    CholeskyFactor,
    Counters,
    LinearSolver,
    MatrixPair,
    SolverConfig,
    SymmetricMatrix,
    SyntheticSpec,
    build_preconditioner,
    gen_synthetic,
    reference_solution,
    run_power,
    run_split_merge,
    solve,
    split_merge_step,
)
from gepsolve.errors import DegenerateDirection, InputError, NumericalError


def rand_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(1.0 / cond, 1.0, n)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def make_pair(n, seed, cond_a=50.0, cond_b=10.0):
    a = SymmetricMatrix.from_dense(rand_spd(n, seed, cond_a))
    b = SymmetricMatrix.from_dense(rand_spd(n, seed + 1, cond_b))
    return MatrixPair(a, b)


def diag_pair(avals, bvals):
    return MatrixPair(SymmetricMatrix.from_dense(np.diag(avals)),
                      SymmetricMatrix.from_dense(np.diag(bvals)))


def top_vector(pair):
    _, vecs = scipy.linalg.eigh(pair.a.dense(), pair.b.dense())
    return vecs[:, -1]


def dense_step(a, b, x, rho):
    """Brute-force step evaluation from the defining scalars.

    Forms the inverse of b explicitly and evaluates the two combination
    weights from their definitions, with no shared intermediate vectors.
    Only valid away from the degenerate second-direction case.
    """
    binv = np.linalg.inv(b)
    g = a @ x
    quad_a = float(x @ g)
    w = binv @ g
    t = binv @ (a @ w)
    quad_ab = float(g @ w)
    quad_aba = float(g @ t)
    z = (a @ w) - (quad_ab / quad_a) * g
    gram = float(z @ binv @ z)
    delta = quad_aba - quad_ab ** 2 / quad_a
    margin = 1.0 - gram / (2.0 * rho * math.sqrt(quad_a) * delta)
    second = 1.0 / (4.0 * margin * rho * quad_a)
    first = 1.0 / (2.0 * math.sqrt(quad_a)) - second * quad_ab / quad_a
    return first * w + second * t, margin, delta


def ep_step(atil, y, rho):
    """Identity-metric form of the step, driven by powers of one matrix.

    Mirrors the degenerate-direction fallback (the double power step
    A^2 y / (2 sqrt(qa) ratio)) and the rho-doubling policy so whole
    trajectories stay comparable, not just single clean steps.
    """
    ay = atil @ y
    a2y = atil @ ay
    qa = float(y @ ay)
    q2 = float(y @ a2y)
    q3 = float(ay @ a2y)
    ratio = q2 / qa
    delta = q3 - q2 * ratio
    if delta <= 1e-14 * q2 * ratio:
        return a2y / (2.0 * math.sqrt(qa) * ratio)
    resid = a2y - ratio * ay
    gram = float(resid @ resid)
    rho_k = rho
    for _ in range(31):
        margin = 1.0 - gram / (2.0 * rho_k * math.sqrt(qa) * delta)
        if margin > 0.0:
            break
        rho_k *= 2.0
    second = 1.0 / (4.0 * margin * rho_k * qa)
    first = 1.0 / (2.0 * math.sqrt(qa)) - second * ratio
    return first * ay + second * a2y


def transformed_directions(pair, x0, rho, steps):
    """Iterate ep_step on the exact-metric transform of the pair.

    The transformed matrix is formed densely, the trajectory follows the
    same scale policy as the runner (unit direction, step from the ray
    minimiser), and each direction is mapped back through the inverse
    transform for comparison in the original coordinates.
    """
    p = build_preconditioner(pair.b, "cholesky")
    eye = np.eye(pair.n)
    l_inv = np.column_stack([p.apply_inverse_t(eye[:, j]) for j in range(pair.n)])
    atil = l_inv @ pair.a.dense() @ l_inv.T
    atil = 0.5 * (atil + atil.T)
    y = p.apply(np.asarray(x0, dtype=np.float64))
    y /= np.linalg.norm(y)
    out = []
    for _ in range(steps):
        qa = float(y @ (atil @ y))
        scale = math.sqrt(qa) / (2.0 * float(y @ y))
        y_next = ep_step(atil, scale * y, rho)
        y = y_next / np.linalg.norm(y_next)
        out.append(p.apply_inverse(y))
    return out


def direction_gap(u, v):
    """Euclidean distance between unit directions, minimized over sign."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return min(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


# ---------------------------------------------------------------------------
# Single steps against the dense evaluator


def test_step_matches_dense_formulas():
    # 500 independent states across orders 2..8 and two rho values.
    rng = np.random.default_rng(411)
    checked = 0
    fallbacks = 0
    while checked < 500:
        n = int(rng.integers(2, 9))
        seed = int(rng.integers(0, 2 ** 31))
        a = rand_spd(n, seed, cond=float(rng.uniform(2.0, 50.0)))
        b = rand_spd(n, seed + 7, cond=float(rng.uniform(2.0, 20.0)))
        pair = MatrixPair(SymmetricMatrix.from_dense(a),
                          SymmetricMatrix.from_dense(b))
        x = rng.standard_normal(n)
        rho = float(rng.choice([1.0, 4.0]))
        got, st = split_merge_step(pair, x, rho, LinearSolver.exact(pair.b))
        if st.fallback:
            fallbacks += 1
            continue
        want, margin, delta = dense_step(a, b, x, st.rho_used)
        npt.assert_allclose(got, want, rtol=1e-12,
                            atol=1e-12 * float(np.linalg.norm(want)))
        npt.assert_allclose(st.pd_margin, margin, rtol=1e-9)
        npt.assert_allclose(st.resid_energy, delta, rtol=1e-9)
        assert st.pd_margin > 0.0
        assert st.resid_energy > 0.0
        checked += 1
    assert fallbacks == 0


def test_step_two_by_two_unit_state():
    rng = np.random.default_rng(77)
    for _ in range(20):
        a = rand_spd(2, int(rng.integers(0, 10 ** 6)), cond=8.0)
        b = rand_spd(2, int(rng.integers(0, 10 ** 6)), cond=4.0)
        pair = MatrixPair(SymmetricMatrix.from_dense(a),
                          SymmetricMatrix.from_dense(b))
        x = np.array([1.0, 1.0])
        got, st = split_merge_step(pair, x, 1.0, LinearSolver.exact(pair.b))
        assert not st.fallback
        want, _, _ = dense_step(a, b, x, st.rho_used)
        npt.assert_allclose(got, want, rtol=1e-12)


def test_step_cost_two_solves_two_matvecs():
    pair = make_pair(6, 3)
    solver = LinearSolver.exact(pair.b)
    counters = Counters()
    x = np.linspace(1.0, 2.0, 6)
    split_merge_step(pair, x, 1.0, solver, counters)
    assert counters.matvecs == 2
    assert counters.solves == 2


def test_step_precomputed_product_saves_one_matvec():
    pair = make_pair(6, 3)
    solver = LinearSolver.exact(pair.b)
    x = np.linspace(1.0, 2.0, 6)
    ax = pair.a.matvec(x)
    counters = Counters()
    with_ax, _ = split_merge_step(pair, x, 1.0, solver, counters, ax=ax)
    assert counters.matvecs == 1
    assert counters.solves == 2
    plain, _ = split_merge_step(pair, x, 1.0, solver)
    npt.assert_array_equal(with_ax, plain)


def test_step_eigenvector_fixed_point():
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    x = np.array([1.0, 0.0])
    x_next, st = split_merge_step(pair, x, 1.0, LinearSolver.exact(pair.b))
    assert st.fallback
    assert st.w_second == 0.0
    npt.assert_array_equal(x_next, np.array([1.0, 0.0]))


def test_step_near_eigenvector_threshold():
    # The second direction carries energy ~ eps^2, so a 1e-9 perturbation
    # is treated as degenerate while 1e-4 still takes the genuine step.
    pair = diag_pair([4.0, 1.0], [1.0, 1.0])
    solver = LinearSolver.exact(pair.b)
    _, st_tiny = split_merge_step(pair, np.array([1.0, 1e-9]), 1.0, solver)
    assert st_tiny.fallback
    _, st_real = split_merge_step(pair, np.array([1.0, 1e-4]), 1.0, solver)
    assert not st_real.fallback
    assert st_real.pd_margin > 0.0


def test_fallback_step_is_the_scaled_double_power_step():
    # Near the top eigenvector the second direction carries no new energy;
    # the step returns the t = B^{-1}AB^{-1}Ax it solved for, scaled by
    # 1 / (2 sqrt(a) r) with r = b/a, and B x+ from h = B t.
    pair = make_pair(8, 21)
    x = top_vector(pair) + 1e-9 * np.random.default_rng(4).standard_normal(8)
    x_next, st = split_merge_step(pair, x, 1.0, LinearSolver.exact(pair.b))
    assert st.fallback
    assert st.w_second == 0.0
    quad_a = ddot(x, st.ax)
    scale = 1.0 / (2.0 * math.sqrt(quad_a) * (ddot(st.ax, st.w) / quad_a))
    npt.assert_array_equal(x_next, st.t * scale)
    npt.assert_array_equal(st.b_next, st.h * scale)
    binv_a = np.linalg.solve(pair.b.dense(), pair.a.dense())
    assert direction_gap(x_next, binv_a @ (binv_a @ x)) <= 1e-12


def test_step_identity_metric_reduction():
    # With b the identity the step must reproduce the one-matrix form.
    rng = np.random.default_rng(52)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rand_spd(n, int(rng.integers(0, 2 ** 31)), cond=12.0)
        pair = MatrixPair(SymmetricMatrix.from_dense(a),
                          SymmetricMatrix.from_dense(np.eye(n)))
        x = rng.standard_normal(n)
        got, st = split_merge_step(pair, x, 1.0, LinearSolver.exact(pair.b))
        want = ep_step(a, x, 1.0)
        npt.assert_allclose(got, want, rtol=1e-12,
                            atol=1e-12 * float(np.linalg.norm(want)))


def test_step_tiny_scale_doubles_rho_to_the_first_positive_margin():
    # A vanishing iterate scale drives the margin ratio to ~1e20; rho doubles
    # (65 times here) until the margin is positive, and no sooner.
    pair = make_pair(6, 9, cond_a=10.0, cond_b=5.0)
    a, b = pair.a.dense(), pair.b.dense()
    x = 1e-20 * np.linspace(1.0, 2.0, 6)
    got, st = split_merge_step(pair, x, 1.0, LinearSolver.exact(pair.b))
    assert not st.fallback
    assert st.rho_used == 2.0 ** st.doublings
    want, margin, _ = dense_step(a, b, x, st.rho_used)
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * float(np.linalg.norm(want)))
    npt.assert_allclose(st.pd_margin, margin, rtol=1e-9)
    margins = [dense_step(a, b, x, 2.0 ** j)[1] for j in range(st.doublings + 1)]
    assert all(m <= 0.0 for m in margins[:-1])
    assert margins[-1] > 0.0


def test_step_with_an_overflowing_second_solve_raises():
    # B^{-1}AB^{-1}Ax overflows, so the margin is NaN and no rho repairs it.
    pair = MatrixPair(SymmetricMatrix.from_dense(1e-20 * rand_spd(6, 9, 10.0)),
                      SymmetricMatrix.from_dense(1e-180 * rand_spd(6, 10, 5.0)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="margin"):
        split_merge_step(pair, np.linspace(1.0, 2.0, 6), 1.0, LinearSolver.exact(pair.b))


@pytest.mark.parametrize("seed", [6, 10, 37])
def test_fallback_step_from_overflowed_solves_raises(seed):
    # w = B^{-1}Ax is near 1e160, so d'(Ad) is -inf and passes the fallback
    # test, while t = B^{-1}AB^{-1}Ax overflows: the step would be inf.
    p = gen_synthetic(SyntheticSpec(n=6, kappa_b=5.0, kappa_a=10.0, seed=seed))
    pair = MatrixPair(SymmetricMatrix.from_dense(1e-10 * p.a.dense()),
                      SymmetricMatrix.from_dense(1e-170 * p.b.dense()))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="double power step has norm inf"):
        split_merge_step(pair, np.linspace(1.0, 2.0, 6), 1.0, LinearSolver.exact(pair.b))


def test_run_whose_step_overflows_raises():
    # At lambda ~ 1e120, g'w overflows: the step's energy is inf and its
    # double power step is scaled to zero, which the run must not divide by.
    pair = diag_pair(1e120 * np.array([2.0, 1.0, 0.5]), [1.0, 1.0, 1.0])
    config = SolverConfig(method="split-merge", tol=1e-10, reference=np.array([1.0, 0.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="step has norm 0.0"):
        solve(pair, config, np.ones(3))


@pytest.mark.parametrize("kappa_b", [1e10, 1e12])
def test_run_on_an_ill_conditioned_b_needs_no_rho_cap(kappa_b):
    # The first step needs rho >= 4.7e9 at kappa_B = 1e10: 33 doublings, 39 at
    # 1e12, where a cap of 30 raised NumericalError and power converged.
    pair = gen_synthetic(SyntheticSpec(n=256, kappa_b=kappa_b, seed=0))
    ref = reference_solution(pair)
    for seed in range(3):
        x0 = np.random.default_rng(seed).standard_normal(pair.n)
        trace = solve(pair, SolverConfig(method="split-merge", tol=1e-8, reference=ref.u), x0)
        assert trace.converged
        assert trace.diagnostics["rho_escalations"] >= 31
        assert abs(trace.final().lam - ref.lam) <= 1e-6 * ref.lam


def test_counts_hold_when_the_exact_solve_route_changes(monkeypatch):
    # The fallback test reads d'(Ad), which has no cancelling terms, so a
    # last-bit change in every B-solve moves no count; with g't - (g'w)^2/a
    # 13 of these 24 counts moved.
    def counts():
        out = []
        for seed in range(3):
            pair = gen_synthetic(SyntheticSpec(n=256, kappa_b=10.0, seed=seed))
            ref = reference_solution(pair)
            for start in range(8):
                x0 = np.random.default_rng(start).standard_normal(pair.n)
                config = SolverConfig(method="split-merge", tol=1e-7, reference=ref.u)
                trace = solve(pair, config, x0)
                out.append((trace.status, trace.iterations, trace.diagnostics["fallback_steps"]))
        return out

    dsymv_route = counts()
    monkeypatch.setattr(CholeskyFactor, "solve",
                        lambda self, b: self.solve_upper(self.solve_lower(b)))
    assert counts() == dsymv_route


@pytest.mark.parametrize("rho", [math.nan, 0.5])
def test_step_rejects_rho_below_one_before_any_product(rho):
    # unchecked, a NaN rho makes a NaN margin, which raises NumericalError
    pair = gen_synthetic(SyntheticSpec(n=8, kappa_b=5.0, seed=0))
    counters = Counters()
    with pytest.raises(InputError, match="rho must be at least 1"):
        split_merge_step(pair, np.ones(pair.n), rho, LinearSolver.exact(pair.b), counters)
    assert (counters.matvecs, counters.solves) == (0, 0)


def test_step_degenerate_direction_raises():
    pair = diag_pair([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DegenerateDirection):
        split_merge_step(pair, np.array([1.0, 0.0]), 1.0,
                         LinearSolver.exact(pair.b))


def test_step_state_vector_bookkeeping():
    # The state must carry consistent solve products: b w = ax, b t = h,
    # and b_next must be the metric image of the returned iterate.
    pair = make_pair(8, 21)
    x = np.random.default_rng(4).standard_normal(8)
    x_next, st = split_merge_step(pair, x, 1.0, LinearSolver.exact(pair.b))
    npt.assert_allclose(pair.b.matvec(st.w), st.ax, rtol=0,
                        atol=1e-10 * float(np.linalg.norm(st.ax)))
    npt.assert_allclose(pair.b.matvec(st.t), st.h, rtol=0,
                        atol=1e-10 * float(np.linalg.norm(st.h)))
    npt.assert_allclose(pair.b.matvec(x_next), st.b_next, rtol=0,
                        atol=1e-10 * float(np.linalg.norm(st.b_next)))


# ---------------------------------------------------------------------------
# Full runs


def test_run_transform_domain_equivalence():
    # The run on (a, b) must match the identity-metric trajectory on the
    # densely formed transformed matrix, mapped back through the inverse
    # transform, for every iterate of a converged run.
    pair = make_pair(24, 77, cond_a=60.0, cond_b=12.0)
    x0 = np.random.default_rng(77).standard_normal(24)
    ref = top_vector(pair)
    full = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-6,
                                              rho=2.0, reference=ref,
                                              max_iterations=200), x0)
    assert full.status == "converged"
    steps = full.iterations
    assert steps >= 4
    dirs = transformed_directions(pair, x0, 2.0, steps)
    for k in range(1, steps + 1):
        capped = run_split_merge(pair, SolverConfig(method="split-merge",
                                                    tol=1e-300, rho=2.0,
                                                    max_iterations=k), x0)
        assert direction_gap(capped.x, dirs[k - 1]) <= 1e-8


def test_run_diagonal_example_beats_power():
    pair = diag_pair([4.0, 1.0], [1.0, 2.0])
    ref = np.array([1.0, 0.0])
    x0 = np.array([1.0, 1.0])
    sm = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-8,
                                            reference=ref, max_iterations=200), x0)
    pw = run_power(pair, SolverConfig(method="power", tol=1e-8, reference=ref,
                                      max_iterations=200), x0)
    assert sm.status == "converged"
    assert pw.status == "converged"
    assert sm.iterations < pw.iterations


def test_run_from_top_eigenvector_converges_immediately():
    pair = diag_pair([4.0, 1.0], [1.0, 2.0])
    trace = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-5,
                                               reference=np.array([1.0, 0.0]),
                                               max_iterations=50),
                            np.array([1.0, 0.0]))
    assert trace.status == "converged"
    assert trace.iterations == 0
    assert len(trace.records) == 1
    assert trace.diagnostics["fallback_steps"] == 0
    assert trace.counters.solves == 0
    assert trace.counters.matvecs == 1


def test_run_counters_reference_mode():
    pair = diag_pair([4.0, 1.0], [1.0, 2.0])
    trace = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-8,
                                               reference=np.array([1.0, 0.0]),
                                               max_iterations=200),
                            np.array([1.0, 1.0]))
    k = trace.iterations
    assert trace.status == "converged"
    assert len(trace.records) == k + 1
    assert trace.counters.matvecs == 2 * k + 1
    assert trace.counters.solves == 2 * k
    assert trace.diagnostics["setup_matvecs"] == 1


def test_run_counters_reference_free():
    pair = make_pair(12, 31)
    trace = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-8,
                                               max_iterations=300),
                            np.random.default_rng(1).standard_normal(12))
    k = trace.iterations
    assert trace.status == "converged"
    assert trace.criterion == "gradient"
    assert trace.counters.matvecs == 3 * k + 2
    assert trace.counters.solves == 2 * k
    assert all(math.isnan(r.sin_theta) for r in trace.records)


def test_run_objective_monotone():
    # Recorded objective values never increase, even on runs that needed a
    # rho escalation or a degenerate-step fallback along the way.
    for seed in range(4):
        pair = make_pair(20, 300 + seed)
        trace = run_split_merge(pair, SolverConfig(method="split-merge",
                                                   tol=1e-10, rho=2.0,
                                                   max_iterations=300),
                                np.random.default_rng(seed).standard_normal(20))
        assert trace.status == "converged"
        fs = [r.f for r in trace.records]
        for prev, nxt in zip(fs, fs[1:]):
            assert nxt <= prev + 1e-12 * abs(prev)


def test_run_rho_escalation_recovers():
    # rho = 1 is too small for this conditioning; the runner must escalate
    # within iterations, still converge, and leave the config untouched.
    pair = make_pair(32, 102, cond_a=100.0, cond_b=100.0)
    ref = top_vector(pair)
    lam_ref = float(ref @ pair.a.dense() @ ref) / float(ref @ pair.b.dense() @ ref)
    config = SolverConfig(method="split-merge", tol=1e-8, rho=1.0,
                          reference=ref, max_iterations=500)
    trace = run_split_merge(pair, config,
                            np.random.default_rng(2).standard_normal(32))
    assert trace.status == "converged"
    assert trace.diagnostics["rho_escalations"] >= 1
    assert config.rho == 1.0
    assert abs(trace.final().lam - lam_ref) <= 1e-6 * lam_ref
    assert abs(trace.final().f - (-lam_ref / 4.0)) <= 1e-6 * lam_ref


def test_run_fallback_tally_near_convergence():
    # An unreachable tolerance parks the iterate on the eigenvector, where
    # every further step falls back to the double power step; the tally
    # must count those steps and the direction must stay put.
    pair = diag_pair([4.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    trace = run_split_merge(pair, SolverConfig(method="split-merge",
                                               tol=1e-300, rho=1.0,
                                               max_iterations=60),
                            np.array([1.0, 1.0, 1.0]))
    assert trace.status == "max-iterations"
    assert trace.diagnostics["fallback_steps"] >= 1
    assert direction_gap(trace.x, np.array([1.0, 0.0, 0.0])) <= 1e-12


def test_run_fallback_steps_cost_no_more_than_power():
    # The tail of a tight run is all fallback steps; each one is a double
    # power step, so split-merge needs fewer B-solves than power. With a
    # single power step per fallback this run took 220 solves to power's 225.
    pair = gen_synthetic(SyntheticSpec(n=128, kappa_b=10.0, seed=1))
    ref = reference_solution(pair)
    x0 = np.random.default_rng(0).standard_normal(128)
    sm = solve(pair, SolverConfig(method="split-merge", tol=1e-10, reference=ref.u), x0)
    pw = solve(pair, SolverConfig(method="power", tol=1e-10, reference=ref.u), x0)
    assert sm.converged and pw.converged
    assert sm.diagnostics["fallback_steps"] >= 1
    assert sm.counters.solves <= 150
    assert sm.counters.solves < pw.counters.solves
    assert abs(sm.final().lam - ref.lam) <= 1e-12 * ref.lam


def spectral_pair(n, seed, spread):
    """Pencil whose B^{-1}A has eigenvalue 1 on top and the rest drawn from
    [0.01, spread]: A = L Q diag(lam) Q' L' for B = L L'."""
    rng = np.random.default_rng(seed)
    b = rand_spd(n, int(rng.integers(0, 2 ** 31)), cond=float(rng.uniform(1.0, 10.0)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.append(rng.uniform(0.01, spread, n - 1), 1.0)
    low = np.linalg.cholesky(b)
    a = low @ ((q * lam) @ q.T) @ low.T
    pair = MatrixPair(SymmetricMatrix.from_dense(0.5 * (a + a.T)), SymmetricMatrix.from_dense(b))
    return pair, rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(n=strategies.integers(2, 12), seed=strategies.integers(0, 2 ** 31 - 1),
       spread=strategies.floats(0.05, 0.7))
def test_objective_never_rises_along_power_and_split_merge(n, seed, spread):
    # f = -q/4 is nonincreasing along both runs, fallback steps included;
    # the tol 1e-300 run is capped at 60 steps and must reach the fallback.
    # The runner promises monotone f only outside rho escalations, which
    # assume() rules out; rho = 4 keeps them rare, where at rho = 1 most
    # random pencils escalate on an early step.
    pair, x0 = spectral_pair(n, seed, spread)
    runs = (("power", 1e-10, 1000), ("split-merge", 1e-10, 1000), ("split-merge", 1e-300, 60))
    for method, tol, cap in runs:
        trace = solve(pair, SolverConfig(method=method, tol=tol, max_iterations=cap, rho=4.0), x0)
        assume(trace.diagnostics.get("rho_escalations", 0) == 0)
        fs = [r.f for r in trace.records]
        for prev, nxt in zip(fs, fs[1:]):
            assert nxt <= prev + 1e-12 * abs(prev), (method, tol)
        if tol == 1e-300:
            assert trace.diagnostics["fallback_steps"] >= 1


def test_run_pcg_backend():
    pair = make_pair(36, 55, cond_a=20.0, cond_b=8.0)
    ref = top_vector(pair)
    solver = LinearSolver.pcg(pair.b, cap=60, tol=1e-12, inner="jacobi")
    trace = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-5,
                                               reference=ref, max_iterations=300,
                                               linear_solver=solver),
                            np.random.default_rng(8).standard_normal(36))
    assert trace.status == "converged"
    assert trace.records[-1].sin_theta <= 1e-5
    assert trace.counters.pcg_inner > 0
    assert trace.counters.solves == 2 * trace.iterations
    assert trace.diagnostics["solver_mode"] == "pcg"


def test_run_full_success_rate_at_scale():
    # One hard synthetic instance, one hundred starts: every run converges.
    from gepsolve import SyntheticSpec, gen_synthetic

    pair = gen_synthetic(SyntheticSpec(n=256, kappa_b=100.0, seed=12))
    ref = top_vector(pair)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        trace = run_split_merge(pair, SolverConfig(method="split-merge",
                                                   tol=1e-5, reference=ref,
                                                   max_iterations=100000),
                                rng.standard_normal(256))
        assert trace.status == "converged"


def test_run_deterministic():
    pair = make_pair(16, 61)
    x0 = np.random.default_rng(6).standard_normal(16)
    config = SolverConfig(method="split-merge", tol=1e-8, max_iterations=300)
    first = run_split_merge(pair, config, x0)
    second = run_split_merge(pair, config, x0)
    assert [r.f for r in first.records] == [r.f for r in second.records]
    assert [r.lam for r in first.records] == [r.lam for r in second.records]
    npt.assert_array_equal(first.x, second.x)


def test_run_degenerate_direction_status():
    pair = diag_pair([0.0, 1.0], [1.0, 1.0])
    trace = run_split_merge(pair, SolverConfig(method="split-merge", tol=1e-5,
                                               max_iterations=50),
                            np.array([1.0, 0.0]))
    assert trace.status == "degenerate"

"""Kernel probes: back-to-back calls of one kernel on a workload's operands.

Spans only reach the benchmark's own calls into gepsolve, so the time a
runner spends inside its products and solves is measured here instead and
priced against the trace counters.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from gepsolve import (Counters, apply_gram_inverse, deflate, jacobi_eigh,
                      solve_spd, transformed_dominant_eigenvalue)

import pencils


def per_call_us(clock, fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of ``calls`` back-to-back calls,
    in reference microseconds."""
    windows = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        windows.append((t0, time.perf_counter_ns()))
    clock.calibrate()  # the windows end before the timer's next calibration
    return float(statistics.median(clock.ns(*w) / calls / 1e3 for w in windows))


def lanczos_tridiagonal(m: int = 20) -> np.ndarray:
    """A 20 x 20 tridiagonal of the shape a Lanczos cycle builds: the Ritz
    step of run_lanczos diagonalizes one per cycle."""
    g = pencils.rng(pencils.FIXED, 5)
    alphas = np.sort(g.uniform(0.5, 1.5, m))[::-1]
    betas = g.uniform(0.05, 0.3, m - 1)
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def kernels(clock, workload, ops, vecs) -> dict:
    """Per-call kernel times on the workload's operands.

    The deflated products nest the B-normalized eigenvector columns of
    ``vecs`` one to three deep, as stages 2 to 4 of top_k do."""
    pair, calls = ops.pair, workload.probe_calls

    def probe(fn, count, repeats=5):
        return per_call_us(clock, fn, count, repeats)

    x = pencils.rng(pencils.FIXED, 4).standard_normal(pair.n)
    out = {
        "linalg.matvec.A.us": probe(lambda: pair.a.matvec(x), calls["matvec"]),
        "linalg.matvec.B.us": probe(lambda: pair.b.matvec(x), calls["matvec"]),
    }
    counters = Counters()
    out["linalg.solve_spd.us"] = probe(
        lambda: solve_spd(ops.solver, pair.b, x, counters), calls["solve"])
    out["linalg.solve_spd.pcg_inner_per_solve"] = counters.pcg_inner / counters.solves
    out["linalg.CholeskyFactor.solve.us"] = probe(
        lambda: ops.precond.factor.solve(x), calls["factor"])
    out["precond.apply_gram_inverse.us"] = probe(
        lambda: apply_gram_inverse(ops.precond, x), calls["factor"])
    tri = lanczos_tridiagonal()
    out["linalg.jacobi_eigh.tri20.us"] = probe(lambda: jacobi_eigh(tri), 3, 3)
    out["precond.transformed_dominant_eigenvalue.ms"] = probe(
        lambda: transformed_dominant_eigenvalue(pair.b, ops.precond), 1, 1) / 1e3
    operand = pair.a
    for depth in range(1, 4):
        u = vecs[:, depth - 1]
        operand = deflate(operand, pair.b, u)
        out[f"deflation.DeflatedOperator.matvec.depth{depth}.us"] = probe(
            lambda op=operand: op.matvec(x), calls["matvec"])
    return out

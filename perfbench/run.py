"""Benchmark of gepsolve: one workload, one seed, one process.

    python3 perfbench/run.py --workload dense-loop --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Prints the environment, then every metric by name with
its unit and sample count, then the failed ops, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are the per-layer ones, and the spans go to perfbench/out/.
"""

import os

# BLAS threads are fixed before numpy loads; one thread keeps the timings
# of these small kernels steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 10
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_ms.gd": "ms", "solve_ms.pmd": "ms",
    "solve_ms.power": "ms", "solve_ms.split-merge": "ms", "solve_ms.lanczos": "ms",
    "topk_ms": "ms",
}


# gd makes no solves, and pmd's solves are preconditioner solves, not PCG:
# these counts read 0 on every workload, so they are not reported
NEVER_COUNTED = {("gd", "solves"), ("gd", "pcg_inner"), ("pmd", "pcg_inner")}


def per_layer_units() -> dict:
    units = {
        "linalg.matvec.A.us": "us", "linalg.matvec.B.us": "us",
        "linalg.solve_spd.us": "us", "linalg.solve_spd.pcg_inner_per_solve": "count",
        "linalg.CholeskyFactor.solve.us": "us", "linalg.jacobi_eigh.tri20.us": "us",
        "linalg.LinearSolver.ms": "ms", "precond.build_preconditioner.ms": "ms",
        "precond.transformed_dominant_eigenvalue.ms": "ms",
        "precond.apply_gram_inverse.us": "us",
        "objective.estimate_curvature_bound.ms": "ms",
    }
    for m in ("gd", "pmd", "power", "split-merge", "lanczos"):
        for k in ("iterations", "matvecs", "solves", "pcg_inner"):
            if (m, k) not in NEVER_COUNTED:
                units[f"solvers.{m}.{k}"] = "count"
        units[f"solvers.{m}.us_per_iter"] = "us"
        units[f"solvers.{m}.other_us_per_iter"] = "us"
    for s in range(1, 5):
        units[f"deflation.top_k.stage{s}.ms"] = "ms"
        units[f"deflation.top_k.stage{s}.matvecs"] = "count"
    for d in range(1, 4):
        units[f"deflation.DeflatedOperator.matvec.depth{d}.us"] = "us"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = per_layer_units()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting a repository around the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "commit": commit}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns the Run, the untraced and traced round
    windows and, in a traced run, the kernel probes.

    The machine this was tuned on changes speed by up to 2x within a run, so
    every time is converted by the run's clock (see ``clock``), which
    calibrates the speed of this thread every 25 ms. Every op is repeated
    once per round, and the set-ups are spread between the rounds."""
    import probes
    from clock import Clock
    from tracing import Tracer
    from workloads import Run

    run = Run(Tracer(trace), Clock())
    workload.prepare(seed, workdir)
    ops = workload.set_up(Tracer(False))  # the first, cold set-up is not a sample
    workload.warm_up(ops)

    def timed_set_up():
        gc.collect()
        t0 = time.perf_counter_ns()
        result = workload.set_up(run.tracer)
        run.setups.append((t0, time.perf_counter_ns()))
        return result

    rounds = {False: [], True: []}
    run.clock.start()
    try:
        for _ in range(SETUP_REPEATS - MIN_ROUNDS):
            ops = timed_set_up()
        # probes come before the rounds, so that they see the state the rounds see
        kernels = (probes.kernels(run.clock, workload, *workload.probe_operands(ops))
                   if trace else {})
        start = time.perf_counter()
        last = 0.0
        # a round starts only if one more like the last ends within the budget
        while len(run.rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
            t_round = time.perf_counter()
            ops = timed_set_up()
            # a traced run traces every second round, so both kinds are timed
            run.tracer.enabled = trace and len(run.rounds) % 2 == 1
            run.new_round()
            gc.collect()
            t0 = time.perf_counter_ns()
            workload.round(ops, run)
            rounds[run.tracer.enabled].append((t0, time.perf_counter_ns()))
            last = time.perf_counter() - t_round
        run.tracer.enabled = trace
        workload.extras(ops, run)
    finally:
        run.clock.stop()
    return run, rounds, kernels


def end_to_end(run) -> dict:
    """Each metric as (value, sample count, how it is taken), in reference time."""
    walls = [sum(map(run.ms, windows)) / 1e3 for windows in run.rounds]
    metrics = {"setup_s": (median(list(map(run.ms, run.setups))) / 1e3, len(run.setups),
                           "median of set-ups"),
               "wall_s": (median(walls), len(walls),
                          f"median over rounds of the round's {len(run.rounds[0])} "
                          "timed calls")}
    for name in END_TO_END:
        if name not in metrics:
            ops = run.samples.get(name, {})
            per_op = [median(list(map(run.ms, windows))) for windows in ops.values()]
            metrics[name] = (sum(per_op) / max(len(per_op), 1),
                             sum(map(len, ops.values())),
                             f"mean over {len(per_op)} ops of each op's median repeat")
    return metrics


def per_layer(workload, run, rounds, kernels) -> dict:
    """Per-layer metrics: kernel probes, set-up spans, runner spans with
    their trace counters, and the top-k stage spans."""
    from workloads import METHODS, TOPK

    out = dict(kernels)

    def span_ms(span):
        return run.clock.ms(span.start_ns, span.end_ns)

    for name in ("linalg.LinearSolver", "precond.build_preconditioner",
                 "objective.estimate_curvature_bound", "linalg.read_matrix_market",
                 "synthetic.gen_synthetic"):
        spans = run.tracer.named(name)
        if spans:
            out[f"{name}.ms"] = median(list(map(span_ms, spans)))

    counts = workload.solver_counts(run)
    for m in METHODS:
        if m not in counts:  # every traced call of this runner raised
            continue
        c = counts[m]
        for k in ("iterations", "matvecs", "solves", "pcg_inner"):
            if (m, k) not in NEVER_COUNTED:
                out[f"solvers.{m}.{k}"] = c[k]
        us_per_iter = c["elapsed_ns"] / 1e3 / c["iterations"]
        # counted products and solves priced at the probe rates; PCG inner
        # products are inside the probed solve, pmd's solves are
        # preconditioner solves, and pmd re-estimates its bound per call
        plain = c["matvecs"] - c["pcg_inner"]
        mv_us = (out["linalg.matvec.A.us"] + out["linalg.matvec.B.us"]) / 2
        solve_us = out["precond.apply_gram_inverse.us" if m == "pmd" else "linalg.solve_spd.us"]
        priced = plain * mv_us + c["solves"] * solve_us
        if m == "pmd":
            priced += out["precond.transformed_dominant_eigenvalue.ms"] * 1e3
        out[f"solvers.{m}.us_per_iter"] = us_per_iter
        out[f"solvers.{m}.other_us_per_iter"] = us_per_iter - priced / c["iterations"]

    for s in range(1, TOPK + 1):
        stages = run.tracer.named(f"deflation.top_k.stage{s}")
        out[f"deflation.top_k.stage{s}.ms"] = median(list(map(span_ms, stages)))
        out[f"deflation.top_k.stage{s}.matvecs"] = median([st.attrs["matvecs"] for st in stages])

    untraced, traced = (median(list(map(run.ms, rounds[k]))) for k in (False, True))
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    for name, (value, _) in workload.layer_extras(run).items():
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gepsolve" / "__init__.py").is_file():
        print(f"error: no gepsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run, rounds, kernels = measure(workload, args.seed, args.seconds, bool(args.trace),
                                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(run.rounds)} rounds, {len(run.setups)} set-ups, "
          f"{len(run.clock.starts)} calibrations")
    if args.trace:
        layers = per_layer(workload, run, rounds, kernels)
        units = {**PER_LAYER, **{k: u for k, (_, u) in workload.layer_extras(run).items()},
                 "linalg.read_matrix_market.ms": "ms", "synthetic.gen_synthetic.ms": "ms"}
        for name in sorted(layers):
            print(f"layer {name} {layers[name]!r} {units[name]}")
        # a layer with no traced call that returned reads 0
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"environment": env, "workload": workload.name, "seed": args.seed,
                       "layers": layers, "spans": [s.to_dict() for s in run.tracer.spans]}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        e2e = end_to_end(run)
        for name, (value, count, how) in e2e.items():
            print(f"metric {name} {value!r} {END_TO_END[name]} ({how}; {count} samples)")
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, (value, *_) in e2e.items()}

    failed = len(run.failures)
    for failure in run.failures:
        print(f"failed {failure}")
    for method, miss in sorted(run.estimate_miss.items()):
        print(f"lambda_estimate {method}: final().lam misses the oracle by up to "
              f"{miss:.3g} x tol (reported, not gated)")
    print(f"fail_rate {failed / max(run.attempted, 1)!r} ({failed} of {run.attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the seeded runner counts of this tree with those of another tree.

    python3 tools/compare_counts.py BASELINE_TREE [--seeds 0 1 2]

Runs every ``solves()`` call of the benchmark workloads dense-loop, grid-ci
and sparse-pcg at each seed, once in this tree and once in BASELINE_TREE
(a checkout of another commit, e.g. from ``git archive``). Each tree runs in
its own subprocess, with its own ``src/`` and ``perfbench/`` first on
``sys.path`` and one BLAS thread, so both sides run the same workload code
that their commit ships. Nothing is timed, and only temporary folders are
written.

Prints every run whose status, iterations or counters differ between the
trees, with split-merge's ``fallback_steps`` and both final lambdas, and
then the largest relative lambda gap among the runs that agree.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense-loop", "grid-ci", "sparse-pcg")
COUNTERS = ("matvecs", "solves", "pcg_inner", "pcg_capped")


def emit(tree: Path, seeds: list[int]) -> None:
    """Worker: one JSON line per runner call of ``tree``'s workloads."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gepsolve
    assert Path(gepsolve.__file__).is_relative_to(tree), gepsolve.__file__
    from tracing import Tracer
    from workloads import WORKLOADS as KINDS
    from workloads import call_runner

    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workload = KINDS[name]()
                workload.prepare(seed, Path(tmp))
                ops = workload.set_up(Tracer(False))
                for method, pair, config, x0, _, label in workload.solves(ops):
                    row = {"key": [name, seed, label], "method": method}
                    try:
                        trace = call_runner(method, pair, config, x0)
                    except Exception as exc:  # a raising run is an outcome too
                        row.update(status=f"raised {type(exc).__name__}", iterations=None,
                                   counters=None, fallback=None, lam=None)
                    else:
                        c = trace.counters
                        row.update(status=trace.status, iterations=trace.iterations,
                                   counters=[getattr(c, k) for k in COUNTERS],
                                   fallback=trace.diagnostics.get("fallback_steps"),
                                   lam=trace.final().lam)
                    print(json.dumps(row), flush=True)


def collect(tree: Path, seeds: list[int]) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": ""}
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(tree),
                          "--seeds", *map(str, seeds)],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    rows = (json.loads(line) for line in out.splitlines())
    return {tuple(row["key"]): row for row in rows}


def outcome(row) -> str:
    if row["counters"] is None:
        return row["status"]
    counts = " ".join(f"{k}={v}" for k, v in zip(COUNTERS, row["counters"]))
    return f"{row['status']} it={row['iterations']} {counts}"


def compare(base: dict, head: dict) -> int:
    if base.keys() != head.keys():
        print(f"the trees run different calls: {len(base)} against {len(head)}")
        return 1
    moved, gap, at = [], 0.0, None
    for key, old in base.items():
        new = head[key]
        if (old["status"], old["iterations"], old["counters"]) != \
                (new["status"], new["iterations"], new["counters"]):
            moved.append(key)
        elif old["lam"] is not None and old["lam"] != 0.0:
            rel = abs(new["lam"] - old["lam"]) / abs(old["lam"])
            if at is None or rel > gap:
                gap, at = rel, key
    print(f"{len(base)} runs, {len(moved)} with other status, iterations or counters")
    for key in moved:
        old, new = base[key], head[key]
        print(f"{key[0]} seed {key[1]} {key[2]}:")
        print(f"  baseline  {outcome(old)} fallback_steps={old['fallback']} lam={old['lam']!r}")
        print(f"  this tree {outcome(new)} fallback_steps={new['fallback']} lam={new['lam']!r}")
    if at is not None:
        print(f"largest relative lambda gap among the other runs: {gap:.2e} "
              f"({at[0]} seed {at[1]} {at[2]})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="the tree to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(Path(args.emit).resolve(), args.seeds)
        return 0
    if args.baseline is None:
        parser.error("name the baseline tree")
    baseline = Path(args.baseline).resolve()
    return compare(collect(baseline, args.seeds), collect(ROOT, args.seeds))


if __name__ == "__main__":
    sys.exit(main())

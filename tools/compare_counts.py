"""Compare the seeded runner counts of this tree with those of another tree.

    python3 tools/compare_counts.py BASELINE_TREE [--seeds 0 1 2]

Runs every ``solves()`` call and every ``top_k`` call of a round of the
benchmark workloads dense-loop, grid-ci and sparse-pcg at each seed, once in
this tree and once in BASELINE_TREE (a checkout of another commit, e.g. from
``git archive``). Each tree runs in its own subprocess, with its own ``src/``
and ``perfbench/`` first on ``sys.path`` and one BLAS thread, so both sides
run the same workload code that their commit ships. The ``top_k`` calls are
those the workload's ``round()`` makes, collected by a stand-in for the
benchmark's run object, and a counting wrapper of A keeps each stage's
counters. Nothing is timed, and only temporary folders are written.

Prints every call whose status, iterations or counters (per stage for
``top_k``) differ between the trees, with split-merge's ``fallback_steps``
and both sides' final lambdas, and then the largest relative lambda gap
among the calls that agree.
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


class CountedA:
    """The A operand, keeping every Counters object a counted product passes:
    each runner call, so each top_k stage, makes its own."""

    def __init__(self, base):
        self.base, self.n, self.stages = base, base.n, {}

    def matvec(self, x, counters=None):
        if counters is not None:
            self.stages.setdefault(id(counters), counters)  # held, so ids stay unique
        return self.base.matvec(x, counters)


class TopKCalls:
    """Stands in for perfbench's ``Run`` in a workload's ``round()``: keeps the
    arguments of its ``top_k`` calls and does nothing else."""

    def __init__(self, tracer):
        self.tracer, self.calls = tracer, []

    def top_k(self, pair, config, x0, lams_ref, label):
        self.calls.append((pair, config, x0, label))

    def solve(self, *args):
        pass

    timed = outcome = solve

    def lambda_problem(self, *args):
        return None


def emit(tree: Path, seeds: list[int]) -> None:
    """Worker: one JSON line per runner and top_k call of ``tree``'s workloads."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gepsolve
    assert Path(gepsolve.__file__).is_relative_to(tree), gepsolve.__file__
    from tracing import Tracer
    from workloads import TOPK, call_runner
    from workloads import WORKLOADS as KINDS

    def row(key, method, run):
        out = {"key": key, "method": method, "iterations": None, "counters": None,
               "fallback": None, "lams": None}
        try:
            out.update(run())
        except Exception as exc:  # a raising call is an outcome too
            out["status"] = f"raised {type(exc).__name__}"
        print(json.dumps(out), flush=True)

    def runner(method, pair, config, x0):
        trace = call_runner(method, pair, config, x0)
        c = trace.counters
        return {"status": trace.status, "iterations": trace.iterations,
                "counters": [getattr(c, k) for k in COUNTERS],
                "fallback": trace.diagnostics.get("fallback_steps"),
                "lams": [trace.final().lam]}

    def topk(pair, config, x0):
        counted = CountedA(pair.a)
        try:
            found, status = gepsolve.top_k(gepsolve.MatrixPair(counted, pair.b), TOPK,
                                           config, x0), "found"
        except gepsolve.StageFailure as exc:  # the stages before it still count
            found, status = exc.pairs, f"failed at stage {exc.stage}"
        return {"status": status, "lams": [lam for lam, _ in found],
                "counters": [[getattr(c, k) for k in COUNTERS]
                             for c in counted.stages.values()]}

    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workload = KINDS[name]()
                workload.prepare(seed, Path(tmp))
                ops = workload.set_up(Tracer(False))
                for method, pair, config, x0, _, label in workload.solves(ops):
                    row([name, seed, label], method,
                        lambda: runner(method, pair, config, x0))
                calls = TopKCalls(Tracer(False))
                workload.round(ops, calls)
                for pair, config, x0, label in calls.calls:
                    row([name, seed, label], "top_k", lambda: topk(pair, config, x0))


def collect(tree: Path, seeds: list[int]) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": ""}
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(tree),
                          "--seeds", *map(str, seeds)],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    rows = (json.loads(line) for line in out.splitlines())
    return {tuple(row["key"]): row for row in rows}


def counts(values) -> str:
    return " ".join(f"{k}={v}" for k, v in zip(COUNTERS, values))


def outcome(row) -> str:
    if row["counters"] is None:
        return row["status"]
    if row["method"] == "top_k":
        return row["status"] + "".join(f" | stage {s}: {counts(c)}"
                                       for s, c in enumerate(row["counters"], 1))
    return f"{row['status']} it={row['iterations']} {counts(row['counters'])}"


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
            continue
        for lam_old, lam_new in zip(old["lams"] or [], new["lams"] or []):
            if lam_old != 0.0:
                rel = abs(lam_new - lam_old) / abs(lam_old)
                if at is None or rel > gap:
                    gap, at = rel, key
    print(f"{len(base)} calls, {len(moved)} with other status, iterations or counters")
    for key in moved:
        old, new = base[key], head[key]
        print(f"{key[0]} seed {key[1]} {key[2]}:")
        for side, row in (("baseline ", old), ("this tree", new)):
            print(f"  {side} {outcome(row)} fallback_steps={row['fallback']} "
                  f"lam={', '.join(map(repr, row['lams'] or [None]))}")
    if at is not None:
        print(f"largest relative lambda gap among the other calls: {gap:.2e} "
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

"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads grid-ci,dense-loop]
                               [--traced-seed 0] [--out perfbench/trajectory/BENCH_x.json]

Runs perfbench/run.py once per workload and seed, one process at a time,
with the run length of BENCHMARK.json. For every end-to-end metric it
prints the median, the quartiles of Python's statistics.quantiles(n=4) and
their distance as a share of the median, next to the metric's bound; a
spread above a third of the bound is flagged. With --traced-seed one traced
run per workload adds the per-layer metrics. With --out the summary is
written as JSON, the form of a BENCH trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload: str, seed: int, seconds: int, trace: int):
    """One benchmark process; returns (environment, result) from its output."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s",
          flush=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}

    for workload in workloads:
        results = []
        for seed in seeds:
            env, result = run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
            results.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']} of "
                  f"{result['attempted']}", flush=True)
        summary["environment"] = env
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats.update(unit=results[0]["metrics"][name]["unit"], bound=bound)
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:22s} median {stats['median']:.6g} {stats['unit']:3s} "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}", flush=True)
        if args.traced_seed is not None:
            _, traced = run_once(spec["command"], workload, args.traced_seed,
                                 spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.traced_seed
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

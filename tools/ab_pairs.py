"""Alternating benchmark pairs of a baseline tree and this tree.

    python3 tools/ab_pairs.py BASELINE_TREE --workload grid-ci --pairs 10 [--seconds 12]

BASELINE_TREE is a checkout of another commit (e.g. from ``git archive``).
Pair i runs the unmodified ``perfbench/run.py --trace 0`` of both trees with
seed i, one process at a time: the baseline first when i is even, this tree
first when i is odd, so drift of the machine falls on both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles (Python's ``statistics.quantiles(n=4)``, as ``sweep.py``), the
median of the per-pair change/baseline ratios, and the pairs the change won.
A claim holds where the change wins at least 9 of every 10 pairs and its
median is better than the baseline's by more than the baseline's quartile
distance. A metric whose median ratio is worse than its bound is flagged.
Failed ops are summed per side, and the last line is one JSON object with
the figures. Nothing is written but run.py's own temporary folder, which it
removes. ``perfbench/sweep.py --baseline`` (ROADMAP item 16) replaces this
tool once it lands.
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
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``tree``; returns its closing JSON object."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        sys.exit(f"{tree}: {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' quartiles, the median ratio, the wins and the claim rule."""
    sign = 1.0 if better == "lower" else -1.0
    q_base, q_change = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
    ratio = statistics.median(c / b for b, c in zip(base, change))
    wins = sum(sign * (b - c) > 0.0 for b, c in zip(base, change))
    gap = sign * (q_base[1] - q_change[1])
    return {"base": q_base, "change": q_change, "ratio": ratio, "wins": wins,
            "claim": wins >= WIN_SHARE * len(base) and gap > q_base[2] - q_base[0],
            "over_bound": sign * (ratio - 1.0) > bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of each process; default BENCHMARK.json's")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    baseline = args.baseline.resolve()
    if not (baseline / "perfbench" / "run.py").is_file():
        sys.exit(f"error: no perfbench/run.py under {baseline}")
    if args.pairs < 2:
        sys.exit("error: quartiles need at least 2 pairs")

    sides = {"base": [], "change": []}
    for i in range(args.pairs):
        order = (("base", baseline), ("change", ROOT))
        for side, tree in order if i % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            sides[side].append(run_once(tree, args.workload, i, seconds))
            print(f"pair {i} {side}: {time.perf_counter() - t0:.1f} s", flush=True)

    print(f"{args.workload}, {args.pairs} pairs of {seconds:g} s; change/base ratio is "
          "the median over pairs")
    summary = {"workload": args.workload, "pairs": args.pairs, "seconds": seconds,
               "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
               "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [[r["metrics"][name]["value"] for r in sides[side]]
                  for side in ("base", "change")]
        row = summary["metrics"][name] = compare(*values, metric["better"], metric["bound"])
        b, c = row["base"], row["change"]
        print(f"{name:22s} base {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
              f"change {c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]  ratio {row['ratio']:.3f}  "
              f"wins {row['wins']}/{args.pairs}  claim {'holds' if row['claim'] else 'no'}"
              + ("  WORSE THAN BOUND" if row["over_bound"] else ""))
    print(f"failed ops: base {summary['failed']['base']}, change {summary['failed']['change']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a repository checkout::

    python3 e2ebench/spread.py --workload sweep-ladder --runs 10 [--out runs.json]

Runs ``e2ebench/run.py`` once per seed, 1 to ``--runs``, with
``run_seconds`` from ``BENCHMARK.json`` and prints, per end-to-end
metric, the median and the interquartile distance as a share of the
median next to a third of the metric's bound, the steadiness target.  Exits 1 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write every run's result here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    results = []
    for seed in range(1, args.runs + 1):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}"
                  f"{done.stderr}", file=sys.stderr)
            return 1
        results.append(json.loads(lines[-1]))
        results[-1]["report"] = lines[:-1]
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in results[-1]["metrics"].items()), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    if len(results) < 2:
        return 0
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        bound = bounds.get(name)
        target = f"  target < {bound / 3:.4f}" if bound else ""
        print(f"{name:30s} median {statistics.median(values):12.6g}  "
              f"spread {spread(values):.4f}{target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cold end-to-end benchmark of the verifier: four user jobs.

Usage, from the root of a repository checkout::

    python3 e2ebench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0

Runs cold passes of the workload until ``--seconds`` are spent (at
least one), checks every output, prints a report and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Times are CPU seconds, rescaled to the host's reference speed by a
calibrator that shares the run's one CPU (``bench_calib.py``).
With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` each round runs an untraced and
a traced pass and the metrics are the per-layer ones.  Exits 1 when an
output is wrong and 2 when there is no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List

import bench_calib
from bench_checks import check_repeat
from bench_stats import percentile
from bench_trace import summarize
from bench_workloads import RUNNERS, Context, PassResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


#: Set-up samples a run takes of each process kind at the least.
MIN_SETUP_SAMPLES = 5


def measure(runner, ctx: Context, seconds: float, trace: bool):
    """Run rounds of passes until the next one would overrun ``seconds``.

    An untraced run then spends what is left of ``seconds`` on set-up
    probes, and takes :data:`MIN_SETUP_SAMPLES` of each kind even past
    ``seconds``.
    """
    deadline = time.monotonic() + seconds
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    rounds: List[float] = []
    while True:
        began = time.monotonic()
        plain.append(runner(ctx, False))
        if trace:
            traced.append(runner(ctx, True))
        rounds.append(time.monotonic() - began)
        if time.monotonic() + statistics.median(rounds) > deadline:
            break
    if not trace:
        probe_setup(ctx, sorted(set(plain[0].spawned)), deadline)
    return plain, traced


def probe_setup(ctx: Context, kinds: List[str], deadline: float) -> None:
    """Add set-up samples of ``kinds``, fewest first, until ``deadline``."""
    samples = ctx.setup_samples
    probes: List[float] = []
    while kinds:
        kind = min(kinds, key=lambda k: len(samples[k]))
        if len(samples[kind]) >= MIN_SETUP_SAMPLES:
            cost = statistics.median(probes or samples[kind])
            if time.monotonic() + cost > deadline:
                return
        began = time.monotonic()
        if not ctx.probe(kind):
            return
        probes.append(time.monotonic() - began)


def end_to_end(passes: List[PassResult],
               setup_samples: Dict[str, List[float]]) -> Dict[str, float]:
    timed = [p for p in passes if p.cpu_s > 0]
    if not timed:
        return {}
    queries = sum(p.queries for p in passes)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # Each process of a pass costs its kind's median set-up.
        "setup_s": sum(statistics.median(setup_samples[kind])
                       for kind in passes[0].spawned),
        # Each pass is rescaled already, so they differ only by noise.
        "cpu_s": statistics.fmean(p.cpu_s for p in timed),
        "peak_rss_mb": max([own_kb] + [p.rss_kb for p in passes]) / 1024,
        "decided_frac": (sum(p.decided for p in passes) / queries
                         if queries else 0.0),
    }


def layer_figures(result: PassResult) -> Dict[str, float]:
    """The per-layer figures of one traced pass."""
    summary = summarize(result.trace or [])
    own, total = summary["self_s"], summary["total_s"]
    calls, counters = summary["calls"], summary["counters"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    reach_states = counters.get("explicit.reach_states", 0)
    states = reach_states + counters.get("explicit.game_states", 0)
    frontiers = counters.get("batch.frontiers", 0)
    ops_total = sum(op[1] for op in summary["ops"])
    unexplained = sum(op[2] for op in summary["ops"])
    figures = {
        "protocols.build_s": own.get("protocols.build", 0.0),
        "program.compile_s": own.get("program.compile", 0.0),
        "program.compiles": calls.get("program.compile", 0),
        "system.bind_s": own.get("system.bind", 0.0),
        "system.binds": calls.get("system.bind", 0),
        "system.succ_entries": counters.get("system.succ_entries", 0),
        "system.succ_entries_per_state": ratio(
            counters.get("system.succ_entries", 0), states),
        "batch.expand_s": own.get("batch.expand", 0.0),
        "batch.frontiers": frontiers,
        "batch.rows": counters.get("batch.rows", 0),
        "batch.rows_per_frontier": ratio(counters.get("batch.rows", 0),
                                         frontiers),
        "explicit.reach_s": own.get("explicit.reach", 0.0),
        "explicit.reach_states": reach_states,
        "explicit.reach_states_per_s": ratio(
            reach_states, total.get("explicit.reach", 0.0)),
        "explicit.game_s": own.get("explicit.game", 0.0),
        "explicit.game_states": counters.get("explicit.game_states", 0),
        "explicit.side_s": total.get("explicit.side", 0.0),
        "fairness.non_blocking_s": own.get("fairness.non_blocking", 0.0),
        "fairness.fair_termination_s": own.get("fairness.fair_termination",
                                               0.0),
        "fairness.calls": (calls.get("fairness.non_blocking", 0)
                           + calls.get("fairness.fair_termination", 0)),
        "store.load_s": own.get("store.load", 0.0),
        "store.loads": calls.get("store.load", 0),
        "store.load_hits": counters.get("store.load_hits", 0),
        "store.flush_s": own.get("store.flush", 0.0),
        "store.flushes": counters.get("store.flushes", 0),
        "store.bytes_written": counters.get("store.bytes_written", 0),
        "param.setup_s": own.get("param.setup", 0.0),
        "param.query_s": own.get("param.query", 0.0),
        "param.nschemas": counters.get("param.nschemas", 0),
        "param.milestones": counters.get("param.milestones", 0),
        "param.encode_s": own.get("param.encode", 0.0),
        "param.encodes": calls.get("param.encode", 0),
        "lp.float_calls": calls.get("lp.float", 0),
        "lp.float_s": own.get("lp.float", 0.0),
        "lp.float_undecided": counters.get("lp.float_undecided", 0),
        "lp.exact_calls": calls.get("lp.exact", 0),
        "lp.exact_s": own.get("lp.exact", 0.0),
        "ilp.calls": calls.get("ilp.solve", 0),
        "ilp.s": own.get("ilp.solve", 0.0),
        "trace.unexplained_s": unexplained,
        "trace.unexplained_frac": ratio(unexplained, ops_total),
        "trace.spans": summary["spans"],
    }
    figures.update(result.layers)
    return figures


def per_layer(plain: List[PassResult], traced: List[PassResult],
              names: List[str], chunks: List[float]) -> Dict[str, float]:
    """Per-pass means of the traced passes' layer figures."""
    rows = [layer_figures(p) for p in traced]
    metrics = {name: sum(row.get(name, 0) for row in rows) / len(rows)
               for name in names}
    untraced = statistics.median(p.cpu_s for p in plain)
    overhead = statistics.median(p.cpu_s for p in traced) - untraced
    metrics["host.chunk_cpu_s"] = statistics.fmean(chunks)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced if untraced else 0.0
    return metrics


def op_remainders(traced: List[PassResult]) -> List[str]:
    """One line per operation: its time and the part no span explains."""
    by_label = defaultdict(lambda: [0, 0.0, 0.0])
    for result in traced:
        for label, total, unexplained in summarize(result.trace or [])["ops"]:
            row = by_label[label]
            row[0] += 1
            row[1] += total
            row[2] += unexplained
    return [f"  op {label}: {row[1] / row[0]:.4f} s, unexplained "
            f"{row[2] / row[0]:.4f} s ({row[2] / row[1]:.1%})"
            for label, row in by_label.items() if row[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no src/repro under {ROOT}; run it from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    # Each CPU of the host slows and speeds up on its own, so the run and
    # every process it starts share one CPU with the calibrator.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in table}

    scratch = os.path.join(ROOT, ".e2ebench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    ctx = None
    try:
        ctx = Context(ROOT, scratch, args.seed)
        plain, traced = measure(RUNNERS[args.workload], ctx, args.seconds,
                                bool(args.trace))
    finally:
        if ctx is not None:
            ctx.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it

    passes = plain + traced
    failures = [line for p in passes for line in p.failures]
    failed = sum(p.failed for p in passes)
    for result in passes[1:]:
        mismatches = check_repeat(passes[0].signature, result.signature)
        failed += min(len(mismatches), result.ops)
        failures += mismatches
    attempted = max(1, sum(p.ops for p in passes))
    failed = min(failed, attempted)

    chunks = ctx.chunks_used
    figures = (per_layer(plain, traced, list(units), chunks)
               if args.trace else end_to_end(plain, ctx.setup_samples))
    print(f"e2ebench {args.workload}: seed {args.seed}, {len(plain)} passes"
          f"{f' + {len(traced)} traced' if traced else ''}, nproc "
          f"{os.cpu_count()}")
    print("  pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in plain)
          + ", raw cpu_s " + " ".join(f"{p.cpu_raw_s:.3f}" for p in plain)
          + ", rescaled " + " ".join(f"{p.cpu_s:.3f}" for p in plain))
    print(f"  calibration chunk: mean {statistics.fmean(chunks):.5f} s CPU "
          f"over {len(chunks)} chunks, reference "
          f"{bench_calib.REFERENCE_CHUNK_S} s")
    for kind, found in sorted(ctx.setup_samples.items()):
        print(f"  set-up CPU per {kind} process: median "
              f"{statistics.median(found):.4f} s over {len(found)} spawns")
    samples = [s for p in plain for s in p.op_seconds]
    if samples:
        print("  per-operation latency: " + ", ".join(
            f"p{q} {percentile(samples, q)[0]:.4g} s"
            for q in (50, 90)) + f" over {len(samples)} samples")
    for name, unit in units.items():
        print(f"  {name:32s} {figures.get(name, 0):14.6g} {unit}")
    if traced:
        print("\n".join(op_remainders(traced)))
    for line in failures[:20]:
        print(f"  FAIL {line}")
    metrics = {name: {"value": figures.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

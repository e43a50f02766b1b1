#!/usr/bin/env python
"""Bench regression gate: fresh smoke run vs the recorded trajectory.

Compares the last entry of a freshly-produced trajectory file (the CI
``--quick`` smoke of ``bench_state_engine.py``) against the last
*labelled* entry committed in ``BENCH_state_engine.json`` and fails on
a >30% drop in any state-engine throughput metric
(``check_reach``/``check_game`` states/sec, the ``frontier_batch``
batched kernel states/sec and its scalar-vs-batched speedup,
``mdp_sample`` steps/sec).  Metrics absent from the baseline entry
(sections newer than the recorded baseline) are skipped with a note.
The sweep and sim_fleet sections are informational only — quick and
full runs use different matrices / fleet sizes, so their rates are not
comparable.

Usage::

    python benchmarks/check_bench_regression.py /tmp/bench_ci.json \
        BENCH_state_engine.json [--threshold 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: metric path within an entry -> human label.  Paths may be nested;
#: a metric missing from the baseline entry (sections added after the
#: baseline was recorded, e.g. ``frontier_batch``) is skipped with a
#: note rather than failing the gate.
METRICS = {
    ("check_reach", "states_per_sec"): "check_reach states/sec",
    ("check_game", "states_per_sec"): "check_game states/sec",
    ("frontier_batch", "batched", "states_per_sec"):
        "frontier_batch batched states/sec",
    ("frontier_batch", "speedup"): "frontier_batch speedup",
    ("mdp_sample", "steps_per_sec"): "mdp_sample steps/sec",
}


def metric_at(entry: dict, path: tuple):
    """The metric at a (possibly nested) path, or ``None`` if absent."""
    node = entry
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


#: Labels that never serve as a baseline: the bench default and the CI
#: smoke label are transient local/runner measurements, not records.
TRANSIENT_LABELS = ("dev", "ci-smoke")


def last_entry(path: Path, labelled_full_only: bool = False) -> dict:
    """Last trajectory entry; optionally the last *labelled full* one.

    The baseline side skips ``--quick`` entries (different repeat
    counts — not comparable) and transiently-labelled ones (``dev``,
    ``ci-smoke``), so a stray local smoke run appended to the committed
    file cannot silently become the regression baseline.
    """
    trajectory = json.loads(path.read_text())["trajectory"]
    if labelled_full_only:
        trajectory = [
            entry for entry in trajectory
            if not entry.get("quick") and entry["label"] not in TRANSIENT_LABELS
        ]
    if not trajectory:
        raise SystemExit(f"{path}: no usable trajectory entry")
    return trajectory[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=Path,
                        help="trajectory JSON written by the smoke run")
    parser.add_argument("baseline", type=Path,
                        help="committed trajectory JSON (BENCH_state_engine.json)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional drop (default 0.30)")
    args = parser.parse_args(argv)

    fresh = last_entry(args.fresh)
    baseline = last_entry(args.baseline, labelled_full_only=True)
    print(f"gate: {fresh['label']!r} (fresh) vs {baseline['label']!r} (baseline), "
          f"threshold {args.threshold:.0%}")

    failed = False
    for path, label in METRICS.items():
        got = metric_at(fresh, path)
        want = metric_at(baseline, path)
        if got is None or want is None:
            side = "fresh" if got is None else "baseline"
            print(f"  {label:34s} skipped (absent from {side} entry)")
            continue
        floor = want * (1.0 - args.threshold)
        ratio = got / want if want else float("inf")
        status = "ok" if got >= floor else "REGRESSION"
        print(f"  {label:34s} {got:12,.2f} vs {want:12,.2f} "
              f"({ratio:5.2f}x, floor {floor:,.2f}) {status}")
        if got < floor:
            failed = True

    fleet = fresh.get("sim_fleet")
    if fleet:
        pooled = fleet.get("pooled")
        pooled_note = (
            f", pooled×{pooled['processes']} "
            f"{pooled['instances_per_sec']:.1f}/s" if pooled else ""
        )
        print(f"  sim_fleet (informational)    fleet "
              f"{fleet['fleet']['instances_per_sec']:.1f}/s over "
              f"{fleet['runs']} runs{pooled_note}")
    sweep = fresh.get("sweep")
    if sweep:
        print(f"  sweep (informational)        cold {sweep['cold_tasks_per_sec']:.2f} "
              f"-> warm {sweep['warm_tasks_per_sec']:.2f} tasks/sec "
              f"({sweep['warm_speedup']:.2f}x warm speedup)")
    store = fresh.get("store_sweep")
    if store:
        print(f"  store_sweep (informational)  cold {store['cold_tasks_per_sec']:.2f} "
              f"-> warm-from-disk {store['warm_tasks_per_sec']:.2f} tasks/sec "
              f"({store['warm_speedup']:.2f}x second-run speedup)")
    backends = fresh.get("store_backends")
    if backends:
        store = backends["dir"]
        print(f"  store_backends (informational)  snapshot store cold "
              f"{store['cold_seconds']:.2f}s -> warm "
              f"{store['warm_seconds']:.2f}s, "
              f"{store['cold_bytes_written']:,} bytes written cold")

    if failed:
        print("bench regression gate FAILED", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

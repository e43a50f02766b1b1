"""One process of a workload: a fresh interpreter running user calls.

Usage: ``python3 e2ebench/bench_child.py <job.json> <out.json>`` from the
root of a checkout, with ``src`` on ``PYTHONPATH``.  The job names the
calls to make (none for a ``probe``, which only sets up); only what a
user would pass is forwarded, everything else stays at its library
default.  The output records, on the ``time.monotonic`` clock the
parent shares, when the process was ready (interpreter and imports
done) and when its calls returned, the CPU seconds it had used by then
(pool workers included), plus the call results and, when traced, the
spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _verify_calls(api, recorder, calls):
    """``api.verify`` once per call: one operation each."""
    ops = []
    for call in calls:
        kwargs = {}
        if "engine" in call:
            kwargs["engine"] = call["engine"]
        if "targets" in call:
            kwargs["targets"] = tuple(call["targets"])
        if "max_nodes" in call:
            kwargs["limits"] = api.Limits(max_nodes=call["max_nodes"])
        started = time.perf_counter()
        if recorder is None:
            result = api.verify(call["protocol"], **kwargs)
        else:
            label = "/".join([call["protocol"], *call.get("targets", ())])
            result = recorder.call("op", api.verify, call["protocol"],
                                   label=label, **kwargs)
        ops.append({"seconds": time.perf_counter() - started,
                    "result": result.to_dict()})
    return ops


def _sweep(api, recorder, job):
    """One ``api.sweep`` over the ladder matrix at one state budget."""
    from repro.protocols.registry import benchmark

    limits = api.Limits(max_states=job["max_states"])
    tasks = []
    for entry in benchmark():
        small = entry.small_valuation
        ladder = [dict(small, n=small["n"] + step) for step in range(3)]
        for target in job["targets"]:
            tasks += api.task_matrix(protocols=[entry.name],
                                     valuations=ladder, targets=(target,),
                                     limits=limits)
    kwargs = dict(processes=job["processes"], scheduling="sharded",
                  cache_dir=job["cache_dir"], graph_store=job["graph_store"])
    if recorder is None:
        report = api.sweep(tasks, **kwargs)
    else:
        report = recorder.call("sweep", api.sweep, tasks, **kwargs)
    small = {entry.name: entry.small_valuation for entry in benchmark()}
    return report.to_dict(), small


def _fleets(run_fleet, recorder, job):
    """``run_fleet`` once per protocol; records are reduced to a digest."""
    fleets = []
    for call in job["fleets"]:
        started = time.perf_counter()
        kwargs = dict(runs=call["runs"], base_seed=job["seed"])
        if recorder is None:
            report = run_fleet(call["protocol"], **kwargs)
        else:
            report = recorder.call("op", run_fleet, call["protocol"],
                                   label=call["protocol"], **kwargs)
        seconds = time.perf_counter() - started
        data = report.to_dict()
        blob = json.dumps(data, sort_keys=True).encode()
        fleets.append({
            "protocol": call["protocol"],
            "seconds": seconds,
            "digest": hashlib.sha256(blob).hexdigest(),
            "runs": report.runs,
            "completed": report.completed,
            "steps": sum(record.steps for record in report.records),
            "errors": len(report.error_seeds()),
            "agreement_violations": len(report.agreement_violations()),
            "validity_violations": len(report.validity_violations()),
        })
    return fleets


def main(job_path: str, out_path: str) -> None:
    with open(job_path) as handle:
        job = json.load(handle)
    recorder = None
    if job["trace"]:
        from bench_trace import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder, job["trace_dir"])
    # The imports are the process's set-up; a probe does nothing else.
    if job["setup"] == "fleet":
        from repro.sim.fleet import run_fleet
    else:
        from repro import api
    out = {"ready": time.monotonic(),
           "ready_cpu": _cpu_seconds(resource.RUSAGE_SELF)}
    if job["kind"] == "fleet":
        out["fleets"] = _fleets(run_fleet, recorder, job)
    elif job["kind"] == "sweep":
        out["report"], out["small"] = _sweep(api, recorder, job)
    elif job["kind"] == "verify":
        out["ops"] = _verify_calls(api, recorder, job["calls"])
    out["done"] = time.monotonic()
    # Pool workers have been joined by now, so RUSAGE_CHILDREN holds them.
    out["done_cpu"] = (_cpu_seconds(resource.RUSAGE_SELF)
                       + _cpu_seconds(resource.RUSAGE_CHILDREN))
    out["rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["trace"] = [recorder.dump()] if recorder is not None else None
    with open(out_path, "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

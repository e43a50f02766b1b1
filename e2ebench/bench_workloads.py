"""The four workloads: what one pass runs, and what it measured.

A pass is one cold execution of the user's job: every process it needs
is a fresh interpreter (``bench_child.py``).  Each runner in
:data:`RUNNERS` executes one pass and returns a :class:`PassResult`;
``run.py`` repeats passes for the run's seconds.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import bench_calib
import bench_checks as checks

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "bench_child.py")

#: Seconds a single child may take before it is killed and its
#: operations count as failed.
CHILD_TIMEOUT = 150

#: verify-cold: a pass of these six takes 18-24 s of CPU, so a 20 s run
#: holds one.  aby22 and miller18 would add ~15 s; their layer split matches
#: mmr14's (see README.md).  rabin83 is the one with game BFS.
VERIFY_COLD = ("cc85a", "cc85b", "fmr05", "ks16", "mmr14", "rabin83")

#: sweep-ladder: state budgets of the two sweeps over the same matrix.
LADDER_BUDGETS = (600, 2000)
LADDER_TARGETS = ("agreement", "validity")
LADDER_PROCESSES = 2

#: param-safety: (protocol, target, max_nodes).  Validity decides within
#: 500 schema nodes on cc85a and fmr05; agreement is cut at 30 nodes, so
#: its ``unknown`` is deterministic.  See README.md for what was left out.
PARAM_CALLS = (
    ("rabin83", "agreement", 30),
    ("cc85a", "agreement", 30), ("cc85a", "validity", 500),
    ("cc85b", "agreement", 30),
    ("fmr05", "agreement", 30), ("fmr05", "validity", 500),
)

#: sim-fleet: runs per protocol per pass.
FLEET_RUNS = (("mmr14", 800), ("cc85a", 800))

#: What a process imports before it is ready: its set-up.  A sweep and a
#: verify process import the same, so they share set-up samples.
SETUP_KIND = {"verify": "api", "sweep": "api", "fleet": "fleet"}

@dataclass
class PassResult:
    """What one pass measured."""

    #: set-up kind (:data:`SETUP_KIND`) of each process the pass spawned
    spawned: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: CPU seconds of the user's calls, pool workers included, rescaled
    #: to the reference host speed (bench_calib)
    cpu_s: float = 0.0
    #: the same, not rescaled
    cpu_raw_s: float = 0.0
    ops: int = 0
    op_seconds: List[float] = field(default_factory=list)
    queries: int = 0
    decided: int = 0
    failures: List[str] = field(default_factory=list)
    failed: int = 0
    rss_kb: int = 0
    #: span dumps of every traced process (None when untraced)
    trace: Optional[List[dict]] = None
    #: layer figures that come from results, not spans
    layers: Dict[str, float] = field(default_factory=dict)
    #: what must repeat exactly from pass to pass
    signature: Dict[str, object] = field(default_factory=dict)


class Context:
    """Paths, fixtures and the calibrator shared by the passes of one run.

    Call :meth:`close` on every path out of the run.
    """

    def __init__(self, root: str, scratch: str, seed: int):
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self._serial = 0
        #: set-up CPU seconds of every untraced process, by set-up kind,
        #: rescaled to the reference host speed
        self.setup_samples: Dict[str, List[float]] = defaultdict(list)
        #: CPU seconds of the calibration chunks that rescaled a process
        self.chunks_used: List[float] = []
        with open(os.path.join(root, "tests", "checker", "data",
                               "seed_verdicts.json")) as handle:
            self.golden = json.load(handle)
        with open(os.path.join(HERE, "reference.json")) as handle:
            self.reference = json.load(handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), HERE]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["TMPDIR"] = scratch
        self.env = env
        self.calibrator = bench_calib.Calibrator(
            os.path.join(scratch, "calibration.txt"))

    def close(self) -> None:
        self.calibrator.stop()

    def fresh_dir(self, name: str) -> str:
        self._serial += 1
        path = os.path.join(self.scratch, f"{self._serial:04d}-{name}")
        os.makedirs(path)
        return path

    def launch(self, job: dict, trace: bool) -> Optional[dict]:
        """Run one child to completion; None if it failed or hung.

        The output gains ``setup`` (spawn to ready) and ``wall`` (ready
        to calls done) in seconds, and ``cpu``, the CPU seconds from
        ready to done, rescaled by the calibration chunks that ended
        while the child ran (``cpu_raw`` unscaled).  An untraced child's
        rescaled set-up CPU seconds are also kept in
        :attr:`setup_samples`.
        """
        workdir = self.fresh_dir(job["kind"])
        job = dict(job, trace=trace, trace_dir=workdir)
        job.setdefault("setup", SETUP_KIND.get(job["kind"]))
        job_path = os.path.join(workdir, "job.json")
        out_path = os.path.join(workdir, "out.json")
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, CHILD, job_path, out_path], cwd=self.root,
            env=self.env, stdout=subprocess.DEVNULL,
            # A process group of its own, but the run's session: a new
            # session would get a scheduler autogroup of its own, and the
            # calibrator's lower priority would no longer count.
            process_group=0)
        try:
            code = process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's pool workers share its process group.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
        chunks = self.calibrator.between(spawned, time.monotonic())
        self.chunks_used += chunks
        scale = bench_calib.scale(chunks)
        if code != 0 or not os.path.exists(out_path):
            return None
        with open(out_path) as handle:
            out = json.load(handle)
        out["setup"] = out["ready"] - spawned
        out["wall"] = out["done"] - out["ready"]
        out["cpu_raw"] = out["done_cpu"] - out["ready_cpu"]
        out["cpu"] = out["cpu_raw"] * scale
        if not trace:
            self.setup_samples[job["setup"]].append(out["ready_cpu"] * scale)
        if trace:
            from bench_trace import load_worker_dumps

            out["trace"] = out["trace"] + load_worker_dumps(workdir)
        return out

    def probe(self, kind: str) -> bool:
        """Spawn a process that only sets up (imports) and exits.

        Adds one sample to :attr:`setup_samples`; False if it failed.
        """
        return self.launch({"kind": "probe", "setup": kind}, False) is not None

    def spawn(self, result: PassResult, job: dict,
              trace: bool) -> Optional[dict]:
        """:meth:`launch` one process of ``result``'s pass."""
        result.spawned.append(SETUP_KIND[job["kind"]])
        return self.launch(job, trace)


def _absorb(result: PassResult, out: dict) -> None:
    result.wall_s += out["wall"]
    result.cpu_s += out["cpu"]
    result.cpu_raw_s += out["cpu_raw"]
    result.rss_kb = max(result.rss_kb, out["rss_kb"])
    if out["trace"] is not None:
        result.trace = (result.trace or []) + out["trace"]


def _lost(result: PassResult, what: str) -> None:
    """A process that crashed or hung counts as one failed operation."""
    result.ops += 1
    result.failed += 1
    result.failures.append(f"{what} failed or timed out")


def _count_queries(result: PassResult, task: dict) -> None:
    for obligation in task["obligations"]:
        for query in obligation["queries"]:
            result.queries += 1
            result.decided += query["verdict"] in checks.DECIDED


def verify_cold(ctx: Context, trace: bool) -> PassResult:
    result = PassResult()
    for protocol in VERIFY_COLD:
        out = ctx.spawn(result, {"kind": "verify",
                                 "calls": [{"protocol": protocol}]}, trace)
        if out is None:
            _lost(result, f"the {protocol} process")
            continue
        _absorb(result, out)
        result.ops += 1
        op = out["ops"][0]
        result.op_seconds.append(op["seconds"])
        _count_queries(result, op["result"])
        problems = checks.check_verify(protocol, op["result"], ctx.golden)
        result.failed += bool(problems)
        result.failures += problems
    return result


def sweep_ladder(ctx: Context, trace: bool) -> PassResult:
    result = PassResult()
    store_root = ctx.fresh_dir("ladder")
    reports = []
    busy = 0.0
    for budget in LADDER_BUDGETS:
        out = ctx.spawn(result, {
            "kind": "sweep", "max_states": budget,
            "targets": list(LADDER_TARGETS), "processes": LADDER_PROCESSES,
            "cache_dir": os.path.join(store_root, "cache"),
            "graph_store": os.path.join(store_root, "graphs"),
        }, trace)
        if out is None:
            _lost(result, f"the sweep at max_states={budget}")
            continue
        _absorb(result, out)
        report = out["report"]
        reports.append((report, out["small"]))
        tasks = report["results"]
        result.ops += len(tasks)
        for task in tasks:
            result.op_seconds.append(task["time_seconds"])
            busy += task["time_seconds"]
            _count_queries(result, task)
        layers = result.layers
        layers["pool.retries"] = layers.get("pool.retries", 0) + sum(
            task.get("attempts", 1) - 1 for task in tasks)
        layers["pool.timeouts"] = layers.get("pool.timeouts", 0) + sum(
            bool(task.get("timed_out")) for task in tasks)
    if len(reports) == len(LADDER_BUDGETS):
        (low, small), (high, _) = reports
        problems = checks.check_ladder(low, high, ctx.golden, small)
        result.failed += sum(bool(found) for found in problems)
        result.failures += [line for found in problems for line in found]
        result.signature = {
            f"{task['task_id']}@{budget}": task["verdict"]
            for budget, (report, _) in zip(LADDER_BUDGETS, reports)
            for task in report["results"]}
    capacity = result.wall_s * LADDER_PROCESSES
    result.layers["pool.busy_frac"] = busy / capacity if capacity else 0.0
    result.layers["pool.idle_s"] = max(0.0, capacity - busy)
    result.layers["store.disk_mb"] = _tree_bytes(store_root) / 2**20
    return result


def param_safety(ctx: Context, trace: bool) -> PassResult:
    result = PassResult()
    calls = [{"protocol": protocol, "engine": "parameterized",
              "targets": [target], "max_nodes": max_nodes}
             for protocol, target, max_nodes in PARAM_CALLS]
    out = ctx.spawn(result, {"kind": "verify", "calls": calls}, trace)
    if out is None:
        _lost(result, "the parameterized process")
        return result
    _absorb(result, out)
    for call, op in zip(calls, out["ops"]):
        task = op["result"]
        protocol, target = call["protocol"], call["targets"][0]
        if task.get("error"):
            result.ops += 1
            result.failed += 1
            result.failures.append(f"{protocol}/{target}: {task['error']}")
            continue
        for obligation in task["obligations"]:
            for query in obligation["queries"]:
                result.ops += 1
                result.queries += 1
                result.decided += query["verdict"] in checks.DECIDED
                result.op_seconds.append(query["time_seconds"])
                problems = checks.check_param_query(
                    protocol, target, query, ctx.reference["param-safety"],
                    ctx.golden)
                result.failed += bool(problems)
                result.failures += problems
                result.signature[f"{protocol}/{target}/{query['query']}"] = [
                    query["verdict"], query["nschemas"]]
    return result


def sim_fleet(ctx: Context, trace: bool) -> PassResult:
    result = PassResult()
    fleets = [{"protocol": protocol, "runs": runs}
              for protocol, runs in FLEET_RUNS]
    out = ctx.spawn(result, {"kind": "fleet", "fleets": fleets,
                             "seed": ctx.seed}, trace)
    if out is None:
        _lost(result, "the fleet process")
        return result
    _absorb(result, out)
    steps = completed = 0
    seconds = 0.0
    for fleet in out["fleets"]:
        result.ops += fleet["runs"]
        result.queries += fleet["runs"]
        result.decided += fleet["completed"]
        result.op_seconds.append(fleet["seconds"] / fleet["runs"])
        steps += fleet["steps"]
        completed += fleet["completed"]
        seconds += fleet["seconds"]
        problems = checks.check_fleet(fleet)
        result.failed += (fleet["errors"] + fleet["agreement_violations"]
                          + fleet["validity_violations"])
        result.failures += problems
        result.signature[fleet["protocol"]] = fleet["digest"]
    result.layers.update({
        "fleet.runs": result.ops,
        "fleet.steps": steps,
        "fleet.steps_per_s": steps / seconds if seconds else 0.0,
        "fleet.completion": completed / result.ops if result.ops else 0.0,
    })
    return result


def _tree_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


RUNNERS = {
    "verify-cold": verify_cold,
    "sweep-ladder": sweep_ladder,
    "param-safety": param_safety,
    "sim-fleet": sim_fleet,
}

"""Span recorder and the per-layer wrappers of the traced run.

Nothing under ``src/`` is edited: :func:`install` replaces each layer's
public functions with wrappers from this file, in the current process
only.  Pool workers are forked from the process that installed them,
so they inherit the wrappers; each worker drops the spans it inherited,
records its own and writes them to ``<trace_dir>/spans-<pid>.json``
when it exits.

A span is ``[id, parent, name, start_ns, end_ns, label]``.  Counters are
bumped per call or per frontier, never per state.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class SpanRecorder:
    """Nested phase spans and named counters of one process, in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._next_id = 1

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def call(self, name: str, fn: Callable, *args, label: str = "", **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append([span_id, parent, name, start, end, label])

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None,
             delta: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``after(recorder, result, args)`` bumps counters from the
        result.  ``delta(args) -> (counter, value)`` is read before and
        after the call and the growth is added to ``counter``.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = delta(args) if delta is not None else None
            result = recorder.call(name, original, *args, **kwargs)
            if after is not None:
                after(recorder, result, args)
            if before is not None:
                counter, value = delta(args)
                recorder.count(counter, max(0, value - before[1]))
            return result

        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        return {"pid": os.getpid(), "spans": self.spans,
                "counters": dict(self.counters)}


def self_times(spans: Sequence[Sequence]) -> Dict[int, int]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Sequence]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    result = {}
    for span in spans:
        _, _, _, start, end, _ = span
        covered = 0
        cursor = start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[0]] = (end - start) - covered
    return result


def summarize(dumps: Iterable[dict]) -> dict:
    """Merge process dumps into per-name totals (seconds) and counters.

    Returns ``{"self_s", "total_s", "calls", "counters", "ops", "spans"}``;
    ``ops`` lists ``(label, total_s, unexplained_s)`` for each ``op``
    span, the unexplained part being its self time.
    """
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(float)
    ops = []
    spans = 0
    for dump in dumps:
        own = self_times(dump["spans"])
        for span in dump["spans"]:
            span_id, _, name, start, end, label = span
            self_s[name] += own[span_id] / 1e9
            total_s[name] += (end - start) / 1e9
            calls[name] += 1
            if name == "op":
                ops.append((label, (end - start) / 1e9, own[span_id] / 1e9))
        spans += len(dump["spans"])
        for name, value in dump["counters"].items():
            counters[name] += value
    return {"self_s": dict(self_s), "total_s": dict(total_s),
            "calls": dict(calls), "counters": dict(counters), "ops": ops,
            "spans": spans}


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _succ_entries(args):
    return "system.succ_entries", args[0].system.cache_state()[1]


def _count_states(counter: str):
    def after(recorder, result, _args):
        recorder.count(counter, result.states_explored)
    return after


def _count_load_hits(recorder, loaded, _args):
    if loaded is True:
        recorder.count("store.load_hits")


def _store_bytes(args):
    return "store.bytes_written", args[0].bytes_written


def _count_flushes(recorder, result, _args):
    if result:
        recorder.count("store.flushes")


def _count_rows(recorder, rows, _args):
    recorder.count("batch.frontiers")
    recorder.count("batch.rows", rows)


def _count_nschemas(recorder, result, _args):
    recorder.count("param.nschemas", result.nschemas)


def _count_milestones(recorder, _result, args):
    recorder.count("param.milestones", args[0].milestone_count())


def _count_float(recorder, answer, _args):
    if answer is None:
        recorder.count("lp.float_undecided")


def install(recorder: SpanRecorder, trace_dir: str) -> None:
    """Wrap every layer's public functions for this process."""
    from repro.api import supervisor, task
    from repro.checker import encoder, explicit, parameterized
    from repro.counter import batch, program, store

    # ``repro.api.sweep`` the attribute is the function; wrap the module.
    sweep = importlib.import_module("repro.api.sweep")

    wrap = recorder.wrap
    wrap(task.VerificationTask, "model_for_target", "protocols.build")
    wrap(program.ProtocolProgram, "__init__", "program.compile")
    wrap(explicit, "shared_system", "system.bind")
    wrap(batch.BatchExpander, "expand_frontier", "batch.expand",
         after=_count_rows)
    checker = explicit.ExplicitChecker
    wrap(checker, "check_reach", "explicit.reach",
         after=_count_states("explicit.reach_states"), delta=_succ_entries)
    wrap(checker, "check_game", "explicit.game",
         after=_count_states("explicit.game_states"), delta=_succ_entries)
    wrap(checker, "side_condition", "explicit.side", delta=_succ_entries)
    wrap(explicit, "is_non_blocking", "fairness.non_blocking")
    wrap(explicit, "all_fair_executions_terminate",
         "fairness.fair_termination")
    wrap(store.GraphStore, "load_into", "store.load",
         after=_count_load_hits)
    wrap(store.GraphStore, "flush", "store.flush", after=_count_flushes,
         delta=_store_bytes)
    wrap(parameterized.ParameterizedChecker, "__init__", "param.setup",
         after=_count_milestones)
    wrap(parameterized.ParameterizedChecker, "check_reach", "param.query",
         after=_count_nschemas)
    wrap(encoder.SchemaEncoder, "encode", "param.encode")
    wrap(parameterized, "float_feasible", "lp.float", after=_count_float)
    wrap(parameterized, "lp_feasible", "lp.exact")
    wrap(parameterized, "ilp_feasible", "ilp.solve")

    # A sweep task run by a pool worker is one operation.
    run_task = sweep.run_task

    def traced_run_task(item):
        return recorder.call("op", run_task, item, label=item.task_id)

    sweep.run_task = traced_run_task

    worker_main = supervisor._worker_main

    def traced_worker_main(*args, **kwargs):
        recorder.reset()  # drop the spans inherited through fork
        try:
            return worker_main(*args, **kwargs)
        finally:
            path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(recorder.dump(), handle)

    supervisor._worker_main = traced_worker_main


def load_worker_dumps(trace_dir: str) -> List[dict]:
    """The span dumps pool workers left in ``trace_dir``."""
    dumps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as handle:
                dumps.append(json.load(handle))
    return dumps

"""The attributes ``e2ebench/bench_trace.py`` wraps must exist.

The traced benchmark run (``e2ebench/run.py --trace 1``) replaces these
attributes by ``getattr``/``setattr``; a refactor that renames one
breaks that run without failing anything else.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from repro.checker import explicit

BENCH_TRACE = Path(__file__).resolve().parents[2] / "e2ebench" / "bench_trace.py"

#: ``(module, owner class or "" for the module, attribute)`` it wraps.
EXPECTED = {
    ("repro.api.task", "VerificationTask", "model_for_target"),
    ("repro.counter.program", "ProtocolProgram", "__init__"),
    ("repro.checker.explicit", "", "shared_system"),
    ("repro.counter.batch", "BatchExpander", "expand_frontier"),
    ("repro.checker.explicit", "ExplicitChecker", "check_reach"),
    ("repro.checker.explicit", "ExplicitChecker", "check_game"),
    ("repro.checker.explicit", "ExplicitChecker", "side_condition"),
    ("repro.checker.explicit", "", "is_non_blocking"),
    ("repro.checker.explicit", "", "all_fair_executions_terminate"),
    ("repro.counter.store", "GraphStore", "load_into"),
    ("repro.counter.store", "GraphStore", "flush"),
    ("repro.checker.parameterized", "ParameterizedChecker", "__init__"),
    ("repro.checker.parameterized", "ParameterizedChecker", "check_reach"),
    ("repro.checker.encoder", "SchemaEncoder", "encode"),
    ("repro.checker.parameterized", "", "float_feasible"),
    ("repro.checker.parameterized", "", "lp_feasible"),
    ("repro.checker.parameterized", "", "ilp_feasible"),
    ("repro.api.sweep", "", "run_task"),
    ("repro.api.supervisor", "", "_worker_main"),
}


def test_every_wrapped_attribute_exists():
    missing = []
    for module, owner, attr in sorted(EXPECTED):
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert missing == []


class _Probe:
    """Stands in for the bench's span recorder; records, never patches."""

    def __init__(self):
        self.wrapped = set()

    def wrap(self, owner, attr, name, after=None, delta=None):
        assert callable(getattr(owner, attr)), (owner, attr)
        if inspect.ismodule(owner):
            self.wrapped.add((owner.__name__, "", attr))
        else:
            self.wrapped.add((owner.__module__, owner.__name__, attr))


def test_install_wraps_exactly_the_pinned_attributes(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    sweep = importlib.import_module("repro.api.sweep")
    supervisor = importlib.import_module("repro.api.supervisor")
    # install() assigns these two directly; monkeypatch restores them.
    direct = {(sweep, "run_task"), (supervisor, "_worker_main")}
    originals = {}
    for module, attr in direct:
        originals[module, attr] = getattr(module, attr)
        monkeypatch.setattr(module, attr, originals[module, attr])
    probe = _Probe()
    bench_trace.install(probe, str(tmp_path))
    for module, attr in direct:
        if getattr(module, attr) is not originals[module, attr]:
            probe.wrapped.add((module.__name__, "", attr))
    assert probe.wrapped == EXPECTED


def test_side_condition_calls_the_wrapped_module_names(monkeypatch):
    from repro.protocols import cc85

    calls = []

    def spy(name):
        original = getattr(explicit, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("is_non_blocking", "all_fair_executions_terminate"):
        monkeypatch.setattr(explicit, name, spy(name))
    checker = explicit.ExplicitChecker(cc85.model_a(), {"n": 4, "t": 1, "f": 1})
    assert checker.side_condition("non_blocking")
    assert checker.side_condition("fair_termination")
    assert calls == ["is_non_blocking", "all_fair_executions_terminate"]

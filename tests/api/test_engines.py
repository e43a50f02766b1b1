"""Engine adapters: golden equivalence, limits, and custom queries."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.errors import CheckError
from repro.protocols import cc85, mmr14

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "checker" / "data" / "seed_verdicts.json")
    .read_text()
)

#: Protocols whose full bundles are cheap enough for tier-1 (the slow
#: trio is covered by the gated sweep test in test_sweep.py).
FAST_PROTOCOLS = ("cc85a", "cc85b", "fmr05", "ks16", "aby22")


def stable_projection(outcome: api.ObligationOutcome) -> dict:
    return {
        "queries": [
            [q.query, q.verdict, q.states_explored] for q in outcome.queries
        ],
        "sides": dict(outcome.side_conditions),
    }


class TestExplicitEngine:
    @pytest.mark.parametrize("name", FAST_PROTOCOLS)
    def test_matches_seed_verdicts(self, name):
        result = api.verify(name, limits=api.Limits(max_states=150_000))
        assert result.engine == "explicit"
        for outcome in result.obligations:
            assert stable_projection(outcome) == GOLDEN[name][outcome.target]

    def test_state_budget_reports_limit(self):
        result = api.verify("cc85b", target="agreement",
                            limits=api.Limits(max_states=100))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_states"

    def test_wall_clock_reports_limit(self):
        # A deadline already in the past trips at the first periodic
        # check; cc85b agreement explores far more than the check stride.
        result = api.verify("cc85b", target="agreement",
                            limits=api.Limits(max_seconds=0.0))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_seconds"

    def test_wall_clock_covers_side_conditions(self):
        # Once the bundle deadline expires, side conditions are skipped
        # (distinguishable from genuine failure) instead of launching
        # more exploration; the verdict degrades to unknown.
        result = api.verify("cc85b", target="agreement",
                            limits=api.Limits(max_seconds=0.0))
        outcome = result.outcome("agreement")
        assert outcome.side_conditions == {}
        assert outcome.skipped_side_conditions == {
            "non_blocking": "max_seconds",
            "fair_termination": "max_seconds",
        }
        assert outcome.verdict == "unknown"
        assert "max_seconds" in outcome.limits_tripped

    def test_state_budget_covers_side_conditions(self):
        # An overflowing max_states must not report a side condition as
        # established — the incomplete search is recorded as skipped.
        result = api.verify("cc85a", target="validity",
                            limits=api.Limits(max_states=10))
        outcome = result.outcome("validity")
        assert outcome.skipped_side_conditions == {
            "non_blocking": "max_states",
            "fair_termination": "max_states",
        }
        assert outcome.verdict == "unknown"

    def test_custom_query_on_custom_model(self):
        from repro.spec.properties import PropertyLibrary

        model = mmr14.refined_model()
        result = api.verify(
            model=model,
            valuation={"n": 4, "t": 1, "f": 1},
            queries=(PropertyLibrary(model).cb(2),),
        )
        (query,) = result.queries
        assert query.verdict == "violated"
        assert query.counterexample is not None
        assert result.outcome("custom").verdict == "violated"

    def test_custom_model_needs_valuation(self):
        with pytest.raises(CheckError):
            api.verify(model=cc85.model_a(), target="validity")


def _timeless(data):
    """``TaskResult.to_dict()`` without its wall-clock fields."""
    if isinstance(data, dict):
        return {k: _timeless(v) for k, v in data.items() if k != "time_seconds"}
    if isinstance(data, list):
        return [_timeless(v) for v in data]
    return data


def _fresh_process_verify(protocol: str, max_states: int) -> dict:
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys\n"
        "from repro import api\n"
        f"result = api.verify({protocol!r}, "
        f"limits=api.Limits(max_states={max_states}))\n"
        "json.dump(result.to_dict(), sys.stdout)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout)


class TestProcessHistory:
    """The memoized side-condition pass never leaks across budgets."""

    # 3000 cuts cc85b's side-condition pass (its agreement system has
    # ~7k progress configs); 8000 lets it decide.
    @pytest.mark.parametrize("low", [3000, 8000])
    def test_low_budget_after_a_decided_run_matches_a_fresh_process(self, low):
        decided = api.verify("cc85b")
        assert all(not o.skipped_side_conditions for o in decided.obligations)
        here = api.verify("cc85b", limits=api.Limits(max_states=low))
        fresh = _fresh_process_verify("cc85b", low)
        assert _timeless(here.to_dict()) == _timeless(fresh)
        skipped = [o.skipped_side_conditions for o in here.obligations]
        assert any(skipped) == (low == 3000)

    def test_a_pass_cut_by_the_clock_is_not_reused(self):
        # mmr14 validity: its queries see a few hundred states, but the
        # side-condition pass walks tens of thousands, so a 0.1 s
        # deadline cuts it (or skips it outright on a slow machine).
        cut = api.verify("mmr14", target="validity",
                         limits=api.Limits(max_seconds=0.1))
        assert cut.outcome("validity").skipped_side_conditions == {
            "non_blocking": "max_seconds",
            "fair_termination": "max_seconds",
        }
        rerun = api.verify("mmr14", target="validity")
        outcome = rerun.outcome("validity")
        assert outcome.skipped_side_conditions == {}
        assert outcome.side_conditions == {
            "non_blocking": True,
            "fair_termination": True,
        }


class TestParameterizedEngine:
    def test_safety_holds_parametrically(self):
        result = api.verify("cc85a", targets=("validity",),
                            engine="parameterized")
        outcome = result.outcome("validity")
        assert outcome.verdict == "holds"
        assert outcome.nschemas > 0
        assert result.valuation == {}  # quantifies over all valuations

    def test_game_queries_reported_unknown(self):
        # Category B termination is all E-queries: explicit-only.
        result = api.verify("cc85a", target="termination",
                            engine="parameterized")
        outcome = result.outcome("termination")
        assert outcome.verdict == "unknown"
        assert all(q.verdict == "unknown" for q in outcome.queries)
        assert all("explicit engine" in q.detail for q in outcome.queries)

    def test_node_budget_reports_limit(self):
        result = api.verify("cc85a", targets=("agreement",),
                            engine="parameterized",
                            limits=api.Limits(max_nodes=10))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_nodes"

    def test_wall_clock_reports_limit(self):
        # cc85a's inv1 DFS needs ~27k nodes, far beyond the wall-clock
        # check stride, so a zero budget trips deterministically.
        result = api.verify("cc85a", targets=("agreement",),
                            engine="parameterized",
                            limits=api.Limits(max_seconds=0.0))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_seconds"

    def test_parameterized_witness_replayed(self):
        from repro.spec.properties import PropertyLibrary

        model = mmr14.refined_model()
        result = api.verify(model=model, engine="parameterized",
                            queries=(PropertyLibrary(model).cb(2),))
        (query,) = result.queries
        assert query.verdict == "violated"
        valuation = query.counterexample.valuation
        assert valuation["n"] > valuation["t"]


class TestEngineRegistry:
    def test_builtins_registered(self):
        assert set(api.engine_names()) >= {"explicit", "parameterized"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(CheckError):
            api.engine_for("quantum")

    def test_register_custom_engine(self):
        class EchoEngine:
            name = "echo"

            def run(self, task):
                return api.TaskResult(
                    task_id=task.task_id,
                    protocol=task.protocol_name,
                    engine="echo",
                )

        api.register_engine("echo", EchoEngine)
        try:
            result = api.verify("mmr14", target="validity", engine="echo")
            assert result.engine == "echo"
            assert result.task_id.endswith("@echo")
        finally:
            del api.ENGINES["echo"]


class TestTaskShape:
    def test_task_requires_exactly_one_source(self):
        with pytest.raises(CheckError):
            api.VerificationTask()
        with pytest.raises(CheckError):
            api.VerificationTask(protocol="mmr14", model=mmr14.model)

    def test_unknown_target_rejected(self):
        with pytest.raises(CheckError):
            api.VerificationTask(protocol="mmr14", targets=("liveness",))

    def test_defaults_to_all_targets(self):
        task = api.VerificationTask(protocol="mmr14")
        assert task.targets == api.TARGETS

    def test_task_id_is_deterministic(self):
        a = api.VerificationTask(protocol="mmr14", targets=("validity",))
        b = api.VerificationTask(protocol="mmr14", targets=("validity",))
        assert a.task_id == b.task_id == "mmr14[f=1,n=4,t=1]/validity@explicit"

    def test_termination_uses_refined_model(self):
        task = api.VerificationTask(protocol="mmr14")
        assert task.model_for_target("termination").name != \
            task.model_for_target("agreement").name

"""Tests for the Theorem 2 side conditions (fair termination, non-blocking)."""

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

from repro.api.engines import DEFAULT_MAX_STATES
from repro.api.task import VerificationTask
from repro.checker.explicit import ExplicitChecker
from repro.core.builder import AutomatonBuilder
from repro.core.system import SystemModel
from repro.counter.config import Config
from repro.counter.fairness import (
    all_fair_executions_terminate,
    find_progress_cycle,
    is_non_blocking,
    progress_successors,
    side_condition_pass,
)
from repro.counter.system import CounterSystem
from repro.errors import DeadlineExceeded, StateBudgetExceeded
from repro.protocols import cc85, mmr14, naive_voting
from repro.protocols.registry import benchmark, by_name
from repro.spec.obligations import ObligationSet

# ----------------------------------------------------------------------
# Oracle: the two separate traversals the single pass replaced, kept
# here only to pin that the pass decides exactly what they decided.
# ----------------------------------------------------------------------


def _check_deadline(count: int, deadline: Optional[float]) -> None:
    if deadline is not None and not count & 0xFF and (
        time.perf_counter() > deadline
    ):
        raise DeadlineExceeded("side-condition wall-clock budget exhausted")


def oracle_find_progress_cycle(
    system: CounterSystem,
    initial: Iterable[Config],
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> Optional[Tuple[Config, ...]]:
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Config, int] = {}
    parent: Dict[Config, Optional[Config]] = {}

    for root in initial:
        if colour.get(root, WHITE) is not WHITE:
            continue
        stack: List[Tuple[Config, Iterable[Config]]] = [
            (root, iter(progress_successors(system, root)))
        ]
        colour[root] = GREY
        parent[root] = None
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                state = colour.get(succ, WHITE)
                if state == GREY:
                    cycle = [succ, node]
                    cursor = parent[node]
                    while cursor is not None and cursor != succ:
                        cycle.append(cursor)
                        cursor = parent[cursor]
                    cycle.reverse()
                    return tuple(cycle)
                if state == WHITE:
                    if len(colour) >= max_states:
                        raise StateBudgetExceeded(
                            f"progress-cycle search exceeded {max_states} states"
                        )
                    _check_deadline(len(colour), deadline)
                    colour[succ] = GREY
                    parent[succ] = node
                    stack.append((succ, iter(progress_successors(system, succ))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def oracle_is_non_blocking(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    resting = system.program.resting_locations
    configs = list(initial) if initial is not None else list(system.initial_configs())
    seen: Set[Config] = set(configs)
    frontier = list(configs)
    pops = 0
    while frontier:
        if len(seen) > max_states:
            raise StateBudgetExceeded(
                f"non-blocking search exceeded {max_states} states"
            )
        pops += 1
        _check_deadline(pops, deadline)
        config = frontier.pop()
        successors = progress_successors(system, config)
        busy = any(
            config.counter(k, i) > 0
            for k in range(config.rounds)
            for i in range(len(system.locations))
            if i not in resting
        )
        if busy and not successors:
            return False
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return True


def oracle_sides(system: CounterSystem, max_states: int):
    """``(side_conditions, skipped_side_conditions)`` of the old code."""
    sides, skipped = {}, {}
    initial = list(system.initial_configs())
    checks = {
        "non_blocking": lambda: oracle_is_non_blocking(
            system, initial, max_states=max_states),
        "fair_termination": lambda: oracle_find_progress_cycle(
            system, initial, max_states=max_states) is None,
    }
    for name, check in checks.items():
        try:
            sides[name] = check()
        except StateBudgetExceeded:
            skipped[name] = "max_states"
    return sides, skipped


def reachable_progress_configs(system: CounterSystem) -> int:
    """R, the number of progress configs reachable from the initial ones.

    Expands a BFS level at a time through the batch expander when numpy
    is there, which warms the successor cache for the runs that follow.
    """
    seen = set(system.initial_configs())
    level = list(seen)
    expander = system.batch_expander()
    while level:
        if expander is not None:
            expander.expand_frontier(level)
        next_level = []
        for config in level:
            for succ in progress_successors(system, config):
                if succ not in seen:
                    seen.add(succ)
                    next_level.append(succ)
        level = next_level
    return len(seen)


def is_progress_cycle(system: CounterSystem, cycle) -> bool:
    return len(cycle) >= 2 and all(
        cycle[i] in progress_successors(system, cycle[i - 1])
        for i in range(len(cycle))
    )


def _model(name, process):
    return SystemModel(
        name=name,
        environment=naive_voting.model().environment,
        process=process,
    )


def pingpong_model():
    b = AutomatonBuilder("pingpong")
    b.initial("A")
    b.location("B")
    b.rule("go", "A", "B")
    b.rule("back", "B", "A")
    return _model("pingpong", b.build(check=None))


def stuck_model():
    b = AutomatonBuilder("stuck")
    b.shared("x")
    b.initial("A")
    b.final("B")
    # Guard can never fire: x is never incremented.
    b.rule("go", "A", "B", guard=b.var("x") >= 1)
    return _model("stuck", b.build(check=None))


def stuck_and_cyclic_model():
    """Processes may loop A <-> B or leave to C, where they are stuck."""
    b = AutomatonBuilder("stuck_cyclic")
    b.shared("x")
    b.initial("A")
    b.location("B")
    b.location("C")
    b.final("D")
    b.rule("go", "A", "B")
    b.rule("back", "B", "A")
    b.rule("leave", "A", "C")
    # Guard can never fire: x is never incremented.
    b.rule("finish", "C", "D", guard=b.var("x") >= 1)
    return _model("stuck_cyclic", b.build(check=None))


class TestTermination:
    def test_naive_voting_terminates(self):
        system = CounterSystem(naive_voting.model(), {"n": 3, "f": 1})
        assert all_fair_executions_terminate(system)

    def test_mmr14_single_round_terminates(self):
        system = CounterSystem(mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1})
        assert all_fair_executions_terminate(system)

    def test_ping_pong_cycle_detected(self):
        system = CounterSystem(pingpong_model(), {"n": 3, "f": 1})
        cycle = find_progress_cycle(system, system.initial_configs())
        assert cycle is not None
        assert is_progress_cycle(system, cycle)
        assert not all_fair_executions_terminate(system)


class TestNonBlocking:
    def test_mmr14_single_round_non_blocking(self):
        system = CounterSystem(mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1})
        assert is_non_blocking(system)

    def test_blocked_automaton_detected(self):
        system = CounterSystem(stuck_model(), {"n": 3, "f": 1})
        assert not is_non_blocking(system)


class TestWitnessModels:
    def test_blocking_and_cyclic_both_false(self):
        system = CounterSystem(stuck_and_cyclic_model(), {"n": 3, "f": 1})
        result = side_condition_pass(system)
        assert result.limit is None
        assert result.non_blocking is False
        assert result.fair_termination is False
        assert not is_non_blocking(system)
        assert not all_fair_executions_terminate(system)
        assert is_progress_cycle(system, find_progress_cycle(system))

    @pytest.mark.parametrize("model", [pingpong_model, stuck_and_cyclic_model])
    def test_cycle_witness_is_a_progress_cycle(self, model):
        system = CounterSystem(model(), {"n": 3, "f": 1})
        cycle = find_progress_cycle(system)
        assert cycle is not None
        assert is_progress_cycle(system, cycle)
        oracle = oracle_find_progress_cycle(system, system.initial_configs())
        assert is_progress_cycle(system, oracle)

    @pytest.mark.parametrize(
        "model", [pingpong_model, stuck_model, stuck_and_cyclic_model]
    )
    def test_witness_models_match_oracle(self, model):
        system = CounterSystem(model(), {"n": 3, "f": 1})
        assert is_non_blocking(system) == oracle_is_non_blocking(system)
        assert all_fair_executions_terminate(system) == (
            oracle_find_progress_cycle(system, system.initial_configs()) is None
        )


def cc85b_system():
    """A private single-round cc85b system (a few thousand configs)."""
    valuation = by_name("cc85b").small_valuation
    return CounterSystem(cc85.model_b().single_round(), valuation)


class TestMemo:
    def test_decided_pass_is_reused(self):
        system = cc85b_system()
        first = side_condition_pass(system)
        assert system.side_pass is first
        assert side_condition_pass(system, max_states=first.states) is first

    def test_budget_below_the_memo_recomputes_and_trips(self):
        system = cc85b_system()
        first = side_condition_pass(system)
        with pytest.raises(StateBudgetExceeded):
            is_non_blocking(system, max_states=first.states - 1)
        with pytest.raises(StateBudgetExceeded):
            find_progress_cycle(system, max_states=first.states - 1)
        assert system.side_pass is first

    def test_cut_pass_is_not_memoized(self):
        system = cc85b_system()
        with pytest.raises(StateBudgetExceeded):
            is_non_blocking(system, max_states=10)
        with pytest.raises(DeadlineExceeded):
            all_fair_executions_terminate(system, deadline=0.0)
        assert system.side_pass is None
        assert is_non_blocking(system)
        assert system.side_pass is not None

    def test_other_roots_are_not_served_from_the_memo(self):
        system = CounterSystem(pingpong_model(), {"n": 3, "f": 1})
        assert not all_fair_executions_terminate(system)
        # The memo of the default roots must not answer for other roots.
        roots = (system.make_config({"B": 3}),)
        assert side_condition_pass(system, roots).roots == roots


# ----------------------------------------------------------------------
# Budget equivalence against the oracle, on every registry protocol and
# target at its smallest valuation.
# ----------------------------------------------------------------------

CASES = [
    (entry.name, target)
    for entry in benchmark()
    for target in ("agreement", "validity", "termination")
]


def _sides_only(checker: ExplicitChecker):
    report = checker.check_obligations(
        ObligationSet(
            protocol=checker.model.name,
            target="sides",
            side_conditions=("non_blocking", "fair_termination"),
        )
    )
    return report.side_conditions, report.skipped_side_conditions


#: (program key, valuation) -> rows of budget_rows; targets bound to
#: one system (agreement and validity, all three on rabin83) share them.
_ROWS: dict = {}


def budget_rows(model, valuation):
    """``(budget, checker sides, oracle sides, memo set)`` at R-1, R, R+1
    and the default budget, on one private system.

    The system stays out of the process-wide shared ones.  The oracle
    and the checker share its successor cache, never its memo (the
    oracle does not read it).  Ascending budgets also pin the memo: a
    cut pass leaves it empty, and a decided one serves the rest.
    """
    checker = ExplicitChecker(model, valuation)
    key = (checker.system.program.key, tuple(sorted(valuation.items())))
    if key not in _ROWS:
        system = CounterSystem(checker.model, valuation)
        checker.system = system
        reachable = reachable_progress_configs(system)
        rows = []
        for budget in (reachable - 1, reachable, reachable + 1,
                       DEFAULT_MAX_STATES):
            checker.max_states = budget
            sides = _sides_only(checker)
            rows.append((budget, sides, oracle_sides(system, budget),
                         system.side_pass is not None))
        _ROWS[key] = rows
    return _ROWS[key]


@pytest.mark.parametrize("protocol,target", CASES)
def test_budget_equivalence_with_the_oracle(protocol, target):
    task = VerificationTask(protocol=protocol, targets=(target,))
    rows = budget_rows(task.model_for_target(target), task.resolved_valuation())
    for budget, sides, expected, memoized in rows:
        assert sides == expected, budget
        assert memoized == (not expected[1]), budget

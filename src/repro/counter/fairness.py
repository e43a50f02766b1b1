"""Theorem 2's side conditions, answered by one memoized pass per system.

Theorem 2 requires the single-round system to be *non-blocking* and all
its fair executions to terminate.  An infinite path is fair when no
transition stays applicable forever (§III-D); in a single-round system
whose border copies only carry self-loops, fair termination is
equivalent to the absence of *progress cycles* — cycles in the
reachable graph of configuration-changing actions.  Shared variables
only grow, so any such cycle would have to move processes around a
zero-update location cycle; canonical automata make this detectable by
plain cycle search on the explicit graph.

Neither condition depends on the property being checked, so
:func:`side_condition_pass` answers both in one iterative DFS over
:func:`progress_successors`: a successor still on the stack closes a
progress cycle, and a *busy* configuration (a process outside the
resting locations) without progress successors is a dead end.  The DFS
stops once both answers are ``False``.  A decided pass is memoized on
the system (``CounterSystem.side_pass``) and serves every later target
bound to it, under any ``max_states`` at least the number of
configurations it saw: a fresh pass under such a budget walks the same
DFS and never trips it.  A pass cut by ``max_states`` or the deadline
is never memoized.  The three public checks are views of that pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.counter.config import Config
from repro.counter.system import CounterSystem
from repro.errors import DeadlineExceeded, StateBudgetExceeded

#: DFS colours; a root not yet entered is seen but still white.
_WHITE, _GREY, _BLACK = 0, 1, 2


@dataclass(frozen=True)
class SidePass:
    """One pass's answers; ``None`` where a budget (``limit``) cut it first."""

    roots: Tuple[Config, ...]
    non_blocking: Optional[bool]
    fair_termination: Optional[bool]
    cycle: Optional[Tuple[Config, ...]]  # witness when fair termination fails
    states: int  # configurations seen, roots included
    limit: Optional[str] = None


def progress_successors(system: CounterSystem, config: Config) -> List[Config]:
    """Successors via configuration-changing actions (value inequality),
    from the successor cache the queries on ``system`` share."""
    result = []
    for group in system.successor_groups(config):
        for _action, successor in group:
            if successor != config:
                result.append(successor)
    return result


def side_condition_pass(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> SidePass:
    """Both side conditions from ``initial`` (default: every initial
    configuration); ``deadline`` is an absolute ``perf_counter`` time."""
    roots = tuple(system.initial_configs() if initial is None else initial)
    memo = system.side_pass
    if memo is not None and memo.states <= max_states and memo.roots == roots:
        return memo
    result = _walk(system, roots, max_states, deadline)
    if result.limit is None:
        system.side_pass = result
    return result


def _walk(
    system: CounterSystem,
    roots: Tuple[Config, ...],
    max_states: int,
    deadline: Optional[float],
) -> SidePass:
    resting = system.program.resting_locations
    busy_offsets: Dict[int, Tuple[int, ...]] = {}  # rounds -> busy cells
    colour: Dict[Config, int] = dict.fromkeys(roots, _WHITE)
    stack: List[Tuple[Config, Iterator[Config]]] = []
    blocked = False
    cycle: Optional[Tuple[Config, ...]] = None

    def finish(limit: Optional[str] = None) -> SidePass:
        holds = None if limit is not None else True
        return SidePass(
            roots, False if blocked else holds,
            False if cycle is not None else holds, cycle, len(colour), limit,
        )

    def enter(config: Config) -> None:
        nonlocal blocked
        colour[config] = _GREY
        successors = progress_successors(system, config)
        if not successors and not blocked:
            offsets = busy_offsets.get(config.rounds)
            if offsets is None:
                offsets = busy_offsets[config.rounds] = tuple(
                    k * system.block + i
                    for k in range(config.rounds)
                    for i in range(system.n_locs)
                    if i not in resting
                )
            blocked = any(config.data[offset] for offset in offsets)
        stack.append((config, iter(successors)))

    if len(colour) > max_states:
        return finish("max_states")
    for root in roots:
        if colour[root] != _WHITE:
            continue
        enter(root)
        while stack:
            if blocked and cycle is not None:
                return finish()
            node, successors = stack[-1]
            for succ in successors:
                state = colour.get(succ)
                if state is None:
                    if len(colour) >= max_states:
                        return finish("max_states")
                    if deadline is not None and not len(colour) & 0xFF and (
                        time.perf_counter() > deadline
                    ):
                        return finish("max_seconds")
                elif state == _GREY:
                    if cycle is None:
                        # The stack above succ, then succ, closes it.
                        nodes = [entry[0] for entry in stack]
                        start = len(nodes) - 1
                        while nodes[start] != succ:
                            start -= 1
                        cycle = tuple(nodes[start + 1:]) + (succ,)
                    continue
                elif state == _BLACK:
                    continue
                enter(succ)
                break
            else:
                colour[node] = _BLACK
                stack.pop()
    return finish()


def _decided(
    name: str,
    system: CounterSystem,
    initial: Optional[Iterable[Config]],
    max_states: int,
    deadline: Optional[float],
) -> SidePass:
    """The pass, or the budget error that cut it before ``name`` was known
    ("not found so far" must not read as "none exists")."""
    result = side_condition_pass(system, initial, max_states, deadline)
    if getattr(result, name) is None:
        if result.limit == "max_states":
            raise StateBudgetExceeded(
                f"side-condition search exceeded {max_states} states"
            )
        raise DeadlineExceeded("side-condition wall-clock budget exhausted")
    return result


def find_progress_cycle(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> Optional[Tuple[Config, ...]]:
    """A progress cycle — each configuration a progress successor of the
    one before, the first following the last — or ``None``."""
    return _decided(
        "fair_termination", system, initial, max_states, deadline
    ).cycle


def all_fair_executions_terminate(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    """Theorem 2's fair-termination side condition: no progress cycle."""
    return _decided(
        "fair_termination", system, initial, max_states, deadline
    ).fair_termination


def is_non_blocking(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    """Every reachable busy configuration has a progress successor."""
    return _decided(
        "non_blocking", system, initial, max_states, deadline
    ).non_blocking

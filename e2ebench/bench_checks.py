"""Correctness checks of the workloads' outputs.

Every check returns a list of human-readable mismatches; an empty list
means the output is correct.  The inputs are the JSON forms the public
API produces (``TaskResult.to_dict``, ``RunReport.to_dict``) and the
golden fixture ``tests/checker/data/seed_verdicts.json``, which is only
ever read.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

DECIDED = ("holds", "violated")


def query_rows(result: Mapping) -> Dict[str, dict]:
    """``{target: {"queries": [[name, verdict, states]], "sides": …}}``."""
    return {
        obligation["target"]: {
            "queries": [[q["query"], q["verdict"], q["states_explored"]]
                        for q in obligation["queries"]],
            "sides": dict(obligation["side_conditions"]),
        }
        for obligation in result["obligations"]
    }


def check_verify(protocol: str, result: Mapping, golden: Mapping) -> List[str]:
    """A cold explicit verify must reproduce the golden verdicts exactly."""
    if result.get("error"):
        return [f"{protocol}: error {result['error']}"]
    expected = golden.get(protocol)
    if expected is None:
        return [f"{protocol}: no golden entry"]
    got = query_rows(result)
    problems = []
    for target, want in expected.items():
        have = got.get(target)
        if have is None:
            problems.append(f"{protocol}/{target}: missing")
            continue
        if have["queries"] != want["queries"]:
            problems.append(f"{protocol}/{target}: queries {have['queries']}"
                            f" != golden {want['queries']}")
        if have["sides"] != want["sides"]:
            problems.append(f"{protocol}/{target}: sides {have['sides']}"
                            f" != golden {want['sides']}")
    for target in got:
        if target not in expected:
            problems.append(f"{protocol}/{target}: not in golden")
    return problems


def _decided_against_golden(result: Mapping, golden: Mapping) -> List[str]:
    """Each decided query of a smallest-valuation task equals the golden."""
    problems = []
    expected = golden.get(result["protocol"], {})
    for target, have in query_rows(result).items():
        want = expected.get(target)
        if want is None:
            continue
        reference = {row[0]: row for row in want["queries"]}
        for row in have["queries"]:
            if row[1] in DECIDED and reference.get(row[0]) != row:
                problems.append(f"{result['task_id']}: {row} != golden "
                                f"{reference.get(row[0])}")
        for name, value in have["sides"].items():
            if want["sides"].get(name) != value:
                problems.append(f"{result['task_id']}: side {name}={value}"
                                " != golden")
    return problems


def check_ladder(low: Mapping, high: Mapping, golden: Mapping,
                 small: Mapping[str, Mapping]) -> List[List[str]]:
    """Check the two sweep passes; returns the problems of each task.

    No task may return an error or time out (even if a retry then
    succeeded), a verdict decided at the low budget must be unchanged
    at the high one, and a decided query of a task at the protocol's
    smallest valuation must equal the golden fixture.  The result lists
    the low pass's tasks, then the high pass's.
    """
    problems: List[List[str]] = []
    for report in (low, high):
        for result in report["results"]:
            found = [f"{result['task_id']}: error {result['error']}"] \
                if result.get("error") else []
            if result.get("timed_out"):
                found.append(f"{result['task_id']}: timed out")
            if not found and small.get(result["protocol"]) == result["valuation"]:
                found += _decided_against_golden(result, golden)
            problems.append(found)
    if len(low["results"]) != len(high["results"]):
        problems[-1].append("the two passes ran different task lists")
        return problems
    offset = len(low["results"])
    for index, (before, after) in enumerate(zip(low["results"],
                                                high["results"])):
        if before["task_id"] != after["task_id"]:
            problems[offset + index].append(
                f"task order differs: {before['task_id']} vs "
                f"{after['task_id']}")
            continue
        verdicts = {row[0]: row[1]
                    for target in query_rows(after).values()
                    for row in target["queries"]}
        for target in query_rows(before).values():
            for name, verdict, _states in target["queries"]:
                if verdict in DECIDED and verdicts.get(name) != verdict:
                    problems[offset + index].append(
                        f"{after['task_id']}: {name} {verdict} at the low "
                        f"budget but {verdicts.get(name)} at the high one")
    return problems


def check_param_query(protocol: str, target: str, query: Mapping,
                      reference: Mapping, golden: Mapping) -> List[str]:
    """A parameterized answer must not flip or contradict the explicit one.

    A verdict decided in ``reference`` (the seed's answers) must stay;
    an ``unknown`` there may become decided.  A parametric ``holds``
    contradicts the golden explicit verdict if that one is ``violated``.
    """
    problems = []
    name, verdict = query["query"], query["verdict"]
    key = f"{protocol}/{target}/{name}"
    before = reference.get(key)
    if before in DECIDED and verdict != before:
        problems.append(f"{key}: {verdict}, reference {before}")
    explicit = {row[0]: row[1] for row in
                golden.get(protocol, {}).get(target, {}).get("queries", ())}
    if verdict == "holds" and explicit.get(name) == "violated":
        problems.append(f"{key}: holds for all n, explicit run violated")
    return problems


def check_fleet(fleet: Mapping) -> List[str]:
    """No error seeds and no agreement or validity violations."""
    problems = []
    protocol = fleet["protocol"]
    for field in ("errors", "agreement_violations", "validity_violations"):
        if fleet[field]:
            problems.append(f"{protocol}: {fleet[field]} {field}")
    return problems


def check_repeat(first: Mapping, current: Mapping) -> List[str]:
    """Keys whose value differs from the first pass's.

    Used on what must be deterministic: fleet report digests,
    parameterized verdicts with their ``nschemas``, sweep verdicts.
    """
    return [f"{key}: {current.get(key)} != first pass {first.get(key)}"
            for key in sorted(set(first) | set(current))
            if first.get(key) != current.get(key)]

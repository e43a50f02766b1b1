"""Tests of the benchmark's own helpers (no workload is run).

Run with ``python -m pytest e2ebench -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import bench_calib
from bench_checks import (check_fleet, check_ladder, check_param_query,
                          check_repeat, check_verify)
from bench_stats import percentile, spread
from bench_trace import SpanRecorder, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentiles ---------------------------------------------------------
def test_percentile_reports_value_and_sample_count():
    samples = [float(v) for v in range(10, 0, -1)]
    assert percentile(samples, 50) == (5.5, 10)
    value, count = percentile(samples, 90)
    assert value == pytest.approx(9.1)
    assert count == 10


def test_percentile_of_one_sample_and_of_none():
    assert percentile([0.25], 90) == (0.25, 1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([9.0, 10.0, 10.0, 11.0]) > 0


# -- host-speed calibration ----------------------------------------------
def test_scale_rescales_to_the_reference_chunk_time():
    ref = bench_calib.REFERENCE_CHUNK_S
    assert bench_calib.scale([ref] * 4) == pytest.approx(1.0)
    # a host twice as slow halves every reported time
    assert bench_calib.scale([2 * ref] * 4) == pytest.approx(0.5)
    # slow and fast moments count by their mean
    assert bench_calib.scale([ref, 3 * ref]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        bench_calib.scale([])


def test_calibrator_rescales_a_process_by_its_own_chunks(tmp_path):
    calibrator = bench_calib.Calibrator(str(tmp_path / "calibration.txt"))
    try:
        began = time.monotonic()
        while len(calibrator.between(began, time.monotonic())) < 3:
            assert time.monotonic() - began < 30
            time.sleep(0.05)
    finally:
        calibrator.stop()
    assert calibrator.process.returncode is not None
    ended = time.monotonic()
    inside = calibrator.between(began, ended)
    assert len(inside) >= 3 and all(seconds > 0 for seconds in inside)
    # a window without chunks falls back on every chunk of the run
    assert calibrator.between(ended + 1, ended + 2) == [
        seconds for _ended, seconds in calibrator.chunks]


# -- spans ---------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        [1, 0, "op", 0, 100, "x"],
        [2, 1, "a", 10, 40, ""],
        [3, 2, "b", 20, 30, ""],
        [4, 1, "a", 50, 60, ""],
    ]
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}
    summary = summarize([{"spans": spans, "counters": {"n": 2}}])
    assert summary["self_s"]["a"] == pytest.approx(30e-9)
    assert summary["total_s"]["a"] == pytest.approx(40e-9)
    assert summary["calls"] == {"op": 1, "a": 2, "b": 1}
    assert summary["ops"] == [("x", pytest.approx(100e-9),
                               pytest.approx(60e-9))]


def test_recorder_wraps_and_nests_calls():
    class Layer:
        def inner(self):
            return 3

        def outer(self):
            return self.inner() + 1

    recorder = SpanRecorder()
    recorder.wrap(Layer, "inner", "layer.inner",
                  after=lambda rec, result, _args: rec.count("rows", result))
    recorder.wrap(Layer, "outer", "layer.outer")
    assert recorder.call("op", Layer().outer, label="one") == 4
    by_name = {span[2]: span for span in recorder.spans}
    assert by_name["layer.inner"][1] == by_name["layer.outer"][0]
    assert by_name["layer.outer"][1] == by_name["op"][0]
    assert by_name["op"][5] == "one"
    assert recorder.counters["rows"] == 3


# -- correctness checks --------------------------------------------------
GOLDEN = {"p": {"agreement": {
    "queries": [["inv1[0]", "holds", 100], ["inv1[1]", "violated", 7]],
    "sides": {"non_blocking": True},
}}}


def _result(rows, sides=None, task_id="p[n=4]/agreement", valuation=None):
    return {
        "task_id": task_id, "protocol": "p", "error": "",
        "valuation": valuation or {"n": 4},
        "verdict": "unknown",
        "obligations": [{
            "target": "agreement",
            "queries": [{"query": q, "verdict": v, "states_explored": s}
                        for q, v, s in rows],
            "side_conditions": sides if sides is not None
            else {"non_blocking": True},
        }],
    }


def test_verify_check_accepts_the_golden_answer():
    rows = GOLDEN["p"]["agreement"]["queries"]
    assert check_verify("p", _result(rows), GOLDEN) == []


def test_verify_check_rejects_a_flipped_verdict():
    rows = [["inv1[0]", "violated", 100], ["inv1[1]", "violated", 7]]
    assert check_verify("p", _result(rows), GOLDEN)


def test_verify_check_rejects_a_changed_states_explored():
    rows = [["inv1[0]", "holds", 101], ["inv1[1]", "violated", 7]]
    assert check_verify("p", _result(rows), GOLDEN)


def test_verify_check_rejects_errors_and_side_conditions():
    rows = GOLDEN["p"]["agreement"]["queries"]
    assert check_verify("p", _result(rows, sides={"non_blocking": False}),
                        GOLDEN)
    assert check_verify("p", dict(_result(rows), error="Boom"), GOLDEN)


def test_ladder_check_rejects_a_verdict_flipped_by_a_higher_budget():
    low = {"results": [_result([["inv1[0]", "holds", 50]])]}
    same = {"results": [_result([["inv1[0]", "holds", 50]])]}
    flipped = {"results": [_result([["inv1[0]", "violated", 60]])]}
    decided = {"results": [_result([["inv1[0]", "unknown", 80]])]}
    assert check_ladder(low, same, {}, {}) == [[], []]
    assert check_ladder(low, flipped, {}, {})[1]
    # unknown at the low budget may become anything at the high one
    assert check_ladder(decided, flipped, {}, {}) == [[], []]


def test_ladder_check_rejects_errors_and_timeouts():
    good = {"results": [_result([["inv1[0]", "holds", 50]])]}
    timed_out = {"results": [dict(good["results"][0], timed_out=True)]}
    failed = {"results": [dict(good["results"][0], error="Boom")]}
    assert check_ladder(good, timed_out, {}, {})[1]
    assert check_ladder(failed, good, {}, {})[0]


def test_ladder_check_holds_smallest_valuation_to_the_golden():
    small = {"p": {"n": 4}}
    wrong = {"results": [_result([["inv1[0]", "holds", 99]])]}
    unknown = {"results": [_result([["inv1[0]", "unknown", 99]])]}
    assert check_ladder(wrong, wrong, GOLDEN, small)[0]
    assert check_ladder(unknown, unknown, GOLDEN, small) == [[], []]
    other = {"results": [_result([["inv1[0]", "holds", 99]],
                                 valuation={"n": 5})]}
    assert check_ladder(other, other, GOLDEN, small) == [[], []]


def test_param_check_rejects_a_flip_but_not_a_new_decision():
    reference = {"p/agreement/inv1[0]": "holds",
                 "p/agreement/inv1[1]": "unknown"}
    flipped = {"query": "inv1[0]", "verdict": "unknown"}
    assert check_param_query("p", "agreement", flipped, reference, {})
    newly = {"query": "inv1[1]", "verdict": "holds"}
    assert check_param_query("p", "agreement", newly, reference, {}) == []


def test_param_check_rejects_holds_against_an_explicit_violation():
    query = {"query": "inv1[1]", "verdict": "holds"}
    assert check_param_query("p", "agreement", query, {}, GOLDEN)


def test_repeat_check_rejects_a_changed_fleet_digest():
    first = {"mmr14": "ab12", "cc85a": "cd34"}
    assert check_repeat(first, dict(first)) == []
    assert check_repeat(first, {"mmr14": "ab13", "cc85a": "cd34"})


def test_fleet_check_rejects_errors_and_violations():
    fleet = {"protocol": "mmr14", "errors": 0, "agreement_violations": 0,
             "validity_violations": 0}
    assert check_fleet(fleet) == []
    assert check_fleet(dict(fleet, agreement_violations=2))
    assert check_fleet(dict(fleet, errors=1))


# -- command line --------------------------------------------------------
def test_run_fails_without_a_program_to_benchmark(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "sim-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)

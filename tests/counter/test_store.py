"""The persistent state-graph store and the shared intern tables.

Two invariants rule everything here:

* **results-neutral** — warm-from-disk systems reproduce cold verdicts
  and ``states_explored`` bit-identically (a stored graph is exactly
  what cold expansion produces, entry order included);
* **best-effort** — any bad entry (truncated, hand-edited, stale code
  version, wrong valuation) or disk failure degrades to a cold miss,
  never a crash.
"""

import hashlib
import json
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.counter.program import ProtocolProgram, shared_program
from repro.counter.store import (
    GraphStore,
    activate_graph_store,
    active_graph_store,
    deactivate_graph_store,
    _safe_loads,
    key_version,
    program_digest,
    store_directory,
    valuation_digest,
)
from repro.counter.system import (
    CounterSystem,
    clear_shared_caches,
    flush_shared_graphs,
    shared_system,
)
from repro.protocols import cc85, ks16, naive_voting, registry
from repro.spec.obligations import obligations_for
from repro.testing import faults
from repro.testing.faults import FaultPlan

VAL_A = {"n": 4, "t": 1, "f": 1}
VAL_B = {"n": 5, "t": 1, "f": 1}


@pytest.fixture(autouse=True)
def _no_leaked_store():
    """Tests activate stores; none may leak into the rest of the suite."""
    previous = active_graph_store()
    deactivate_graph_store()
    yield
    deactivate_graph_store(previous)


def _explore(system, limit=200):
    """Expand a breadth-first prefix so the caches hold something real."""
    frontier = list(system.initial_configs())
    seen = set(frontier)
    while frontier and len(seen) < limit:
        config = frontier.pop()
        system.rule_options(config)
        for group in system.successor_groups(config):
            for _action, successor in group:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
    return seen


def _verdicts(model, valuation, target="validity"):
    checker = ExplicitChecker(model, valuation, max_states=150_000)
    report = checker.check_obligations(obligations_for(checker.model, target))
    return {
        "queries": [[r.query, r.verdict, r.states_explored]
                    for r in report.results],
        "sides": dict(report.side_conditions),
    }


class TestInternSharing:
    def test_one_intern_table_per_program_across_valuations(self):
        model = cc85.model_a()
        sys_a = CounterSystem(model, VAL_A)
        sys_b = CounterSystem(cc85.model_a(), VAL_B)
        assert sys_a.program is sys_b.program
        assert sys_a._intern is sys_b._intern
        # A config reached under either valuation canonicalises once.
        config = next(sys_a.initial_configs())
        assert sys_b.intern(config) is config

    def test_successor_caches_stay_per_valuation(self):
        sys_a = CounterSystem(cc85.model_a(), VAL_A)
        sys_b = CounterSystem(cc85.model_a(), VAL_B)
        assert sys_a._succ_cache is not sys_b._succ_cache

    def test_shared_table_keeps_per_valuation_results_bit_identical(self):
        # The same protocol under two valuations, interning into ONE
        # shared table, must reproduce what fully-private systems (own
        # program, own table) compute.
        for valuation in (VAL_A, VAL_B):
            model = cc85.model_a()
            private = _verdicts_private(model, valuation)
            assert _verdicts(cc85.model_a(), valuation) == private

    def test_private_intern_table_opts_out_of_sharing(self):
        # The parameterized checker's counterexample replay uses this:
        # throwaway valuations must not pin configs in (or ever reset)
        # the program-lifetime shared table.
        from repro.counter.store import InternTable

        model = cc85.model_a()
        shared = CounterSystem(model, VAL_A)
        private = CounterSystem(cc85.model_a(), VAL_A,
                                intern_table=InternTable())
        assert shared.program is private.program
        assert private._intern is not shared.program.intern_table.table
        before = len(shared.program.intern_table)
        list(private.initial_configs())
        assert len(shared.program.intern_table) == before

    def test_replay_systems_do_not_touch_the_shared_table(self):
        from repro.checker.parameterized import ParameterizedChecker
        from repro.counter.program import shared_program

        model = cc85.model_a()
        checker = ParameterizedChecker(model)
        table = shared_program(checker.model).intern_table
        before = len(table)
        assert checker._replay.__doc__  # the contract lives in the doc
        # Drive a replay through a decoded-valuation-shaped call.
        from repro.spec.obligations import obligations_for

        query = obligations_for(checker.model, "validity").reach_queries[0]
        checker._replay(query, VAL_A, {}, ())
        assert len(table) == before

    def test_generation_reset_clears_every_dependents_caches(self):
        model = naive_voting.model()
        program = ProtocolProgram(model)
        sys_a = CounterSystem(model, {"n": 3, "f": 1}, program=program)
        sys_b = CounterSystem(model, {"n": 4, "f": 1}, program=program)
        for system in (sys_a, sys_b):
            _explore(system, limit=10)
        assert sys_a._succ_cache and sys_b._succ_cache
        program.intern_table.reset()
        assert not sys_a._succ_cache and not sys_b._succ_cache
        assert len(program.intern_table) == 0
        # ... and both still enumerate correctly afterwards.
        assert _explore(sys_a, limit=5)


def _verdicts_private(model, valuation, target="validity"):
    """Cold verdicts on a fully private system (no shared caches)."""
    checker = ExplicitChecker(model, valuation, max_states=150_000)
    checker.system = CounterSystem(
        checker.model, valuation, program=ProtocolProgram(checker.model)
    )
    report = checker.check_obligations(obligations_for(checker.model, target))
    return {
        "queries": [[r.query, r.verdict, r.states_explored]
                    for r in report.results],
        "sides": dict(report.side_conditions),
    }


class TestGraphStoreRoundTrip:
    def test_flush_and_load_rebuild_the_exact_graph(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        warm = CounterSystem(model, VAL_A)
        _explore(warm)
        assert store.flush(warm)

        cold = CounterSystem(model, VAL_A, program=ProtocolProgram(model))
        cold_store = GraphStore(tmp_path, version="v1")
        # Same program structure → same key, despite the private object.
        assert cold_store.path_for(cold) == store.path_for(warm)
        assert cold_store.load_into(cold)
        assert cold_store.load_hits == 1
        assert len(cold._succ_cache) == len(warm._succ_cache)
        assert len(cold._options_cache) == len(warm._options_cache)
        for config, groups in warm._succ_cache.items():
            rebuilt = cold._succ_cache[config]
            assert len(rebuilt) == len(groups)
            for group, rebuilt_group in zip(groups, rebuilt):
                assert [a for a, _s in group] == [a for a, _s in rebuilt_group]
                assert [s for _a, s in group] == [s for _a, s in rebuilt_group]
        for config, options in warm._options_cache.items():
            assert cold._options_cache[config] == options

    def test_loaded_successors_are_interned(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        warm = CounterSystem(model, VAL_A)
        _explore(warm)
        store.flush(warm)
        cold = CounterSystem(model, VAL_A, program=ProtocolProgram(model))
        GraphStore(tmp_path, version="v1").load_into(cold)
        for config, groups in cold._succ_cache.items():
            assert cold.intern(config) is config
            for _action, successor in groups[0] if groups else ():
                assert cold.intern(successor) is successor

    def test_unchanged_graph_is_not_rewritten(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        assert store.flush(system)
        assert not store.flush(system), "unchanged graph must be skipped"
        _explore(system, limit=400)
        assert store.flush(system), "a grown graph must be re-persisted"

    def test_empty_system_is_not_persisted(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        assert not store.flush(system)
        assert GraphStore.entries(tmp_path) == []


class TestColdMisses:
    def _stored(self, tmp_path, version="v1"):
        store = GraphStore(tmp_path, version=version)
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system)
        store.flush(system)
        (path,) = GraphStore.entries(tmp_path)
        return model, path

    def _fresh(self, model):
        return CounterSystem(model, VAL_A, program=ProtocolProgram(model))

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        assert not store.load_into(self._fresh(ks16.model()))
        assert store.load_misses == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        model, path = self._stored(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        store = GraphStore(tmp_path, version="v1")
        system = self._fresh(model)
        assert not store.load_into(system)
        assert not system._succ_cache and not system._options_cache

    def test_hand_edited_body_is_a_miss(self, tmp_path):
        model, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF  # flip a byte deep in the pickled body
        path.write_bytes(bytes(raw))
        store = GraphStore(tmp_path, version="v1")
        assert not store.load_into(self._fresh(model))
        assert store.errors == 1

    def test_hand_edited_header_is_a_miss(self, tmp_path):
        model, path = self._stored(tmp_path)
        head, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(head.replace(b'"block": ', b'"block": 9') + b"\n" + body)
        store = GraphStore(tmp_path, version="v1")
        assert not store.load_into(self._fresh(model))

    def test_malicious_pickle_payload_is_refused_not_executed(self, tmp_path):
        # A crafted entry can carry a *valid* checksum over a payload
        # whose pickle smuggles a callable; the restricted unpickler
        # must refuse the class lookup (cold miss), never execute it.
        import hashlib
        import json
        import pickle

        model, path = self._stored(tmp_path)
        sentinel = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (Path.touch, (sentinel,))

        body = pickle.dumps({"configs": Evil(), "succ": (), "options": ()})
        head, _, _old = path.read_bytes().partition(b"\n")
        magic, fmt, header_json = head.decode().split(" ", 2)
        header = json.loads(header_json)
        header["body_sha256"] = hashlib.sha256(body).hexdigest()
        path.write_bytes(
            f"{magic} {fmt} {json.dumps(header, sort_keys=True)}\n".encode()
            + body
        )
        store = GraphStore(tmp_path, version="v1")
        system = self._fresh(model)
        assert not store.load_into(system)
        assert not sentinel.exists(), "pickle payload was executed"
        assert not system._succ_cache

    def test_changed_code_version_is_a_miss(self, tmp_path):
        model, _path = self._stored(tmp_path, version="v1")
        store = GraphStore(tmp_path, version="v2")
        system = self._fresh(model)
        assert not store.load_into(system)
        assert not system._succ_cache
        # ... and the stale entry stays for the old version to use.
        assert len(GraphStore.entries(tmp_path)) == 1

    def test_wrong_valuation_never_matches(self, tmp_path):
        model, _path = self._stored(tmp_path)
        store = GraphStore(tmp_path, version="v1")
        other = CounterSystem(model, VAL_B, program=ProtocolProgram(model))
        assert not store.load_into(other)

    def test_miss_then_cold_run_is_still_correct(self, tmp_path):
        model, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x5A
        path.write_bytes(bytes(raw))
        clear_shared_caches()
        previous = activate_graph_store(tmp_path, version="v1")
        try:
            observed = _verdicts(ks16.model(), VAL_A)
        finally:
            deactivate_graph_store(previous)
        clear_shared_caches()
        assert observed == _verdicts(ks16.model(), VAL_A)


class TestBestEffortIO:
    def test_flush_survives_disk_failure(self, tmp_path, monkeypatch):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        monkeypatch.setattr(
            Path, "write_bytes",
            lambda self, data: (_ for _ in ()).throw(OSError(28, "no space")),
        )
        assert not store.flush(system)  # must not raise
        assert store.errors == 1
        assert isinstance(store.last_error, OSError)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_stale_temp_orphans_pruned_on_init(self, tmp_path):
        stale = tmp_path / "x.graph.99.dead.tmp"
        stale.write_bytes(b"partial")
        ancient = time.time() - 3600
        os.utime(stale, (ancient, ancient))
        fresh = tmp_path / "y.graph.100.beef.tmp"
        fresh.write_bytes(b"live")
        GraphStore(tmp_path)
        assert not stale.exists()
        assert fresh.exists()


class TestResultNeutrality:
    """Warm-from-disk checking reproduces cold runs bit-for-bit."""

    PROTOCOL_MODELS = (cc85.model_a, ks16.model)

    def test_warm_from_disk_verdicts_and_states_match_cold(self, tmp_path):
        cold = {}
        clear_shared_caches()
        for factory in self.PROTOCOL_MODELS:
            for target in ("agreement", "validity"):
                cold[(factory.__module__, target)] = _verdicts(
                    factory(), VAL_A, target
                )

        # Populate the store (cold, store active), then drop every
        # in-process cache — the next run is a fresh process as far as
        # the engine can tell — and re-check warm from disk.
        clear_shared_caches()
        previous = activate_graph_store(tmp_path)
        try:
            for factory in self.PROTOCOL_MODELS:
                for target in ("agreement", "validity"):
                    _verdicts(factory(), VAL_A, target)
            flush_shared_graphs()
            assert GraphStore.entries(tmp_path)

            clear_shared_caches()
            store = active_graph_store()
            hits_before = store.load_hits
            for factory in self.PROTOCOL_MODELS:
                for target in ("agreement", "validity"):
                    warm = _verdicts(factory(), VAL_A, target)
                    assert warm == cold[(factory.__module__, target)]
            assert store.load_hits > hits_before, "store was never hit"
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()

    def test_flush_only_covers_adopted_systems(self, tmp_path):
        # A warm system left over from an earlier (store-less) run must
        # not leak into a later run's store: only systems served while
        # the store was active are flushed.
        clear_shared_caches()
        leftover = shared_system(cc85.model_a(), VAL_A)  # no store active
        _explore(leftover)
        previous = activate_graph_store(tmp_path)
        try:
            current = shared_system(ks16.model(), VAL_A)
            _explore(current)
            flush_shared_graphs()
            entries = GraphStore.entries(tmp_path)
            assert len(entries) == 1
            assert entries[0].name.startswith("ks16")
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()

    def test_shared_system_loads_from_active_store(self, tmp_path):
        clear_shared_caches()
        previous = activate_graph_store(tmp_path)
        try:
            model = ks16.model()
            warm = shared_system(model, VAL_A)
            _explore(warm)
            flush_shared_graphs()
            clear_shared_caches()
            reborn = shared_system(ks16.model(), VAL_A)
            assert reborn._succ_cache, "fresh shared system should be warm"
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()


def _caches_equal(a, b) -> bool:
    """Structural equality of two systems' succ/option caches."""
    if set(a._succ_cache) != set(b._succ_cache):
        return False
    for config, groups in a._succ_cache.items():
        other = b._succ_cache[config]
        if [[(x, s) for x, s in g] for g in groups] != \
                [[(x, s) for x, s in g] for g in other]:
            return False
    return dict(a._options_cache) == dict(b._options_cache)


def _fresh_system(model, valuation=VAL_A):
    return CounterSystem(model, valuation, program=ProtocolProgram(model))


class TestSnapshots:
    """One whole-graph snapshot per key, replaced by every flush."""

    def test_round_trip(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        warm = CounterSystem(model, VAL_A)
        _explore(warm)
        assert store.flush(warm)
        cold = _fresh_system(model)
        reader = GraphStore(tmp_path, version="v1")
        assert reader.load_into(cold)
        assert _caches_equal(warm, cold)

    def test_flush_rewrites_the_whole_graph(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        _explore(system, limit=400)
        assert store.flush(system)
        (path,) = GraphStore.entries(tmp_path)
        assert path == store.path_for(system)
        assert len(path.read_bytes()) == len(store._serialize(system))
        cold = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(system, cold)

    def test_load_then_grow_rewrites_the_snapshot(self, tmp_path):
        model = ks16.model()
        seed = CounterSystem(model, VAL_A)
        _explore(seed, limit=40)
        assert GraphStore(tmp_path, version="v1").flush(seed)
        # A fresh process loads the graph, explores further, and
        # replaces the snapshot with the grown graph.
        warmed = _fresh_system(model)
        reader = GraphStore(tmp_path, version="v1")
        assert reader.load_into(warmed)
        assert not reader.flush(warmed), "just-loaded graph is unchanged"
        _explore(warmed, limit=400)
        assert reader.flush(warmed)
        assert len(GraphStore.entries(tmp_path)) == 1
        cold = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(warmed, cold)

    @pytest.mark.parametrize("name", registry.names())
    def test_round_trip_over_the_registry(self, tmp_path, name):
        entry = registry.by_name(name)
        self._assert_round_trip(tmp_path, entry.build_model,
                                entry.small_valuation)

    @pytest.mark.parametrize("name,coin", [
        ("cc85a", "failing:1/8"), ("cc85a", "disagreeing:1/8"),
        ("mmr14", "failing:1/8"), ("mmr14", "disagreeing:1/8"),
    ])
    def test_round_trip_under_imperfect_coins(self, tmp_path, name, coin):
        # Failing coins add Tbot/Cbot branches and disagreeing coins
        # twin coin-guarded rules; every rebuilt action must still come
        # from the current rule list.
        entry = registry.by_name(name)
        self._assert_round_trip(
            tmp_path, lambda: entry.build_model(coin=coin),
            entry.small_valuation)

    @staticmethod
    def _assert_round_trip(tmp_path, factory, valuation):
        store = GraphStore(tmp_path, version="v1")
        warm = CounterSystem(factory(), valuation)
        _explore(warm, limit=600)
        assert store.flush(warm)
        cold = _fresh_system(factory(), valuation)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(warm, cold)

    def test_reborn_system_never_matches_a_foreign_record(self, tmp_path):
        # A new system instance under the same key, grown to the same
        # entry counts, must still be written: the skip record belongs
        # to the system that was flushed, not to the key.
        model = ks16.model()
        store = GraphStore(tmp_path, version="v1")
        first = CounterSystem(model, VAL_A)
        _explore(first, limit=200)
        assert store.flush(first)
        reborn = _fresh_system(model)
        _explore(reborn, limit=200)
        assert reborn.cache_state() == first.cache_state()
        assert store.flush(reborn)
        cold = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(reborn, cold)

    def test_reactivated_store_keeps_one_snapshot_per_key(self, tmp_path):
        # A warm system meeting a freshly constructed store over a
        # directory its previous activation wrote (notebook/driver
        # loop) rewrites the key's one file; nothing accumulates.
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=200)
        for _activation in range(3):
            store = GraphStore(tmp_path, version="v1")
            assert store.flush(system)
            assert not store.flush(system)
        assert len(GraphStore.entries(tmp_path)) == 1
        cold = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(system, cold)


def _store_run(root):
    """One fresh-process run: cold caches and a new store."""
    clear_shared_caches()
    previous = activate_graph_store(root, version="v1")
    store = active_graph_store()
    try:
        verdicts = _verdicts(ks16.model(), VAL_A)
        flush_shared_graphs()
    finally:
        deactivate_graph_store(previous)
        clear_shared_caches()
    return verdicts, store


def _split_entry(raw):
    head, _, body = raw.partition(b"\n")
    magic, fmt, header_json = head.decode().split(" ", 2)
    return magic, fmt, json.loads(header_json), body


def _join_entry(magic, fmt, header, body):
    head = f"{magic} {fmt} {json.dumps(header, sort_keys=True)}\n"
    return head.encode() + body


def _edit_header(edit):
    """Rewrite header fields; the body and its checksum stay valid."""
    def corrupt(raw):
        magic, fmt, header, body = _split_entry(raw)
        edit(header)
        return _join_entry(magic, fmt, header, body)
    return corrupt


def _edit_payload(edit):
    """Re-pickle an edited payload under a *valid* checksum."""
    def corrupt(raw):
        magic, fmt, header, body = _split_entry(raw)
        payload = pickle.loads(body)
        edit(payload)
        body = pickle.dumps(payload)
        header["body_sha256"] = hashlib.sha256(body).hexdigest()
        return _join_entry(magic, fmt, header, body)
    return corrupt


def _edit_first_group(edit):
    """Replace the first stored successor group with ``edit(group)``."""
    def apply(payload):
        succ = list(payload["succ"])
        index = next(i for i, (_cid, groups) in enumerate(succ) if groups)
        config_id, groups = succ[index]
        succ[index] = (config_id, (edit(groups[0]),) + groups[1:])
        payload["succ"] = tuple(succ)
    return apply


def _ragged_first_config(payload):
    configs = payload["configs"]
    payload["configs"] = (configs[0] + (0,),) + configs[1:]


#: name -> (corruption, the load error it must be caught by).
CORRUPTIONS = {
    "empty": (lambda raw: b"", "truncated"),
    "no_header_line": (lambda raw: raw.partition(b"\n")[0], "truncated"),
    "wrong_magic": (lambda raw: raw.replace(b"repro-graph", b"repro-graff", 1),
                    "unknown graph format"),
    "future_format": (lambda raw: raw.replace(b"repro-graph 1 ",
                                              b"repro-graph 2 ", 1),
                      "unknown graph format"),
    "header_not_json": (lambda raw: raw.replace(b"{", b"[", 1), "Expecting"),
    "body_one_byte_short": (lambda raw: raw[:-1], "checksum mismatch"),
    "trailing_byte": (lambda raw: raw + b"\x00", "checksum mismatch"),
    "other_code_version": (
        _edit_header(lambda h: h.update(code_version="v0")),
        "mismatch on 'code_version'"),
    "other_valuation": (
        _edit_header(lambda h: h.update(valuation=[["f", 1], ["n", 5],
                                                   ["t", 1]])),
        "mismatch on 'valuation'"),
    "other_program": (
        _edit_header(lambda h: h.update(program="0" * 16)),
        "mismatch on 'program'"),
    "entry_counts": (
        _edit_header(lambda h: h.update(configs=h["configs"] + 1)),
        "entry count mismatch"),
    "extra_branch": (
        _edit_payload(_edit_first_group(
            lambda g: (g[0], g[1], g[2] + g[2][:1]))),
        "branch count mismatch"),
    "dangling_successor": (
        _edit_payload(_edit_first_group(
            lambda g: (g[0], g[1], (10 ** 6,) * len(g[2])))),
        "index out of range"),
    "unknown_rule": (
        _edit_payload(_edit_first_group(lambda g: (10 ** 6,) + g[1:])),
        "index out of range"),
    "ragged_config": (_edit_payload(_ragged_first_config),
                      "multiple of the block"),
}


class TestCorruptSnapshots:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_bad_entry_is_a_miss_until_the_next_flush_replaces_it(
        self, tmp_path, name
    ):
        corrupt, reason = CORRUPTIONS[name]
        model = ks16.model()
        writer = CounterSystem(model, VAL_A)
        _explore(writer)
        assert GraphStore(tmp_path, version="v1").flush(writer)
        (path,) = GraphStore.entries(tmp_path)
        path.write_bytes(corrupt(path.read_bytes()))

        store = GraphStore(tmp_path, version="v1")
        system = _fresh_system(model)
        assert not store.load_into(system)
        assert store.errors == 1 and store.load_misses == 1
        assert reason in str(store.last_error)
        assert not system._succ_cache and not system._options_cache

        _explore(system)
        assert store.flush(system)
        reader = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(reader)
        assert _caches_equal(system, reader)

    def test_corrupt_snapshot_is_a_miss_until_the_next_flush_replaces_it(
        self, tmp_path
    ):
        clear_shared_caches()
        cold = _verdicts(ks16.model(), VAL_A)
        _verdicts_first, store = _store_run(tmp_path)
        assert store.saves == 1
        (path,) = GraphStore.entries(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))

        # The corrupt entry is a cold miss; the run stays cold-identical
        # and its flush overwrites the bad entry.
        verdicts, store = _store_run(tmp_path)
        assert verdicts == cold
        assert store.load_hits == 0 and store.errors == 1
        assert store.saves == 1

        # The next run is a hit with the same verdicts and state counts.
        verdicts, store = _store_run(tmp_path)
        assert verdicts == cold
        assert store.load_hits == 1 and store.errors == 0
        assert store.saves == 0, "an unchanged loaded graph is not rewritten"

    def test_old_delta_segments_are_never_loaded(self, tmp_path):
        # ``<key>~<writer>.graph`` files of the old multi-segment format
        # are inert: a load reads only ``<key>.graph``.
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system)
        assert store.flush(system)
        path = store.path_for(system)
        path.rename(path.with_name(f"{path.stem}~123_000000_abcd.graph"))
        reader = GraphStore(tmp_path, version="v1")
        cold = _fresh_system(model)
        assert not reader.load_into(cold)
        assert reader.errors == 0 and not cold._succ_cache


class TestStoreSpec:
    def test_sqlite_spec_is_refused_and_creates_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro import api

        monkeypatch.chdir(tmp_path)
        for spec in ("sqlite:graphs.db", f"sqlite:{tmp_path / 'g.db'}"):
            with pytest.raises(ValueError, match="SQLite .* removed"):
                GraphStore(spec)
            with pytest.raises(ValueError, match="SQLite .* removed"):
                activate_graph_store(spec)
            with pytest.raises(ValueError, match="SQLite .* removed"):
                api.SweepRunner(graph_store=spec)
        assert active_graph_store() is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "spec", ["sqlite:", "sqlite:graphs.db", "sqlite:///tmp/graphs.db"])
    def test_every_sqlite_spec_names_the_removal(self, spec):
        with pytest.raises(ValueError, match="SQLite .* removed"):
            store_directory(spec)

    @pytest.mark.parametrize(
        "spec", ["graphs", "sqlite", "cache/sqlite:old", Path("graphs")],
        ids=["plain", "bare-word", "colon-inside", "path-object"])
    def test_other_specs_are_directories(self, spec):
        assert store_directory(spec) == Path(spec)


class TestSafeUnpickler:
    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_plain_payloads_load_and_globals_are_refused(self, protocol):
        # Protocols 0-3 name classes with GLOBAL, 4+ with STACK_GLOBAL;
        # the unpickler must refuse both and still load plain data.
        payload = {"configs": ((1, 0, 2),), "succ": ((0, ((0, 1, (0,)),)),),
                   "options": ((0, ((0, 1),)),)}
        assert _safe_loads(pickle.dumps(payload, protocol=protocol)) == payload
        with pytest.raises(pickle.UnpicklingError, match="refusing"):
            _safe_loads(pickle.dumps({"configs": Path("x")},
                                     protocol=protocol))


class TestFaultHooks:
    """The ``graph_store.flush``/``graph_store.load`` chaos hooks take
    the same best-effort paths a real disk failure would."""

    @pytest.fixture
    def plan(self, tmp_path):
        yield FaultPlan(scratch=str(tmp_path / "faults"))
        faults.install(None)

    def _explored(self, model=None):
        system = CounterSystem(model or ks16.model(), VAL_A)
        _explore(system)
        return system

    def test_injected_flush_error_is_recorded_and_writes_nothing(
        self, tmp_path, plan
    ):
        store = GraphStore(tmp_path / "graphs", version="v1")
        system = self._explored()
        faults.install(plan.break_io("graph_store.flush"))
        assert not store.flush(system)
        assert store.errors == 1 and store.saves == 0
        assert isinstance(store.last_error, OSError)
        assert list((tmp_path / "graphs").iterdir()) == []
        # The failed flush left no skip record: the next one writes.
        assert store.flush(system)

    def test_injected_load_error_is_a_miss_and_keeps_the_entry(
        self, tmp_path, plan
    ):
        root = tmp_path / "graphs"
        assert GraphStore(root, version="v1").flush(self._explored())
        faults.install(plan.break_io("graph_store.load"))
        store = GraphStore(root, version="v1")
        system = _fresh_system(ks16.model())
        assert not store.load_into(system)
        assert store.errors == 1 and store.load_misses == 1
        assert not system._succ_cache
        assert store.load_into(system), "the entry survives the fault"

    def test_injected_corruption_is_caught_by_the_checksum(
        self, tmp_path, plan
    ):
        root = tmp_path / "graphs"
        faults.install(plan.corrupt_segment())
        assert GraphStore(root, version="v1").flush(self._explored())
        faults.install(None)
        store = GraphStore(root, version="v1")
        assert not store.load_into(_fresh_system(ks16.model()))
        assert "checksum mismatch" in str(store.last_error)

    def test_match_narrows_a_fault_to_one_key(self, tmp_path, plan):
        store = GraphStore(tmp_path / "graphs", version="v1")
        ks = self._explored()
        cc = self._explored(cc85.model_a())
        faults.install(plan.break_io("graph_store.flush",
                                     match=store.key_for(ks), times=0))
        assert not store.flush(ks)
        assert store.flush(cc)
        assert GraphStore.entries(tmp_path / "graphs") == [store.path_for(cc)]


class TestKeying:
    def test_key_version_parses(self):
        assert key_version("m-aaaa-bbbb-v123") == "v123"
        assert key_version("nonsense") is None

    def test_program_digest_stable_across_instances(self):
        assert program_digest(ProtocolProgram(ks16.model())) == program_digest(
            ProtocolProgram(ks16.model())
        )
        assert program_digest(ProtocolProgram(ks16.model())) != program_digest(
            ProtocolProgram(cc85.model_a())
        )

    def test_valuation_digest_orders_canonically(self):
        assert valuation_digest({"n": 4, "t": 1, "f": 1}) == valuation_digest(
            {"f": 1, "t": 1, "n": 4}
        )
        assert valuation_digest(VAL_A) != valuation_digest(VAL_B)

    def test_entry_version_parses_from_file_name(self, tmp_path):
        store = GraphStore(tmp_path, version="cafebabe00000000")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        store.flush(system)
        (path,) = GraphStore.entries(tmp_path)
        assert GraphStore.entry_version(path) == "cafebabe00000000"
        header = GraphStore.describe(path)
        assert header["code_version"] == "cafebabe00000000"
        assert header["configs"] == len(
            {c for c in system._succ_cache}
            | {s for gs in system._succ_cache.values()
               for g in gs for _a, s in g}
            | set(system._options_cache)
        )

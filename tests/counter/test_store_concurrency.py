"""Multi-writer hammer for the graph store's whole-graph snapshots.

Mirrors the :mod:`tests.api.test_result_cache` hammer one layer down:
four processes flush snapshots of the *same* ``(program, valuation)``
key concurrently while the parent reads.  Nothing the store does on a
contended day may publish a torn snapshot or crash:

* every load taken while writers run is a miss or a complete graph —
  exactly one that some writer flushed;
* the snapshot left on disk parses, passes its body checksum, and is
  one writer's last flush (the last writer wins).
"""

import hashlib
import multiprocessing

import pytest

from repro.counter.program import ProtocolProgram
from repro.counter.store import (
    GraphStore,
    active_graph_store,
    deactivate_graph_store,
)
from repro.counter.system import CounterSystem
from repro.protocols import ks16

VALUATION = {"n": 4, "t": 1, "f": 1}
VERSION = "v-hammer"


@pytest.fixture(autouse=True)
def _no_leaked_store():
    previous = active_graph_store()
    deactivate_graph_store()
    yield
    deactivate_graph_store(previous)


def _fresh_system():
    model = ks16.model()
    return CounterSystem(model, VALUATION, program=ProtocolProgram(model))


def _explore(system, limit, stride=1):
    """Expand a deterministic BFS prefix; ``stride`` varies the visit set.

    Different strides pop different frontier positions, so concurrent
    writers grow *different* (overlapping) subgraphs of one key — a
    torn or mixed snapshot would then match no writer's graph.
    """
    frontier = list(system.initial_configs())
    seen = set(frontier)
    while frontier and len(seen) < limit:
        index = (len(seen) * stride) % len(frontier)
        config = frontier.pop(index)
        system.rule_options(config)
        for group in system.successor_groups(config):
            for _action, successor in group:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
    return seen


def _flushed_keys(system):
    """The succ-cache key set as picklable flat data tuples."""
    return frozenset(config.data for config in system._succ_cache)


def _hammer(args):
    """Worker: grow one system in rounds, flushing a snapshot per round."""
    directory, worker, rounds = args
    store = GraphStore(directory, version=VERSION)
    system = _fresh_system()
    flushed = []
    for round_no in range(1, rounds + 1):
        _explore(system, limit=60 * round_no, stride=worker + 1)
        if store.flush(system):
            flushed.append(_flushed_keys(system))
    return {"flushed": flushed, "errors": store.errors}


class TestMultiWriterHammer:
    WORKERS = 4
    ROUNDS = 4

    def test_concurrent_snapshot_writers_never_tear(self, tmp_path):
        directory = str(tmp_path / "graphs")
        with multiprocessing.Pool(self.WORKERS) as pool:
            async_result = pool.map_async(
                _hammer,
                [(directory, worker, self.ROUNDS)
                 for worker in range(self.WORKERS)],
            )
            # Read concurrently with the writers: every load is a miss
            # or a whole snapshot (a torn file would fail its checksum
            # and surface as a recorded error here).
            loaded = []
            while not async_result.ready():
                reader = GraphStore(directory, version=VERSION)
                system = _fresh_system()
                if reader.load_into(system):
                    loaded.append(_flushed_keys(system))
                assert reader.errors == 0, reader.last_error
            reports = async_result.get()

        assert all(report["errors"] == 0 for report in reports)
        flushed = {keys for report in reports for keys in report["flushed"]}
        assert len(flushed) >= self.WORKERS
        for keys in loaded:
            assert keys in flushed, "a load returned a graph nobody wrote"

        # One complete snapshot is left: it checksums and it is some
        # writer's last flush.
        store = GraphStore(directory, version=VERSION)
        (path,) = GraphStore.entries(directory)
        header, body = GraphStore.parse_entry(path.read_bytes())
        assert hashlib.sha256(body).hexdigest() == header["body_sha256"]
        final = _fresh_system()
        assert store.load_into(final)
        last_flushes = {report["flushed"][-1] for report in reports}
        assert _flushed_keys(final) in last_flushes

"""Persistent cross-process state-graph store for the counter engine.

PR 3 made the in-process caches shareable: one compiled
:class:`~repro.counter.program.ProtocolProgram` per model structure and
one bound :class:`~repro.counter.system.CounterSystem` per valuation,
kept warm across checkers.  This module extends that sharing across
*processes* and across *valuations*:

* :class:`InternTable` — one configuration intern table per compiled
  program, shared by **all** valuations of a protocol.  ``Config``
  tuples are valuation-independent (the flat layout is a property of
  the structure), so interning happens once per structure: two
  valuations that reach the same configuration intern to the same
  object, and cross-valuation sweeps stop re-canonicalising the shared
  prefix of their state spaces.
* :class:`GraphStore` — serialized state graphs keyed by
  ``(program digest, valuation, code version)``, each entry a system's
  warm successor-group/rule-option caches.  A sweep worker starting
  cold loads the graph a previous process already expanded and
  replays every query on memoised successors.

Storage format
--------------
One directory, one whole-graph snapshot per key: ``<key>.graph``.  A
flush serializes the system's entire graph and replaces the key's file;
a load is a single file read.  A flush of a graph that has not changed
since its last flush or load (same system, same cache epoch, same
entry counts) writes nothing.

Durability contract (mirrors :class:`~repro.api.sweep.ResultCache`):

* writes go to a **unique per-writer temp file**
  (``<name>.<pid>.<token>.tmp``) followed by an atomic
  :meth:`~pathlib.Path.replace`, so concurrent writers of one key
  interleave freely (the last one wins) and readers only ever see
  complete snapshots;
* all I/O is **best-effort** — a missing, truncated, hand-edited or
  stale entry (or a full disk) is a cold miss recorded on the store,
  never a crash; entries carry a body checksum so accidental
  corruption is detected rather than deserialized, and payloads load
  through a restricted unpickler that refuses every class lookup, so a
  crafted pickle cannot execute code.  The next flush of a key
  overwrites a bad entry, so no repair step exists;
* temp-file orphans from crashed writers are pruned on init.

Threat model: the store directory is *trusted input*, like any local
cache.  The checksum and unpickler close the accident and
code-execution holes, but an internally-consistent forged entry (valid
checksum over wrong successor ids) would be replayed as-is — do not
point the store at storage writable by parties you would not let edit
your results.

Loading is results-neutral by construction: a stored graph is exactly
the memoised successor structure a cold expansion produces, so
warm-from-disk verdicts and ``states_explored`` are bit-identical to
cold runs.  Entries are keyed by :func:`~repro.version.code_version`,
so any engine change degrades the whole store to cold misses instead
of replaying stale semantics.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import time
import uuid
import weakref
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.counter.actions import Action
from repro.counter.config import Config
from repro.testing import faults
from repro.version import code_version, stable_digest

__all__ = [
    "GraphStore",
    "InternTable",
    "activate_graph_store",
    "active_graph_store",
    "deactivate_graph_store",
    "program_digest",
    "prune_stale_temp_files",
    "store_directory",
    "unique_temp_path",
    "valuation_digest",
]

#: Temp files older than this are crashed-writer orphans; live writers
#: hold a temp file for milliseconds (one serialized entry write).
STALE_TEMP_SECONDS = 600.0


# ----------------------------------------------------------------------
# Shared durability helpers (used by ResultCache too)
# ----------------------------------------------------------------------
def unique_temp_path(path: Path) -> Path:
    """A collision-free sibling temp path for atomically replacing ``path``.

    ``<name>.<pid>.<token>.tmp`` — the pid separates concurrent
    processes, the random token separates writers inside one process
    (two pool workers finishing the same uncached key must never
    truncate each other's half-written blob before the atomic rename).
    """
    token = uuid.uuid4().hex[:8]
    return path.with_name(f"{path.name}.{os.getpid()}.{token}.tmp")


def prune_stale_temp_files(
    root: Path, stale_seconds: float = STALE_TEMP_SECONDS
) -> int:
    """Remove crashed-writer ``*.tmp`` orphans under ``root``.

    Only temp files whose mtime is older than ``stale_seconds`` go (a
    concurrent writer's live temp file must survive); with
    ``stale_seconds <= 0`` every temp file goes (explicit prune/clear).
    Best-effort: unlink races and permission errors are ignored.
    Returns the number of files removed.
    """
    removed = 0
    now = time.time()
    try:
        candidates = list(root.glob("*.tmp"))
    except OSError:
        return 0
    for path in candidates:
        try:
            if stale_seconds > 0 and now - path.stat().st_mtime < stale_seconds:
                continue
            path.unlink()
            removed += 1
        except OSError:
            continue
    return removed


def store_directory(spec) -> Path:
    """The directory a graph-store spec names.

    A store is a plain directory.  ``sqlite:`` specs named the removed
    single-file backend; they are refused here, before anything touches
    the file system, rather than taken as a directory name.
    """
    text = str(spec)
    if text.startswith("sqlite:"):
        raise ValueError(
            f"graph store {text!r}: the SQLite graph-store backend was "
            "removed; pass a directory instead"
        )
    return Path(text)


# ----------------------------------------------------------------------
# Per-program intern table (shared across valuations)
# ----------------------------------------------------------------------
class InternTable:
    """One configuration intern table shared by a program's systems.

    :class:`~repro.counter.config.Config` cells are counters and
    variable values — never parameters — and the flat layout geometry is
    owned by the structure-level program, so configurations are
    *valuation-independent* values.  Holding the table on the program
    therefore lets every :class:`~repro.counter.system.CounterSystem`
    bound to it (one per valuation) intern into the same dict.

    The generation reset of the old per-system table carries over: when
    the table reaches its cap it is dropped wholesale, together with
    the successor/option caches of every registered dependent system —
    those caches hold interned configs and must not outlive the table
    that canonicalised them.  Dependents are tracked weakly so the
    program-lifetime table never pins evicted systems.
    """

    #: Bound on the table; far above any max_states budget a checker
    #: uses, so only open-ended workloads (sampling) recycle.
    CAP = 1 << 21

    __slots__ = ("table", "_dependents")

    def __init__(self) -> None:
        self.table: Dict[Config, Config] = {}
        self._dependents: "weakref.WeakSet" = weakref.WeakSet()

    def register(self, system) -> None:
        """Track a system whose caches must drop on generation reset."""
        self._dependents.add(system)

    def reset(self) -> None:
        """Drop the table and every dependent's derived caches together.

        Bumps each dependent's cache epoch: a reset changes cache
        *contents* without necessarily changing their lengths, and the
        store's skip-if-unchanged flush bookkeeping keys on ``(epoch,
        lengths)`` to stay sound across it.
        """
        self.table.clear()
        for system in self._dependents:
            system._succ_cache.clear()
            system._options_cache.clear()
            system._cache_epoch += 1

    def __len__(self) -> int:
        return len(self.table)


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------
def program_digest(program) -> str:
    """Cross-process digest of a compiled program's structural key.

    ``program.key`` is a tuple of hashable value types with
    deterministic reprs (frozen dataclasses, enums, tuples, strings,
    ``Fraction``), so hashing its repr is stable across processes and
    ``PYTHONHASHSEED`` values — unlike ``hash()``, which is salted.
    """
    return stable_digest(repr(program.key), 16)


def valuation_digest(valuation: Mapping[str, int]) -> str:
    """Deterministic digest of one parameter valuation."""
    return stable_digest(repr(tuple(sorted(valuation.items()))), 12)


def _slug(name: str) -> str:
    """Filename-safe component (no ``-`` — it separates the key parts)."""
    return "".join(c if c.isalnum() else "_" for c in name) or "model"


def key_version(key: str) -> Optional[str]:
    """The code-version component of an entry key.

    Keys are ``<slug>-<program>-<valuation>-<version>``; every
    component is slugged (no ``-`` inside), so the version is the last
    dash-separated part.
    """
    parts = key.rsplit("-", 3)
    return parts[3] if len(parts) == 4 else None


class _SafeUnpickler(pickle.Unpickler):
    """An unpickler that refuses every class/callable lookup.

    Graph payloads are plain containers of ints — tuples, lists, dicts,
    strings — which pickle reconstructs without ever resolving a
    global.  Rejecting ``find_class`` outright therefore costs nothing
    and closes the classic pickle code-execution hole: a hand-crafted
    entry whose payload smuggles a ``GLOBAL``/``STACK_GLOBAL`` opcode
    raises here, is caught by :meth:`GraphStore.load_into`, and
    degrades to the documented cold miss.
    """

    def find_class(self, module, name):
        raise pickle.UnpicklingError(
            f"graph payloads contain no classes (refusing {module}.{name})"
        )


def _safe_loads(body: bytes):
    return _SafeUnpickler(io.BytesIO(body)).load()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class GraphStore:
    """Serialized state graphs in one directory, keyed by
    ``(program digest, valuation, code version)``.

    Entry files are ``<slug>-<program>-<valuation>-<version>.graph`` —
    every identity component slugged into the name.  Each entry is one
    header line — ``repro-graph <format> <json>`` with the identity
    fields, entry counts and a body checksum — followed by a pickled
    payload of plain int tuples: the config universe (flat cell tuples)
    and the successor/option caches as indices into it.  Successor
    groups are stored as ``(rule index, round, successor ids)``;
    actions are *rebuilt* from the program's rule list on load, so a
    payload can never inject structure that the current code version
    would not itself produce.

    All methods are best-effort: any I/O failure (and, on the read
    side, any parse error) is swallowed, counted, and treated as a
    cold miss.  ``last_error`` keeps the most recent failure for
    diagnostics.
    """

    FORMAT = 1
    MAGIC = "repro-graph"

    def __init__(self, directory, version: Optional[str] = None):
        self.directory = store_directory(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        prune_stale_temp_files(self.directory)
        self.version = version if version is not None else code_version()
        #: system -> its :meth:`~repro.counter.system.CounterSystem.
        #: cache_state` at the last flush/load: a flush matching it
        #: writes nothing.  Keyed by the system instance (weakly), so a
        #: reborn system under the same key never matches a record
        #: taken on someone else's caches; the epoch in the state
        #: catches FIFO evictions and intern-table generation resets,
        #: which change cache *contents* at coinciding lengths.
        self._flushed: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())
        #: Systems served to this process while this store was active —
        #: the only ones :meth:`flush_adopted` persists.  Tracked
        #: weakly: flushing must never pin an evicted system, and
        #: systems this run never touched (warm leftovers of earlier
        #: unrelated runs) must never leak into this store.
        self._adopted: "weakref.WeakSet" = weakref.WeakSet()
        self.load_hits = 0
        self.load_misses = 0
        self.saves = 0
        self.errors = 0
        #: Total serialized bytes written to disk.
        self.bytes_written = 0
        self.last_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_for(self, system) -> str:
        program = system.program
        return (
            f"{_slug(program.model_name)}-{program_digest(program)}-"
            f"{valuation_digest(system.valuation)}-{_slug(self.version)}"
        )

    def path_for(self, system) -> Path:
        """The entry file of ``system``'s key."""
        return self._path(self.key_for(system))

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.graph"

    # ------------------------------------------------------------------
    # Adoption (which systems belong to this store's run)
    # ------------------------------------------------------------------
    def adopt(self, system) -> None:
        """Mark ``system`` as used under this store (flush candidate)."""
        self._adopted.add(system)

    def flush_adopted(self) -> int:
        """Flush every adopted system; returns the entries written."""
        return sum(1 for system in list(self._adopted) if self.flush(system))

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def flush(self, system) -> bool:
        """Persist ``system``'s whole graph as its key's snapshot.

        Returns True when a snapshot was written.  Never raises: a disk
        failure marks the store errored and the caller moves on — the
        store is an optimization, not a dependency.  A graph unchanged
        since this store last flushed or loaded it is skipped.
        """
        state = system.cache_state()
        if state[1:] == (0, 0) or self._flushed.get(system) == state:
            return False  # empty, or unchanged since the last flush/load
        key = self.key_for(system)
        try:
            blob = self._serialize(system)
        except Exception as exc:  # noqa: BLE001 — never kill the caller
            self._record(exc)
            return False
        # Chaos hook: a "corrupt" rule flips a byte of what lands on
        # disk, so the next load sees a real checksum mismatch.
        blob = faults.transform("graph_store.flush", key, blob)
        path = self._path(key)
        tmp = unique_temp_path(path)
        try:
            # Chaos hook inside the guard: an injected OSError takes the
            # exact recorded-error path a real disk failure would.
            faults.fire("graph_store.flush", key)
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            self._record(exc)
            return False
        self._flushed[system] = state
        self.saves += 1
        self.bytes_written += len(blob)
        return True

    def _serialize(self, system) -> bytes:
        program = system.program
        rule_index = {
            rule.name: index for index, rule in enumerate(system._rule_list)
        }
        # Config ids in first-seen order; ``cid(config, len(config_ids))``
        # returns the known id or assigns the next one.
        config_ids: Dict[Config, int] = {}
        cid = config_ids.setdefault
        succ: List[tuple] = []
        for config, groups in system._succ_cache.items():
            encoded = []
            for group in groups:
                action = group[0][0]
                encoded.append((
                    rule_index[action.rule],
                    action.round,
                    tuple([cid(successor, len(config_ids))
                           for _action, successor in group]),
                ))
            succ.append((cid(config, len(config_ids)), tuple(encoded)))
        options: List[tuple] = [
            (cid(config, len(config_ids)),
             tuple([(rule_index[a.rule], a.round) for a in actions]))
            for config, actions in system._options_cache.items()
        ]
        payload = {
            "configs": tuple(c.data for c in config_ids),
            "succ": tuple(succ),
            "options": tuple(options),
        }
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "model": program.model_name,
            "program": program_digest(program),
            "valuation": sorted(system.valuation.items()),
            "code_version": self.version,
            "block": program.block,
            "configs": len(payload["configs"]),
            "succ": len(succ),
            "options": len(options),
            "body_sha256": hashlib.sha256(body).hexdigest(),
        }
        head = json.dumps(header, sort_keys=True)
        return f"{self.MAGIC} {self.FORMAT} {head}\n".encode() + body

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load_into(self, system) -> bool:
        """Warm ``system``'s caches from its key's snapshot.

        False is a cold miss.  The entry is validated (header identity —
        program digest, valuation, code version, layout geometry — and
        body checksum) before deserializing through the class-refusing
        unpickler, and every action is rebuilt from the *current* bound
        rule list.  A stale, truncated or corrupted entry is a cold miss
        instead of a crash or a replay of stale semantics (see the
        module doc for the trusted-storage threat model).
        """
        key = self.key_for(system)
        try:
            faults.fire("graph_store.load", key)
            raw = self._path(key).read_bytes()
        except FileNotFoundError:
            self.load_misses += 1
            return False
        except OSError as exc:
            self._record(exc)
            self.load_misses += 1
            return False
        try:
            header, body = self.parse_entry(raw)
            self._check_header(header, system, body)
            self._rebuild(system, _safe_loads(body), header)
        except Exception as exc:  # noqa: BLE001 — bad entry == cold miss
            # A partially-rebuilt cache would be correct but the entry
            # is untrusted now; drop everything this load touched.
            system._succ_cache.clear()
            system._options_cache.clear()
            self._flushed.pop(system, None)
            self._record(exc)
            self.load_misses += 1
            return False
        self._flushed[system] = system.cache_state()
        self.load_hits += 1
        return True

    @classmethod
    def parse_entry(cls, raw: bytes) -> Tuple[dict, bytes]:
        """Split one entry into (header dict, body bytes) or raise."""
        head, sep, body = raw.partition(b"\n")
        if not sep:
            raise ValueError("truncated graph entry (no header line)")
        return cls._parse_head(head), body

    @classmethod
    def _parse_head(cls, head: bytes):
        """The JSON of a ``repro-graph <format> <json>`` line, or raise."""
        magic, fmt, header_json = head.decode().split(" ", 2)
        if magic != cls.MAGIC or int(fmt) != cls.FORMAT:
            raise ValueError(f"unknown graph format {magic!r} v{fmt}")
        return json.loads(header_json)

    def _check_header(self, header: dict, system, body: bytes) -> None:
        expect = {
            "program": program_digest(system.program),
            "valuation": [list(kv) for kv in sorted(system.valuation.items())],
            "code_version": self.version,
            "block": system.program.block,
        }
        for key, want in expect.items():
            if header.get(key) != want:
                raise ValueError(
                    f"graph header mismatch on {key!r}: "
                    f"{header.get(key)!r} != {want!r}"
                )
        if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
            raise ValueError("graph body checksum mismatch")

    def _rebuild(self, system, payload: dict, header: dict) -> None:
        program = system.program
        width_kappa, width_g, block = program.n_locs, program.n_vars, program.block
        configs = []
        for data in payload["configs"]:
            if len(data) % block:
                raise ValueError("config cell count not a multiple of the block")
            configs.append(system.intern(Config.from_flat(
                tuple(data), width_kappa, width_g, len(data) // block
            )))
        rules = system._rule_list
        # One action tuple per (rule, round): the branch actions of a
        # probabilistic rule, or the single action of a Dirac one.
        branch_actions: Dict[Tuple[int, int], tuple] = {}
        plain_actions: Dict[Tuple[int, int], Action] = {}

        def actions_of(rule_id: int, round_no: int) -> tuple:
            rule = rules[rule_id]
            actions = (
                (Action(rule.name, round_no),) if rule.is_dirac
                else tuple(Action(rule.name, round_no, name)
                           for name in rule.branch_names)
            )
            branch_actions[rule_id, round_no] = actions
            return actions

        succ_cache = system._succ_cache
        for config_id, groups in payload["succ"]:
            rebuilt = []
            for rule_id, round_no, successor_ids in groups:
                actions = branch_actions.get((rule_id, round_no)) \
                    or actions_of(rule_id, round_no)
                if len(successor_ids) != len(actions):
                    raise ValueError("branch count mismatch")
                rebuilt.append(tuple(zip(
                    actions, [configs[sid] for sid in successor_ids])))
            succ_cache[configs[config_id]] = tuple(rebuilt)
        options_cache = system._options_cache
        for config_id, pairs in payload["options"]:
            options = []
            for rule_id, round_no in pairs:
                action = plain_actions.get((rule_id, round_no))
                if action is None:
                    action = Action(rules[rule_id].name, round_no)
                    plain_actions[rule_id, round_no] = action
                options.append(action)
            options_cache[configs[config_id]] = tuple(options)
        if (
            len(payload["configs"]) != header["configs"]
            or len(payload["succ"]) != header["succ"]
            or len(payload["options"]) != header["options"]
        ):
            raise ValueError("entry count mismatch")

    # ------------------------------------------------------------------
    # Maintenance (the ``harness cache`` CLI)
    # ------------------------------------------------------------------
    @staticmethod
    def entries(root) -> List[Path]:
        try:
            return sorted(Path(root).glob("*.graph"))
        except OSError:
            return []

    @classmethod
    def entry_version(cls, path: Path) -> Optional[str]:
        """The code-version component of an entry's file name.

        None for names no current writer produces — notably the
        ``<key>~<writer>.graph`` delta segments of the old multi-segment
        format, which loads never read and ``cache prune`` removes.
        """
        stem = Path(path).stem
        return None if "~" in stem else key_version(stem)

    @classmethod
    def describe(cls, path: Path) -> Optional[dict]:
        """An entry's header dict, or None when unreadable/corrupt.

        Validates the shape the maintenance CLI consumes (a dict whose
        ``valuation`` is key/value pairs and whose counts are ints), so
        a hand-edited header line can never crash ``cache info``.
        """
        try:
            with open(path, "rb") as handle:
                header = cls._parse_head(handle.readline())
            if not isinstance(header, dict):
                return None
            header["valuation"] = dict(header.get("valuation") or ())
            for field in ("configs", "succ", "options"):
                if not isinstance(header.get(field), int):
                    return None
            if not isinstance(header.get("model"), str):
                return None
            return header
        except (OSError, ValueError, TypeError, UnicodeDecodeError):
            return None

    def _record(self, exc: BaseException) -> None:
        self.errors += 1
        self.last_error = exc


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
#: The store new shared systems warm themselves from, or None.  Set per
#: process: the sweep runner activates it inline and via the pool
#: initializer, so persistent workers load graphs on first bind and
#: flush what they grew.
_ACTIVE_STORE: Optional[GraphStore] = None


def activate_graph_store(
    directory, version: Optional[str] = None
) -> Optional[GraphStore]:
    """Install the process-wide store; returns the previous one."""
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = GraphStore(directory, version=version)
    return previous


def active_graph_store() -> Optional[GraphStore]:
    """The currently-installed process-wide store, or None."""
    return _ACTIVE_STORE


def deactivate_graph_store(
    previous: Optional[GraphStore] = None,
) -> None:
    """Clear (or restore) the process-wide store installation."""
    global _ACTIVE_STORE
    _ACTIVE_STORE = previous

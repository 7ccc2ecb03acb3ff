"""Cross-session evaluation cache: one decision-path log per evaluator.

The virtual-time simulation is deterministic: the outcome of running
one configuration at one input size — execution time, accuracy, and
the ordered stream of kernel-compile events — depends only on the
answers the run got to the questions it asked of its configuration
(its *decision path*; see
:class:`~repro.core.configuration.ConfigurationView`), plus what an
evaluator fixes for its whole life: program, machine, test inputs,
accuracy metric and seed.  An evaluator indexes its simulations by
path in one :class:`~repro.core.fitness.DecisionTree` per test size,
and this module persists exactly those trees, so repeated tuning
sessions in *different processes* (the test suite, the benchmark
suite, the experiment runner, pool workers, the service daemon) walk
an earlier session's trees instead of simulating.

Storage format
==============

One append-only log per evaluation *context* — everything an outcome
depends on besides the candidate and the test size::

    <cache_dir>/<sha256(header)[:32]>.log

    {"accuracy": ..., "env": ..., "fingerprint": ..., "machine": ...,
     "model": ..., "program": ..., "seed": ..., "version": 2}
    [<size>, <decision path>, [<time_s>, <accuracy>, <compile events>]]<TAB><checksum>
    ...

The first line (the *header*) is the context's canonical JSON.  Every
other line is one simulation: its test size, its decision path and its
pure outcome, then a tab and ``sha256(header + record JSON)[:16]``.
Only simulations append; a candidate served from a tree writes
nothing, because the record that served it is already in the log.

Reads: :meth:`ResultCache.get` returns every record of a log whose
header equals the context verbatim.  A header that differs (two
contexts sharing a truncated hash) is a *collision*: a counted miss,
never served, never appended to.  A header that is not a context at
all, or a line that passes its checksum without a record's shape, is
corruption: the log is quarantined.  Blank lines are skipped.  A
newline-terminated line whose checksum fails is skipped and counted
under ``invalid``; an unterminated final segment may be an append in
flight, so it is skipped without counting.  Each record is appended as
``"\\n" + record + "\\n"`` in one ``O_APPEND`` write
(:func:`repro.core.atomic_json.append`), so a torn tail left by a
crash ends at the next writer's leading newline and can never swallow
its record.  Concurrent writers — ``tune_many`` shards, pool and fleet
workers, daemon jobs — share a log this way.  Records that conflict
(two outcomes for one path) make the loading evaluator quarantine the
log (:meth:`ResultCache.quarantine`) and continue cold: a cache must
never fail a tune.

Durability
==========

Appends are not fsynced one by one.  :meth:`ResultCache.sync` fsyncs
every log the handle loaded or appended to that has grown since its
last sync, then their directory; the tuning driver calls it every
``checkpoint_every`` commits and evaluators call it when they close.
An fsync flushes the whole file, whoever wrote it, so a requester's
sync also makes its pool workers' records durable.  A power loss drops
at most the records written since the last sync, which only makes the
cache colder.  A killed process loses nothing it appended: the log is
all a killed tuning session leaves behind, and a rerun of the session
replays from it.

Invalidation rules
==================

* the context embeds :data:`CACHE_VERSION` — bump it whenever the
  execution model or the log format changes in a way that alters
  virtual times or records;
* the context also embeds the execution-model source hash and a
  *program fingerprint* (kernel sources, choice lists, tunable/selector
  specs, device parameters), so recompiling a changed program or
  retargeting a changed machine misses naturally;
* ``rm -rf`` of the directory is always safe.  Version 1's
  one-file-per-entry ``<hash>.json`` files are never read by version 2
  and can be deleted.

The directory is ``config.cache_dir`` of the session's
:class:`~repro.api.TunerConfig` (``REPRO_CACHE_DIR`` reaches it
through :meth:`~repro.api.TunerConfig.resolve`); with ``None`` the
disk layer is disabled: :meth:`ResultCache.get` and
:meth:`ResultCache.put` return at once, and evaluators keep their
trees in memory only.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import atomic_json
from repro.core.retry import RetryPolicy

#: Bump when the cache layout changes incompatibly.
CACHE_VERSION = 2

#: The packages whose source can change virtual times, test inputs or
#: numerical results (see :func:`execution_model_hash`).
_MODEL_PACKAGES = ("apps", "compiler", "hardware", "runtime", "lang")

_SOURCE_HASHES: Dict[Tuple[str, ...], str] = {}
_SOURCE_HASH_LOCK = threading.Lock()


def source_hash(packages: Tuple[str, ...]) -> str:
    """Content hash of the engine source: every module of ``packages``
    (directories under ``repro/``), then the selector and
    configuration semantics (``core/configuration.py``,
    ``core/selector.py``).

    Memoised per ``packages`` for the life of the process, with
    double-checked locking: the first call walks and hashes the files,
    and in a long-lived daemon the first requests arrive concurrently
    — without the lock each of them would redo the full walk.
    """
    known = _SOURCE_HASHES.get(packages)
    if known is not None:
        return known
    with _SOURCE_HASH_LOCK:
        if packages not in _SOURCE_HASHES:
            import pathlib

            import repro

            root = pathlib.Path(repro.__file__).resolve().parent
            sources = [
                path
                for package in packages
                for path in sorted((root / package).glob("*.py"))
            ]
            sources.append(root / "core" / "configuration.py")
            sources.append(root / "core" / "selector.py")
            digest = hashlib.sha256()
            for path in sources:
                digest.update(path.name.encode("utf-8"))
                try:
                    digest.update(path.read_bytes())
                except OSError:
                    digest.update(b"<unreadable>")
            _SOURCE_HASHES[packages] = digest.hexdigest()[:16]
        return _SOURCE_HASHES[packages]


def execution_model_hash() -> str:
    """Content hash of the execution-model source code.

    Pure evaluation outcomes depend on the simulator itself, not just
    the compiled program, so the cache key embeds a hash of every
    module that can change virtual times, test inputs or numerical
    results (compiler, hardware, runtime, language and application
    layers plus the selector / configuration semantics).  Editing any
    of them invalidates the cache automatically — no manual
    ``CACHE_VERSION`` bump needed for day-to-day model changes.

    Every cache-key build calls this, so after the first call it is
    one dictionary lookup.
    """
    return _SOURCE_HASHES.get(_MODEL_PACKAGES) or source_hash(_MODEL_PACKAGES)


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance.

    Attributes:
        hits: Logs found (loaded by :meth:`ResultCache.get`).
        misses: Logs absent, unreadable, corrupt or another context's.
        stores: Records appended.
        invalid: Records skipped: newline-terminated lines of a loaded
            log that fail their checksum, and records that could not be
            serialised.  This is the operator-facing corruption signal
            — it never counts a benign collision or an append in
            flight.
        collisions: Logs whose header named another context (two
            contexts sharing a truncated hash).  Counted separately
            from ``invalid`` because a collision is expected cache
            behaviour, not corruption.
        quarantined: Logs moved into the ``quarantine/`` subdirectory
            because their records conflict, their header is corrupt or
            a line passing its checksum lacks a record's shape (the
            move itself is best effort).
        write_errors: Appends that failed with ``OSError`` (each
            retried attempt counts; an append that eventually succeeds
            still counts its failed tries here).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    collisions: int = 0
    quarantined: int = 0
    write_errors: int = 0


#: One simulation as a log holds it: test size, decision path, and
#: ``(time_s, accuracy, compile_events)``.
Record = Tuple[int, Tuple, Tuple]


def _header(context: Dict[str, Any]) -> bytes:
    return json.dumps(context, sort_keys=True).encode("ascii")


def _checksum(header: bytes, record: bytes) -> bytes:
    return atomic_json.checksum(header + record).encode("ascii")


def _names_a_context(line: bytes) -> bool:
    """Whether a header line is some context's (a collision) rather
    than corrupt bytes."""
    try:
        return isinstance(json.loads(line), dict)
    except (ValueError, RecursionError):
        return False


def _record(text: bytes) -> Record:
    """One record's JSON back as the tuples the evaluator built, decoded
    by the record's shape.

    Raises:
        RecursionError, TypeError, ValueError: If the JSON does not
            have that shape.
    """
    size, path, (time_s, accuracy, events) = json.loads(text)
    return (
        size,
        tuple([((kind, name, arg), answer) for (kind, name, arg), answer in path]),
        (time_s, accuracy, tuple([(source, device) for source, device in events])),
    )


def _records(header: bytes, body: bytes) -> Tuple[Optional[List[Record]], int]:
    """The records of a log's ``body`` (everything after its header
    line), and how many terminated lines were skipped as invalid.

    The records are None when a line passes its checksum but does not
    have a record's shape: only a faulty writer leaves one, so the
    whole log is suspect.
    """
    lines = body.split(b"\n")
    lines.pop()  # unterminated: empty, or an append in flight
    records: List[Record] = []
    seen: Set[bytes] = set()
    invalid = 0
    for line in lines:
        if not line or line in seen:
            continue  # blank, or a path two writers both simulated
        seen.add(line)
        text, _, checksum = line.rpartition(b"\t")
        if checksum != _checksum(header, text):
            invalid += 1
            continue
        try:
            records.append(_record(text))
        except (RecursionError, TypeError, ValueError):
            return None, invalid
    return records, invalid


class ResultCache:
    """Decision-path logs of pure evaluation outcomes, on disk.

    One handle may serve many evaluators and threads at once.

    Args:
        directory: Cache directory (created on first append).  ``None``
            disables the disk layer: :meth:`get` always misses and
            :meth:`put` is a no-op.
    """

    #: Fault-injection point of the append path.
    FAULT_POINT = "cache.put"

    def __init__(self, directory: Optional[str]) -> None:
        self._directory = directory
        self.stats = CacheStats()
        # Guards the counters and the log sets below: evaluators on
        # pool threads share one handle.
        self._lock = threading.Lock()
        # Every log this handle loaded or appended to -> its size at
        # this handle's last sync (-1 before the first).
        self._logs: Dict[str, int] = {}
        # Logs whose header names another context: never appended to.
        self._foreign: Set[str] = set()
        # Transient write failures (momentarily full disk, EINTR-ish
        # conditions) get a couple of quick retries before the append
        # is abandoned; the cache is still never a correctness
        # dependency.
        self._retry = RetryPolicy(attempts=3, base_delay_s=0.02, max_delay_s=0.2)

    @property
    def enabled(self) -> bool:
        """Whether the disk layer is active."""
        return self._directory is not None

    @property
    def directory(self) -> Optional[str]:
        """The cache directory (None when disabled)."""
        return self._directory

    def path_for(self, context: Dict[str, Any]) -> str:
        """The log file of ``context``."""
        return self._path(_header(context))

    def _path(self, header: bytes) -> str:
        assert self._directory is not None
        digest = hashlib.sha256(header).hexdigest()[:32]
        return os.path.join(self._directory, f"{digest}.log")

    def get(self, context: Dict[str, Any]) -> Optional[List[Record]]:
        """Load the log of ``context``.

        Args:
            context: JSON-serialisable evaluator identity (see the
                module docstring).

        Returns:
            Its records in append order, each distinct record once, or
            None when the log is absent, unreadable, corrupt or another
            context's.
        """
        if self._directory is None:
            return None
        header = _header(context)
        path = self._path(header)
        with self._lock:
            self._logs.setdefault(path, -1)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        first, newline, body = data.partition(b"\n")
        if first == header:
            records, invalid = _records(header, body)
            if records is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.invalid += invalid
                return records
        elif newline and _names_a_context(first):
            with self._lock:
                self._foreign.add(path)
                self.stats.collisions += 1
                self.stats.misses += 1
            return None
        # No writer leaves a torn header (logs are published whole) or
        # a checksummed line of another shape, so this is corruption:
        # move it aside and let the next append start a fresh log.
        moved = atomic_json.quarantine(path)
        with self._lock:
            self.stats.misses += 1
            self.stats.quarantined += int(moved)
        return None

    def put(
        self, context: Dict[str, Any], size: int, path: Tuple, outcome: Tuple
    ) -> None:
        """Append one simulation's record to the log of ``context``
        (no-op when disabled), creating the log if it is missing.

        Failures never crash the tuner — the cache is an accelerator,
        never a correctness dependency.  Write failures (read-only or
        full disk, ``OSError``, including the ``oserror`` fault of
        :attr:`FAULT_POINT`) are retried briefly, then swallowed and
        counted under ``stats.write_errors``; a record that cannot be
        serialised is swallowed too but counted under
        ``stats.invalid``.
        """
        if self._directory is None:
            return
        header = _header(context)
        log = self._path(header)
        with self._lock:
            if log in self._foreign:
                return
        try:
            record = json.dumps([size, path, outcome], separators=(",", ":"))
        except (TypeError, ValueError):
            with self._lock:
                self.stats.invalid += 1
            return
        text = record.encode("ascii")
        line = b"\n" + text + b"\t" + _checksum(header, text) + b"\n"

        def _count_write_error(_exc: BaseException, _attempt: int) -> None:
            with self._lock:
                self.stats.write_errors += 1

        try:
            appended = self._retry.call(
                lambda: atomic_json.append(
                    log, line, self.FAULT_POINT, header + b"\n"
                ),
                retry_on=(OSError,),
                on_retry=_count_write_error,
            )
        except OSError:
            with self._lock:
                self.stats.write_errors += 1
            return
        with self._lock:
            self._logs.setdefault(log, -1)
            self.stats.stores += int(appended)

    def sync(self) -> None:
        """Make every record in the logs this handle loaded or appended
        to durable (see the module docstring).

        A log that has not grown since this handle last synced it is
        skipped: an fsync of a clean file still flushes the device.
        """
        with self._lock:
            logs = list(self._logs.items())
        grown: Dict[str, int] = {}
        for path, synced in logs:
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            if size != synced:
                grown[path] = size
        if grown:
            atomic_json.sync(grown)
            with self._lock:
                self._logs.update(grown)

    def quarantine(self, context: Dict[str, Any]) -> None:
        """Move the log of ``context`` into ``quarantine/`` (counted):
        its records conflict, so no evaluator may load it again.  The
        next append starts a fresh log."""
        if self._directory is None:
            return
        moved = atomic_json.quarantine(self.path_for(context))
        with self._lock:
            self.stats.quarantined += int(moved)

    def merge_stats(self, counts: Dict[str, int]) -> None:
        """Fold another cache's counters into this instance's stats.

        Process-sharded batch runs open their own cache handle on the
        shared directory inside each worker; the shard ships its
        counters back as a plain dict (``dataclasses.asdict``) and the
        parent folds them in here, so multi-shard totals are true
        totals instead of silently dropping every worker's traffic.
        Unknown keys are ignored — an older shard payload can never
        crash the parent.
        """
        with self._lock:
            for counter in fields(CacheStats):
                name = counter.name
                setattr(
                    self.stats,
                    name,
                    getattr(self.stats, name) + int(counts.get(name, 0)),
                )

"""Disk-backed memo store for derivation-graph nodes.

:class:`DerivationStore` keeps one JSON file per node under the
``graph/`` subdirectory of the cache directory::

    <cache_dir>/graph/<sha256(location)[:32]>.json

    {"key": <location>, "payload": <node payload>, "checksum": <16 hex>}

Files are published through :func:`repro.core.atomic_json.write` (a
crash at any instant leaves the previous file or the complete new one)
and sealed with a checksum of their content
(:func:`repro.core.atomic_json.sealed`); corrupt ones, a changed byte
that still parses included, are moved into ``graph/quarantine/``.
Transient write failures are retried with bounded backoff before being
swallowed, and traffic is counted in
:class:`~repro.core.result_cache.CacheStats`.

Entries are keyed by a node's *location* — the stable identity of the
derivation (program, machine, node name, size, seed) — and carry the
node's current *content digest* in the payload.  The stored location is
compared verbatim on lookup, so a hash collision or stale file can
never serve a wrong node.  The graph layer compares the stored digest
against the freshly computed one: equal means the derivation is
memoized (clean), different means some input key changed (dirty).
Keying by location rather than content is what lets a dirty lookup
still surface the *stale* payload — the previous tuning report that
warm-starts the re-tune.

Fault injection targets the store through its own point, ``graph.put``
(the evaluation cache keeps ``cache.put``), so chaos tests can break
one store at a time.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional

from repro.core import atomic_json
from repro.core.result_cache import CacheStats
from repro.core.retry import RetryPolicy

__all__ = ["CacheStats", "DerivationStore"]


class DerivationStore:
    """Memo store for derivation-graph nodes, one file per location.

    Args:
        directory: Store directory (created on first write).  ``None``
            disables the store: :meth:`get` always misses and
            :meth:`put` is a no-op.
    """

    FAULT_POINT = "graph.put"

    def __init__(self, directory: Optional[str]) -> None:
        self._directory = directory
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()
        self._retry = RetryPolicy(attempts=3, base_delay_s=0.02, max_delay_s=0.2)

    @staticmethod
    def for_cache_dir(cache_dir: Optional[str]) -> "DerivationStore":
        """Store in a cache directory's ``graph/`` subdirectory
        (disabled when the cache directory is None)."""
        if cache_dir is None:
            return DerivationStore(None)
        return DerivationStore(os.path.join(cache_dir, "graph"))

    @property
    def enabled(self) -> bool:
        """Whether the store is active."""
        return self._directory is not None

    @property
    def directory(self) -> Optional[str]:
        """The store directory (None when disabled)."""
        return self._directory

    def _path_for(self, key: Dict[str, Any]) -> str:
        assert self._directory is not None
        return atomic_json.entry_path(self._directory, key)

    def get(self, key: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The payload stored at location ``key``, or None.

        Corrupt and unreadable files, and files whose checksum does not
        match their content, count as invalid misses and are
        quarantined; an intact file for another location (two
        locations sharing a truncated hash) is a collision.
        """
        if self._directory is None:
            return None
        path = self._path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            # A pure miss.  Checking os.path.exists() after the failed
            # open would race concurrent writers (the entry can appear
            # in between) and miscount a miss as invalid.
            with self._stats_lock:
                self.stats.misses += 1
            return None
        except (OSError, ValueError):
            self._reject_corrupt(path)
            return None
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("payload"), dict)
            or not atomic_json.intact(entry)
        ):
            self._reject_corrupt(path)
            return None
        if entry.get("key") != key:
            with self._stats_lock:
                self.stats.collisions += 1
                self.stats.misses += 1
            return None
        with self._stats_lock:
            self.stats.hits += 1
        return entry["payload"]

    def put(self, key: Dict[str, Any], payload: Dict[str, Any]) -> None:
        """Store a payload at location ``key`` atomically and
        crash-safely (no-op when disabled).

        Failures never raise: ``OSError`` (including the ``oserror``
        fault of :attr:`FAULT_POINT`) is retried briefly, then
        swallowed and counted under ``stats.write_errors``; a payload
        that cannot be serialised is counted under ``stats.invalid``.
        """
        if self._directory is None:
            return
        try:
            text = atomic_json.sealed({"key": key, "payload": payload})
        except (TypeError, ValueError):
            with self._stats_lock:
                self.stats.invalid += 1
            return
        path = self._path_for(key)

        def _count_write_error(_exc: BaseException, _attempt: int) -> None:
            with self._stats_lock:
                self.stats.write_errors += 1

        try:
            published = self._retry.call(
                lambda: atomic_json.write(path, text, self.FAULT_POINT),
                retry_on=(OSError,),
                on_retry=_count_write_error,
            )
        except OSError:
            with self._stats_lock:
                self.stats.write_errors += 1
            return
        if published:
            with self._stats_lock:
                self.stats.stores += 1

    def _reject_corrupt(self, path: str) -> None:
        """Count a corrupt entry as an invalid miss and move it aside
        (best effort) instead of leaving it to be re-read — and
        re-counted — forever."""
        moved = atomic_json.quarantine(path)
        with self._stats_lock:
            self.stats.invalid += 1
            self.stats.misses += 1
            self.stats.quarantined += int(moved)

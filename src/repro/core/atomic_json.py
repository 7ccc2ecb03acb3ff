"""The one crash-safe write path of every on-disk store.

The result cache's decision-path logs, the derivation-graph store, the
checkpoint store and the service daemon's queued-job backlog all write
files here, and nothing else in the package renames, fsyncs or creates
temp files.  The module owns six decisions:

* **Where an entry lives**: :func:`entry_path` names a keyed entry by
  the first 32 hex digits of the SHA-256 of the key's canonical JSON.
* **How an entry proves its content**: :func:`checksum` is the one
  checksum of every store (:func:`json_checksum` of a JSON value's
  canonical text).  :func:`sealed` adds a ``"checksum"`` field to a
  JSON entry, and :func:`intact` checks it on read, so a changed byte
  is caught even where the JSON still parses.
* **How a file is published**: :func:`write` writes a temp file in the
  target directory, fsyncs it, ``os.replace``-s it into place and
  fsyncs the directory entry, so a crash at any instant leaves either
  the previous file or the complete new one, never torn bytes under
  the published name.
* **How a log grows**: :func:`append` adds bytes to a log with one
  ``O_APPEND`` write and no fsync.  A missing log is first published
  with its header already in it (a fsynced temp file ``os.link``-ed
  into place), so no reader or writer ever sees a log without one.
* **When appends become durable**: :func:`sync` fsyncs logs and their
  directories; callers choose when (every ``checkpoint_every`` commits
  and at close).
* **Where a corrupt file goes**: :func:`quarantine` moves it into a
  ``quarantine/`` directory beside it, inspectable and never re-read.

Policy stays with the callers: whether to retry, what to count, and
whether a failed write is swallowed.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterable

from repro import faults


def entry_path(directory: str, key: Any, prefix: str = "") -> str:
    """``<directory>/<prefix><sha256(canonical key JSON)[:32]>.json``."""
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("utf-8")
    ).hexdigest()[:32]
    return os.path.join(directory, f"{prefix}{digest}.json")


def checksum(data: bytes) -> str:
    """The first 16 hex digits of the SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()[:16]


def json_checksum(value: Any) -> str:
    """:func:`checksum` of ``value``'s canonical (sorted-key) JSON."""
    return checksum(json.dumps(value, sort_keys=True).encode("utf-8"))


def sealed(entry: Dict[str, Any]) -> str:
    """``entry`` as JSON text, its ``"checksum"`` field set to the
    checksum of the canonical JSON of the rest of it."""
    return json.dumps(dict(entry, checksum=_content_checksum(entry)))


def intact(entry: Dict[str, Any]) -> bool:
    """Whether a parsed :func:`sealed` entry still matches its
    checksum; an entry without one never does."""
    return entry.get("checksum") == _content_checksum(entry)


def _content_checksum(entry: Dict[str, Any]) -> str:
    return json_checksum(
        {key: value for key, value in entry.items() if key != "checksum"}
    )


def write(path: str, text: str, point: str) -> bool:
    """Publish ``text`` at ``path`` atomically and durably.

    Creates the directory first.  Fault point ``point``: ``oserror``
    raises a transient write failure; ``torn`` simulates a crash
    mid-write, leaving half the bytes in an unpublished ``.tmp`` file
    exactly as a real crash would.

    Returns:
        True once published; False when ``torn`` stopped the write.

    Raises:
        OSError: The write failed.  The temp file is removed and the
            previously published file, if any, is untouched.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fault = faults.fault_point(point)
    if fault is not None and fault.kind == "oserror":
        raise faults.injected_oserror(fault)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if fault is not None and fault.kind == "torn":
                handle.write(text[: max(1, len(text) // 2)])
                return False
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync(directory)
    return True


def append(path: str, data: bytes, point: str, header: bytes) -> bool:
    """Append ``data`` to the log at ``path`` with one ``O_APPEND``
    write, and no fsync (see :func:`sync`).

    A missing log is created first, with ``header`` already in it: a
    fsynced temp file is hard-linked into place, so the log appears
    complete or not at all, and of two racing creators the first wins.
    Fault point ``point``: ``oserror`` raises a transient write
    failure; ``torn`` writes half of ``data``, as a crash mid-append
    would.

    Returns:
        True once appended; False when ``torn`` stopped the write.

    Raises:
        OSError: The append failed (a short write included).
    """
    fault = faults.fault_point(point)
    if fault is not None and fault.kind == "oserror":
        raise faults.injected_oserror(fault)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    except FileNotFoundError:
        _create(path, header)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        if fault is not None and fault.kind == "torn":
            os.write(fd, data[: max(1, len(data) // 2)])
            return False
        if os.write(fd, data) != len(data):
            raise OSError(errno.EIO, f"short append to {path}")
    finally:
        os.close(fd)
    return True


def _create(path: str, header: bytes) -> None:
    """Publish a new log holding only ``header``, unless one exists."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp_path, path)
        except FileExistsError:
            pass  # another writer published it first
    finally:
        os.unlink(tmp_path)


def sync(paths: Iterable[str]) -> None:
    """Make every byte written to ``paths`` durable, whoever wrote it:
    fsync each file, then each of their directories (so a log created
    since the last sync survives power loss too).  Best effort, like
    every fsync here: a file that is gone is skipped."""
    directories = set()
    for path in paths:
        _fsync(path)
        directories.add(os.path.dirname(path))
    for directory in sorted(directories):
        _fsync(directory)


def quarantine_dir(directory: str) -> str:
    """Where :func:`quarantine` moves a corrupt file of ``directory``."""
    return os.path.join(directory, "quarantine")


def quarantine(path: str) -> bool:
    """Move a corrupt file into ``quarantine/`` beside it (best effort).

    Returns:
        True when the file was moved.
    """
    pen = quarantine_dir(os.path.dirname(path))
    try:
        os.makedirs(pen, exist_ok=True)
        os.replace(path, os.path.join(pen, os.path.basename(path)))
    except OSError:
        return False
    return True


def _fsync(path: str) -> None:
    """Flush a file, or a directory entry so a rename or link survives
    power loss.

    Best effort: a path that is gone is skipped, and some platforms and
    filesystems refuse to fsync a directory opened read-only; crash
    safety degrades gracefully there."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)

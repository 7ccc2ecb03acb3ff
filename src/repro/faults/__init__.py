"""Deterministic fault injection for the long-lived planes.

The cluster backend, the tuning daemon and the persistence layer all
promise to *recover* — re-dispatch lost tasks, re-attach to a revived
coordinator, quarantine corrupt files, requeue a persisted backlog.
None of those promises can be trusted unless the failure that triggers
them can be replayed exactly, so this module provides the one thing a
chaos test needs: named injection points whose firing pattern is a
pure function of a seed.

Usage — production code declares injection points::

    from repro import faults

    action = faults.fault_point("cache.put")
    if action is not None and action.kind == "oserror":
        raise faults.injected_oserror(action)

With no plan installed (the default), :func:`fault_point` is a single
global ``None`` check — the hot paths pay nothing.  A chaos run
installs a plan from a spec string::

    faults.install("seed=42;cluster.send_frame=drop@0.2#3;cache.put=oserror#2")

or environment (``REPRO_FAULTS``, read once at import so worker
*processes* inherit the plan), or :class:`repro.api.TunerConfig`'s
``fault_spec`` knob (installed by :class:`~repro.api.Session` and the
service daemon).

Spec grammar
============

``seed=<int>`` plus any number of ``point=action`` entries, separated
by ``;``::

    point = kind[:arg][@rate][#limit]

* ``kind`` — one of :data:`ACTION_KINDS`; what the *call site* does
  with it (drop a frame, raise ``ENOSPC``, sleep, abort a transport).
* ``arg`` — optional action argument, and only on the kinds that take
  one: ``delay`` and ``slow`` take seconds (``delay:0.05``; default
  0.01), finite, > 0 and at most ``threading.TIMEOUT_MAX``;
  ``oserror`` takes an ``errno`` name (``oserror:EIO``; default
  ``ENOSPC``).  Every other kind refuses an argument.
* ``@rate`` — probability per check, in ``(0, 1]`` (default 1: always).
* ``#limit`` — maximum number of firings, at least 1 (default
  unlimited).

``seed``, the rate, the limit and the seconds are written as
:class:`~repro.api.TunerConfig` knobs are: ASCII digits only, so no
``1_0``, no non-ASCII digits, no ``inf`` and no ``nan``.  A bad clause
raises :class:`~repro.errors.ConfigError` naming it when the spec is
parsed, never when its fault fires.

Determinism: the decision for the *n*-th check of a point hashes
``(seed, point, n)`` — each point carries its own counter, so thread
interleaving *across* points cannot change any point's firing
pattern.  Two runs with the same seed and the same per-point call
sequences inject exactly the same faults.

Injection-point vocabulary (what ships in this repo):

======================== ================================================
point                    call site / sensible kinds
======================== ================================================
cluster.send_frame       every async cluster/service frame send
                         (``drop``, ``truncate`` — aborts the transport
                         mid-frame, ``delay:<s>``)
worker.compute           worker evaluation handler (``delay:<s>`` — a
                         straggler)
worker.result_ack        after compute, before the result frame
                         (``crash`` — the host dies before acking)
worker.heartbeat         worker heartbeat loop (``delay:<s>`` — slow
                         heartbeats, tripping the reaper)
service.handler          daemon request dispatch (``delay:<s>`` — a slow
                         verb)
service.result_frame     daemon result responses (``drop`` — the client
                         dies mid-result)
cache.put                ResultCache log appends (``oserror`` —
                         transient ENOSPC, ``torn`` — crash mid-append:
                         half a record at the log's tail)
graph.put                DerivationStore writes (``oserror``, ``torn``)
checkpoint.save          CheckpointStore writes (``oserror``, ``torn``)
service.backlog          daemon backlog writes (``oserror``, ``torn``)
======================== ================================================

The four persistence points are checked by the one crash-safe write
path: ``cache.put`` by :func:`repro.core.atomic_json.append`, the other
three by :func:`repro.core.atomic_json.write`.
"""

from __future__ import annotations

import errno
import hashlib
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.api.config import (
    _SECONDS_TEXT,
    ENV_FAULTS,
    FALSY_VALUES,
    _Integer,
    _Kind,
    _Seconds,
)
from repro.errors import ConfigError

__all__ = [
    "ACTION_KINDS",
    "ENV_FAULTS",
    "FaultAction",
    "FaultPlan",
    "FaultInjector",
    "fault_point",
    "injected_oserror",
    "install",
    "installed_plan",
    "parse_fault_plan",
    "snapshot",
    "uninstall",
]

#: Recognised action kinds.  Parsing rejects anything else — a typo in
#: a chaos spec must fail loudly, not silently inject nothing.
ACTION_KINDS = frozenset(
    {"drop", "delay", "truncate", "corrupt", "oserror", "torn", "crash", "slow"}
)

#: The kinds whose action takes seconds as its argument.
_SECONDS_KINDS = frozenset({"delay", "slow"})


def _check_errno_name(text: str) -> None:
    """Raise :class:`ConfigError` unless ``text`` names an ``errno``
    code (any case)."""
    name = text.upper()
    if not (name.startswith("E") and isinstance(getattr(errno, name, None), int)):
        raise ConfigError(f"expected an errno name such as ENOSPC, got {text!r}")


def _read(kind: _Kind, text: str, what: str, clause: str):
    """``text`` read as ``kind``; a :class:`ConfigError` names the
    clause and what was being read."""
    try:
        return kind.read(text)
    except ConfigError as exc:
        raise ConfigError(f"malformed fault {what} in {clause!r}: {exc}") from None


@dataclass(frozen=True)
class FaultAction:
    """One parsed ``kind[:arg][@rate][#limit]`` clause.

    Attributes:
        kind: Action kind (see :data:`ACTION_KINDS`).
        arg: Optional argument string (e.g. seconds for ``delay``).
        rate: Firing probability per check, ``(0, 1]``.
        limit: Maximum firings; ``None`` means unlimited.
    """

    kind: str
    arg: Optional[str] = None
    rate: float = 1.0
    limit: Optional[int] = None

    @property
    def seconds(self) -> float:
        """The argument as seconds (``delay``/``slow`` actions)."""
        return float(self.arg) if self.arg is not None else 0.01


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the point -> action mapping parsed from one spec."""

    seed: int = 0
    actions: "Dict[str, FaultAction]" = field(default_factory=dict)
    spec: str = ""


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse one spec string (see module docstring for the grammar).

    Raises:
        ConfigError: On malformed clauses, unknown action kinds, or
            out-of-range rates/limits.
    """
    seed = 0
    actions: Dict[str, FaultAction] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        point, sep, action_text = clause.partition("=")
        point = point.strip()
        action_text = action_text.strip()
        if not sep or not point or not action_text:
            raise ConfigError(
                f"malformed fault clause {clause!r}: expected 'point=action'"
            )
        if point == "seed":
            seed = _read(_Integer(-sys.maxsize), action_text, "seed", clause)
            continue
        limit: Optional[int] = None
        if "#" in action_text:
            action_text, _, limit_text = action_text.rpartition("#")
            limit = _read(_Integer(1), limit_text, "limit", clause)
        rate = 1.0
        if "@" in action_text:
            action_text, _, rate_text = action_text.rpartition("@")
            if not _SECONDS_TEXT.fullmatch(rate_text.strip()):
                raise ConfigError(
                    f"malformed fault rate in {clause!r}: expected a number"
                )
            rate = float(rate_text)
            if not 0.0 < rate <= 1.0:
                raise ConfigError(
                    f"fault rate must be in (0, 1] in {clause!r}, got {rate}"
                )
        kind, _, arg = action_text.partition(":")
        kind = kind.strip().lower()
        arg = arg.strip()
        if kind not in ACTION_KINDS:
            raise ConfigError(
                f"unknown fault action {kind!r} in {clause!r}; "
                f"known kinds: {sorted(ACTION_KINDS)}"
            )
        if arg:
            if kind in _SECONDS_KINDS:
                _read(_Seconds(), arg, "seconds", clause)
            elif kind == "oserror":
                try:
                    _check_errno_name(arg)
                except ConfigError as exc:
                    raise ConfigError(
                        f"malformed fault errno in {clause!r}: {exc}"
                    ) from None
            else:
                raise ConfigError(
                    f"fault action {kind!r} takes no argument, got {arg!r} "
                    f"in {clause!r}"
                )
        actions[point] = FaultAction(
            kind=kind, arg=arg or None, rate=rate, limit=limit
        )
    return FaultPlan(seed=seed, actions=actions, spec=spec)


class FaultInjector:
    """Seeded decision engine over one :class:`FaultPlan`.

    Every injection point carries its own check counter, and the
    decision for check *n* of point *p* is ``hash(seed, p, n) < rate``
    — deterministic per point regardless of how threads interleave
    checks *across* points.  Thread-safe; counters are intentionally
    cheap (one lock, two dict updates) because a no-op plan never
    reaches them (:func:`fault_point` short-circuits on the module
    global).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._checks: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    def check(self, point: str) -> Optional[FaultAction]:
        """The action to inject at this point right now, or ``None``."""
        action = self.plan.actions.get(point)
        if action is None:
            return None
        with self._lock:
            count = self._checks.get(point, 0)
            self._checks[point] = count + 1
            fired = self._fired.get(point, 0)
            if action.limit is not None and fired >= action.limit:
                return None
            if action.rate < 1.0 and not self._decide(point, count, action.rate):
                return None
            self._fired[point] = fired + 1
        return action

    def _decide(self, point: str, count: int, rate: float) -> bool:
        digest = hashlib.sha256(
            f"{self.plan.seed}|{point}|{count}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return fraction < rate

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-point ``{"checks": n, "fired": m}`` counters."""
        with self._lock:
            return {
                point: {
                    "checks": self._checks.get(point, 0),
                    "fired": self._fired.get(point, 0),
                }
                for point in set(self._checks) | set(self._fired)
            }


#: The installed injector; ``None`` (the overwhelmingly common case)
#: makes every fault_point() call a single attribute load + comparison.
_INJECTOR: Optional[FaultInjector] = None


def fault_point(point: str) -> Optional[FaultAction]:
    """The action to inject at ``point`` right now, or ``None``.

    This is the only call production code makes.  With no plan
    installed it costs one global read — the acceptance criterion for
    shipping injection points on warm paths.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.check(point)


def install(spec: Optional[str]) -> Optional[FaultInjector]:
    """Install (or, with a falsy spec, clear) the process-wide plan.

    Re-installing the identical spec keeps the current injector (and
    its counters): callers like :class:`~repro.api.Session` install
    from ``TunerConfig.fault_spec`` on every construction, and
    resetting counters mid-run would break per-seed determinism.

    Raises:
        ConfigError: On a malformed spec.
    """
    global _INJECTOR
    if not spec or not spec.strip():
        _INJECTOR = None
        return None
    current = _INJECTOR
    if current is not None and current.plan.spec == spec:
        return current
    _INJECTOR = FaultInjector(parse_fault_plan(spec))
    return _INJECTOR


def uninstall() -> None:
    """Remove the installed plan; every point goes back to no-op."""
    global _INJECTOR
    _INJECTOR = None


def installed_plan() -> Optional[FaultPlan]:
    """The active plan, or ``None``."""
    injector = _INJECTOR
    return None if injector is None else injector.plan


def snapshot() -> Dict[str, Dict[str, int]]:
    """Counters of the installed injector (empty when none)."""
    injector = _INJECTOR
    return {} if injector is None else injector.snapshot()


def injected_oserror(action: FaultAction) -> OSError:
    """The OSError an ``oserror`` action stands for (ENOSPC by
    default; ``oserror:<errno-name>`` picks another, and the parser
    refuses a name that is not an ``errno`` code)."""
    code = getattr(errno, (action.arg or "ENOSPC").upper())
    return OSError(code, f"injected fault: {os.strerror(code)}")


# Read the environment once at import: spawned worker processes (the
# process backend, `python -m repro.cluster worker`) import this module
# fresh and thereby inherit the parent's chaos plan with zero plumbing.
_env_spec = os.environ.get(ENV_FAULTS)
if _env_spec and _env_spec.strip().lower() not in FALSY_VALUES:
    install(_env_spec)

"""The strategy-agnostic asynchronous tuning driver.

Historically the tune loop lived inside ``EvolutionaryTuner`` and ran
one generation at a time: draw a window, evaluate it, commit, repeat —
every generation a barrier where the pooled backends (threads,
processes) sat idle.  :class:`TuningDriver` replaces that loop with a
streaming pipeline over any :class:`~repro.core.strategies.base.SearchStrategy`:

* it keeps a queue of speculative proposals topped up to
  ``inflight_per_worker x workers`` candidates, prefetched on the
  evaluation backend, so every worker always has a next simulation;
* it commits results one at a time **in proposal order** through the
  ordered-commit layer of :mod:`repro.core.fitness`, so accounting
  (evaluation counts, virtual tuning time, JIT replay) is bit-for-bit
  identical to a serial driver no matter the backend or queue depth;
* when an observation invalidates the speculative tail (the strategy
  returns True from ``observe``), the queue is discarded exactly like
  the historical window discard.

Checkpoint / resume
===================

The evaluation log is the only checkpoint.  Every simulation is
appended to the result cache's decision-path log as it happens, and
every ``checkpoint_every`` commits the driver makes those appends
durable (:meth:`~repro.core.result_cache.ResultCache.sync`).  Running a
killed session again is an ordinary run from its start: the
evaluator's decision trees, loaded from the log, serve every candidate
the killed run already simulated, while the strategy, the session JIT
model and the deterministic counters rebuild commit by commit.  The
report is byte-identical to an uninterrupted run (only the
``computed_evaluations`` wall-clock gauge differs).

A finished session writes its report to a :class:`CheckpointStore`
under the cache directory (``checkpoints/``); with ``resume`` on, a
rerun serves that report without evaluating anything.  Stored reports
are keyed by program fingerprint, machine, strategy, seed and plan, so
a file from a different session can never be (mis)used.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.api.config import DEFAULT_CHECKPOINT_EVERY
from repro.compiler.compile import CompiledProgram
from repro.core import atomic_json
from repro.core.configuration import Configuration
from repro.core.fitness import Evaluator
from repro.core.report import TuningReport, report_from_payload, report_to_payload
from repro.core.result_cache import execution_model_hash
from repro.core.strategies.base import Proposal, SearchPlan, SearchStrategy
from repro.errors import ConfigurationError, TuningError

#: Bump when the checkpoint layout changes incompatibly.  Version 2
#: files hold finished reports only, each sealed with a checksum.
CHECKPOINT_VERSION = 2

#: Default speculative queue depth per evaluation worker.
DEFAULT_INFLIGHT_PER_WORKER = 2


def progress_printer() -> Callable[[str], None]:
    """The default progress sink: one line per round on stderr."""

    def emit(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    return emit


_RESUME_WARNED = False


def _warn_resume_without_store() -> None:
    """One warning per process when resume is requested but no
    checkpoint store exists — otherwise ``--resume`` without a
    ``REPRO_CACHE_DIR`` silently restarts hours of tuning."""
    global _RESUME_WARNED
    if _RESUME_WARNED:
        return
    _RESUME_WARNED = True
    print(
        "[tune] warning: resume requested but checkpointing is disabled "
        "(set REPRO_CACHE_DIR to enable checkpoints); starting from scratch",
        file=sys.stderr,
        flush=True,
    )


@dataclass(frozen=True)
class CandidateEvent:
    """One committed candidate evaluation, as streamed to observers.

    Attributes:
        program: Program name.
        machine: Machine codename.
        strategy: Search-strategy name.
        config_key: Canonical JSON of the evaluated configuration.
        size: Test input size.
        time_s: Virtual execution time (the fitness).
        accuracy: Error metric (None without an accuracy function).
        feasible: Whether the candidate met its accuracy target.
        committed: Total evaluations committed so far (this one
            included).
    """

    program: str
    machine: str
    strategy: str
    config_key: str
    size: int
    time_s: float
    accuracy: Optional[float]
    feasible: bool
    committed: int


@dataclass(frozen=True)
class RoundEvent:
    """One completed search round, as streamed to observers.

    Attributes:
        program: Program name.
        machine: Machine codename.
        strategy: Search-strategy name.
        index: Zero-based round index.
        rounds: Total planned rounds (== planned test sizes).
        size: Input size the round tuned at.
        best_time_s: Best virtual time at the end of the round.
        committed: Evaluations committed so far.
        proposed: Proposals handed out so far.
    """

    program: str
    machine: str
    strategy: str
    index: int
    rounds: int
    size: int
    best_time_s: float
    committed: int
    proposed: int


@dataclass
class DriverStats:
    """Wall-clock-side counters for one driver run (not part of the
    deterministic report).

    Attributes:
        proposed: Proposals handed out by the strategy.
        committed: Evaluations committed.
        discarded: Proposals invalidated before commit.
        invalidations: Times the speculative tail was discarded.
        max_pending: Peak speculative queue depth.
        checkpoints_written: Evaluation-log syncs made every
            ``checkpoint_every`` commits.
    """

    proposed: int = 0
    committed: int = 0
    discarded: int = 0
    invalidations: int = 0
    max_pending: int = 0
    checkpoints_written: int = 0


@dataclass
class CheckpointScanStats:
    """What one :meth:`CheckpointStore.finished_reports` scan saw.

    Every skipped file is *counted* (never silently dropped): the
    daemon's boot scan reports these through ``metrics``, so an
    operator can tell "empty store" apart from "store full of
    garbage".

    Attributes:
        scanned: Candidate ``tune_*.json`` files examined.
        yielded: Complete, current, model-matched reports yielded.
        unreadable: Truncated/unparseable/unopenable files, and files
            whose checksum does not match their content.
        malformed: Parsed but structurally wrong (non-dict entry,
            missing identity/report dicts).
        not_complete: Partial checkpoints that older versions left
            (ignored; this version writes finished reports only).
        wrong_version: Complete but from another checkpoint layout.
        stale_model: Complete but hashed against different
            execution-model code.
    """

    scanned: int = 0
    yielded: int = 0
    unreadable: int = 0
    malformed: int = 0
    not_complete: int = 0
    wrong_version: int = 0
    stale_model: int = 0


class CheckpointStore:
    """Finished sessions' reports, one atomic, crash-safe JSON file per
    session identity, each sealed with a checksum of its content
    (:func:`repro.core.atomic_json.sealed`).

    Args:
        directory: Checkpoint directory (created on first write).
            ``None`` disables the store entirely.

    Attributes:
        last_scan: The :class:`CheckpointScanStats` of the most recent
            :meth:`finished_reports` scan (``None`` before the first).
    """

    def __init__(self, directory: Optional[str]) -> None:
        self._directory = directory
        self.last_scan: Optional[CheckpointScanStats] = None

    @staticmethod
    def for_cache_dir(cache_dir: Optional[str]) -> "CheckpointStore":
        """Store in a cache directory's ``checkpoints/`` subdirectory
        (disabled when the cache directory is None)."""
        if cache_dir is None:
            return CheckpointStore(None)
        return CheckpointStore(os.path.join(cache_dir, "checkpoints"))

    @property
    def enabled(self) -> bool:
        return self._directory is not None

    @property
    def directory(self) -> Optional[str]:
        return self._directory

    def path_for(self, identity: Dict[str, object]) -> str:
        assert self._directory is not None
        return atomic_json.entry_path(self._directory, identity, prefix="tune_")

    def load(self, identity: Dict[str, object]) -> Optional[Dict[str, object]]:
        """The stored entry for this identity (None on miss/corruption).

        A file that exists but cannot be parsed, fails its checksum or
        names another identity is moved aside into the store's
        ``quarantine/`` subdirectory so the next :meth:`save` starts
        from a clean slot and the broken bytes stay inspectable.
        """
        if self._directory is None:
            return None
        path = self.path_for(identity)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            atomic_json.quarantine(path)
            return None
        if (
            not isinstance(entry, dict)
            or not atomic_json.intact(entry)
            or entry.get("identity") != identity
        ):
            atomic_json.quarantine(path)
            return None
        return entry

    def save(self, identity: Dict[str, object], state: Dict[str, object]) -> None:
        """Persist an entry atomically and durably through
        :func:`repro.core.atomic_json.write` (fault point
        ``checkpoint.save``).  One attempt; a failure is swallowed —
        a stored report only saves a rerun, it is never a correctness
        dependency.

        Durability matters here even though correctness does not: a
        file that was renamed into place but never reached the platter
        can reappear *truncated* after a power loss.
        """
        if self._directory is None:
            return
        entry = dict(state)
        entry["identity"] = identity
        entry["version"] = CHECKPOINT_VERSION
        text = atomic_json.sealed(entry)
        try:
            atomic_json.write(self.path_for(identity), text, "checkpoint.save")
        except OSError:
            return

    def finished_reports(
        self,
        stats: Optional[CheckpointScanStats] = None,
    ) -> Iterator[Tuple[Dict[str, object], Dict[str, object]]]:
        """Scan the store for completed sessions.

        Yields ``(identity, report_payload)`` pairs for every complete,
        intact checkpoint of the current :data:`CHECKPOINT_VERSION`
        whose execution-model hash still matches the running code — the
        same staleness and checksum rules :meth:`load` applies on the
        single-identity path, so a consumer can trust every yielded
        payload to round-trip through
        :func:`~repro.core.report.report_from_payload`.  The scan never
        raises; every file it skips is tallied by class in a
        :class:`CheckpointScanStats` — pass one in to collect counts,
        or read :attr:`last_scan` after the generator is exhausted.

        Args:
            stats: Collector for skip/yield counts.  When ``None`` a
                fresh one is created.  Either way it is published on
                :attr:`last_scan` as soon as the scan starts, so
                callers that abandon the iterator early still see the
                partial tallies.
        """
        if stats is None:
            stats = CheckpointScanStats()
        self.last_scan = stats
        if self._directory is None:
            return
        model = execution_model_hash()
        try:
            names = sorted(os.listdir(self._directory))
        except OSError:
            return
        for name in names:
            if not name.startswith("tune_") or not name.endswith(".json"):
                continue
            stats.scanned += 1
            try:
                with open(
                    os.path.join(self._directory, name), "r", encoding="utf-8"
                ) as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                stats.unreadable += 1
                continue
            if not isinstance(entry, dict):
                stats.malformed += 1
                continue
            if not entry.get("complete"):
                stats.not_complete += 1
                continue
            identity = entry.get("identity")
            report = entry.get("report")
            if not isinstance(identity, dict) or not isinstance(report, dict):
                stats.malformed += 1
                continue
            if identity.get("version") != CHECKPOINT_VERSION:
                stats.wrong_version += 1
                continue
            if not atomic_json.intact(entry):
                stats.unreadable += 1
                continue
            if identity.get("model") != model:
                stats.stale_model += 1
                continue
            stats.yielded += 1
            yield identity, report


class TuningDriver:
    """Streams one strategy's proposals through an evaluation backend.

    Usable as a context manager: the evaluator's worker pools are
    released on exit even when the search raises.

    Args:
        compiled: Compiler output for the target machine.
        evaluator: The (possibly pooled) candidate evaluator.  The
            driver owns it: :meth:`close` shuts it down.
        strategy: The search strategy to drive.
        plan: The session plan the strategy was built from.
        inflight_per_worker: Speculative queue depth per evaluation
            worker (>= 2 keeps pooled backends saturated while results
            commit).
        checkpoint_every: Commits between evaluation-log syncs (0: the
            log syncs only when the evaluator closes).
        checkpoint_store: Where the finished report is stored;
            ``None`` stores none.
        resume: Serve this session's stored report when it already
            finished.  An unfinished session always reruns from its
            start, served by the evaluation log.
        progress: Per-round progress sink (one line per completed
            search round); ``None`` is silent.
        on_candidate: Observer called with a :class:`CandidateEvent`
            after every committed evaluation.  Purely informational —
            observers cannot perturb the deterministic report.
        on_round: Observer called with a :class:`RoundEvent` after
            every completed search round.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        evaluator: Evaluator,
        strategy: SearchStrategy,
        plan: SearchPlan,
        inflight_per_worker: int = DEFAULT_INFLIGHT_PER_WORKER,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        checkpoint_store: Optional[CheckpointStore] = None,
        resume: bool = False,
        progress: Optional[Callable[[str], None]] = None,
        on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
        on_round: Optional[Callable[[RoundEvent], None]] = None,
    ) -> None:
        self._compiled = compiled
        self._evaluator = evaluator
        self._strategy = strategy
        self._plan = plan
        self._inflight_per_worker = max(1, inflight_per_worker)
        self._checkpoint_every = max(0, checkpoint_every)
        self._store = (
            checkpoint_store if checkpoint_store is not None else CheckpointStore(None)
        )
        self._resume = resume
        self._progress = progress
        self._on_candidate = on_candidate
        self._on_round = on_round
        self._rounds_reported = 0
        self._report: Optional[TuningReport] = None
        self._closed = False
        self.stats = DriverStats()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "TuningDriver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the evaluator's worker pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._evaluator.close()

    @property
    def evaluator(self) -> Evaluator:
        """The evaluation backend in use."""
        return self._evaluator

    @property
    def strategy(self) -> SearchStrategy:
        """The strategy being driven."""
        return self._strategy

    # -- the tune loop -------------------------------------------------

    def _inflight_target(self) -> int:
        """Speculation depth for this scheduling round.

        Recomputed every round rather than frozen at construction: the
        cluster backend's ``workers`` is the *current* fleet width, so
        a worker joining mid-tune immediately deepens speculation (and
        a shrinking fleet stops over-queueing it).  Pooled evaluators
        widen the target by their ``batch_lanes``, so each prefetch
        round hands the backend enough proposals to fill whole chunks —
        commit order is untouched (the pending deque still drains in
        proposal order).  The serial evaluator has neither a pool nor
        lanes, so its depth stays ``inflight_per_worker``.
        """
        return max(
            1,
            self._inflight_per_worker
            * max(1, getattr(self._evaluator, "workers", 1))
            * max(1, getattr(self._evaluator, "batch_lanes", 1)),
        )

    def run(self, label: str = "") -> TuningReport:
        """Drive the strategy to completion and return the report.

        Args:
            label: Provenance label stored on the winning configuration
                (defaults to ``"<machine> Config"``).

        Raises:
            TuningError: If the driver was closed, the strategy stalls
                (protocol violation), or an evaluation fails.
        """
        if self._report is not None:
            return self._report
        if self._closed:
            raise TuningError("driver is closed")
        label = label or f"{self._compiled.machine.codename} Config"
        identity = self._identity()
        if self._resume:
            if not self._store.enabled:
                _warn_resume_without_store()
            else:
                stored = self._stored_report(identity, label)
                if stored is not None:
                    return stored
        result_cache = self._evaluator.result_cache
        sync_every = self._checkpoint_every if result_cache.enabled else 0
        pending: Deque[Proposal] = deque()
        strategy = self._strategy
        while True:
            if not strategy.finished:
                deficit = self._inflight_target() - len(pending)
                if deficit > 0:
                    fresh = strategy.propose(deficit)
                    if fresh:
                        self._prefetch(fresh)
                        pending.extend(fresh)
                        self.stats.proposed += len(fresh)
                        if len(pending) > self.stats.max_pending:
                            self.stats.max_pending = len(pending)
            if not pending:
                if strategy.finished:
                    break
                raise TuningError(
                    f"strategy {strategy.name!r} stalled: not finished but "
                    "proposed nothing with no evaluations outstanding"
                )
            self._commit(pending.popleft(), pending)
            if sync_every and self.stats.committed % sync_every == 0:
                result_cache.sync()
                self.stats.checkpoints_written += 1
        return self._finish(identity, label)

    def _commit(self, proposal: Proposal, pending: Deque[Proposal]) -> None:
        evaluation = self._evaluator.evaluate(proposal.config, proposal.size)
        self.stats.committed += 1
        if self._on_candidate is not None:
            self._on_candidate(
                CandidateEvent(
                    program=self._compiled.program.name,
                    machine=self._compiled.machine.codename,
                    strategy=self._strategy.name,
                    config_key=proposal.config.canonical_key(),
                    size=proposal.size,
                    time_s=evaluation.time_s,
                    accuracy=evaluation.accuracy,
                    feasible=evaluation.feasible,
                    committed=self.stats.committed,
                )
            )
        if self._strategy.observe(proposal, evaluation):
            self.stats.discarded += len(pending)
            self.stats.invalidations += 1
            pending.clear()
            self._evaluator.drop_speculation()
        self._report_rounds()

    def _prefetch(self, proposals: List[Proposal]) -> None:
        by_size: Dict[int, List[Configuration]] = {}
        for proposal in proposals:
            by_size.setdefault(proposal.size, []).append(proposal.config)
        for size, configs in by_size.items():
            self._evaluator.prefetch(configs, size)

    def _finish(self, identity: Dict[str, object], label: str) -> TuningReport:
        result = self._strategy.result()
        evaluator = self._evaluator
        self._report = TuningReport(
            best=result.best.config.relabelled(label),
            best_time_s=result.best_time_s,
            tuning_time_s=evaluator.tuning_time_s,
            evaluations=evaluator.evaluations,
            sizes=list(self._plan.sizes),
            history=list(result.history),
            computed_evaluations=evaluator.computed_evaluations,
            strategy=self._strategy.name,
            seed=self._plan.seed,
            warm_start_from=self._plan.warm_start,
        )
        if self._store.enabled:
            self._store.save(
                identity,
                {"complete": True, "report": report_to_payload(self._report)},
            )
        self._emit(
            f"[tune] {self._session_tag()} finished: "
            f"evaluations={self._report.evaluations} "
            f"computed={self._report.computed_evaluations} "
            f"best={self._report.best_time_s:.4g}s"
        )
        return self._report

    # -- stored reports ------------------------------------------------

    def _identity(self) -> Dict[str, object]:
        evaluator = self._evaluator
        identity = {
            "version": CHECKPOINT_VERSION,
            "model": execution_model_hash(),
            "program": self._compiled.program.name,
            "machine": self._compiled.machine.codename,
            "fingerprint": evaluator.fingerprint,
            "env": evaluator.env_token,
            "accuracy": evaluator.accuracy_token,
            "strategy": self._strategy.name,
            "seed": self._plan.seed,
            "sizes": list(self._plan.sizes),
            "generations": self._plan.generations,
            "population_size": self._plan.population_size,
        }
        if self._plan.warm_start is not None:
            # The identity omits plan.seeds, so a warm-started session
            # (extra seed configs injected from a donor report) must not
            # share checkpoints with a cold one — or with a session warm
            # started from a *different* donor.
            identity["warm_start"] = atomic_json.json_checksum(self._plan.warm_start)
        return identity

    def _stored_report(
        self, identity: Dict[str, object], label: str
    ) -> Optional[TuningReport]:
        """This session's finished report from the store, or None when
        there is none or it does not decode."""
        entry = self._store.load(identity)
        if entry is None or not entry.get("complete"):
            return None
        try:
            report = report_from_payload(entry["report"])  # type: ignore[arg-type]
        except (ConfigurationError, KeyError, TypeError, ValueError):
            return None
        report.best = report.best.relabelled(label)
        self._report = report
        self._emit(
            f"[tune] {self._session_tag()} resumed finished session "
            f"(evaluations={report.evaluations})"
        )
        return report

    # -- progress ------------------------------------------------------

    def _session_tag(self) -> str:
        return (
            f"{self._compiled.program.name}@{self._compiled.machine.codename} "
            f"strategy={self._strategy.name}"
        )

    def _report_rounds(self) -> None:
        history = self._strategy.history
        while self._rounds_reported < len(history):
            index = self._rounds_reported
            self._rounds_reported += 1
            size = self._plan.sizes[min(index, len(self._plan.sizes) - 1)]
            if self._on_round is not None:
                self._on_round(
                    RoundEvent(
                        program=self._compiled.program.name,
                        machine=self._compiled.machine.codename,
                        strategy=self._strategy.name,
                        index=index,
                        rounds=len(self._plan.sizes),
                        size=size,
                        best_time_s=history[index],
                        committed=self.stats.committed,
                        proposed=self.stats.proposed,
                    )
                )
            if self._progress is None:
                continue
            evaluator = self._evaluator
            self._emit(
                f"[tune] {self._session_tag()} "
                f"round {self._rounds_reported}/{len(self._plan.sizes)} "
                f"size={size} proposed={self.stats.proposed} "
                f"committed={self.stats.committed} "
                f"computed={evaluator.computed_evaluations} "
                f"path_hits={evaluator.path_hits} "
                f"best={history[index]:.4g}s"
            )

    def _emit(self, line: str) -> None:
        if self._progress is not None:
            self._progress(line)

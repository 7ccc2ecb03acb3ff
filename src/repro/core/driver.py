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

Long batch runs survive interruption: at quiescent points the driver
makes the evaluation cache's records durable, serialises *(commit
journal, strategy state)* to a checkpoint file under the cache
directory (``checkpoints/`` subdirectory), and writes the finished
report there when the session completes.  Resuming replays the journal
through a fresh evaluator — pure outcomes come from the shared disk
cache's decision trees, while the replay rebuilds the session JIT
model and the deterministic counters commit by commit — then restores
the strategy state and continues.  A resumed session's report is
byte-identical to an uninterrupted run (only the
``computed_evaluations`` wall-clock gauge may differ).  Checkpoints
are keyed by program fingerprint, machine, strategy, seed and plan, so
a stale file from a different session can never be (mis)used.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import deque
from dataclasses import dataclass, field
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

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1

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
        committed: Evaluations committed (== the report's journal).
        discarded: Proposals invalidated before commit.
        invalidations: Times the speculative tail was discarded.
        max_pending: Peak speculative queue depth.
        checkpoints_written: Periodic checkpoints persisted.
        replayed: Journal entries replayed during a resume.
    """

    proposed: int = 0
    committed: int = 0
    discarded: int = 0
    invalidations: int = 0
    max_pending: int = 0
    checkpoints_written: int = 0
    replayed: int = 0


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
        unreadable: Truncated/unparseable/unopenable files.
        malformed: Parsed but structurally wrong (non-dict entry,
            missing identity/report dicts).
        not_complete: Valid in-progress checkpoints (not an anomaly).
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
    """Atomic, crash-safe JSON checkpoint files, one per session
    identity.

    Args:
        directory: Checkpoint directory (created on first write).
            ``None`` disables checkpointing entirely.

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
        """The stored state for this identity (None on miss/corruption).

        A file that exists but cannot be parsed is moved aside into the
        store's ``quarantine/`` subdirectory so the next :meth:`save`
        starts from a clean slot and the broken bytes stay inspectable.
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
        if not isinstance(entry, dict) or entry.get("identity") != identity:
            atomic_json.quarantine(path)
            return None
        return entry

    def save(self, identity: Dict[str, object], state: Dict[str, object]) -> None:
        """Persist a checkpoint atomically and durably through
        :func:`repro.core.atomic_json.write` (fault point
        ``checkpoint.save``).  One attempt; a failure is swallowed —
        checkpoints accelerate recovery, they are never a correctness
        dependency.

        Durability matters here even though correctness does not: a
        checkpoint that was renamed into place but never reached the
        platter can reappear *truncated* after a power loss, which is
        strictly worse than no checkpoint at all.
        """
        if self._directory is None:
            return
        entry = dict(state)
        entry["identity"] = identity
        entry["version"] = CHECKPOINT_VERSION
        text = json.dumps(entry)
        try:
            atomic_json.write(self.path_for(identity), text, "checkpoint.save")
        except OSError:
            return

    def clear(self, identity: Dict[str, object]) -> None:
        """Drop the checkpoint for this identity (no-op when absent)."""
        if self._directory is None:
            return
        try:
            os.unlink(self.path_for(identity))
        except OSError:
            return

    def finished_reports(
        self,
        stats: Optional[CheckpointScanStats] = None,
    ) -> Iterator[Tuple[Dict[str, object], Dict[str, object]]]:
        """Scan the store for completed sessions.

        Yields ``(identity, report_payload)`` pairs for every complete
        checkpoint of the current :data:`CHECKPOINT_VERSION` whose
        execution-model hash still matches the running code — the same
        staleness rules :meth:`load` applies on the single-identity
        path, so a consumer can trust every yielded payload to
        round-trip through
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
        checkpoint_every: Commits between periodic checkpoints
            (0 disables periodic checkpointing).
        checkpoint_store: Where checkpoints live; ``None`` disables
            checkpointing.
        resume: Resume from a matching checkpoint when one exists.
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
        self._journal: List[Tuple[str, int]] = []
        self._commits_since_checkpoint = 0
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
                restored = self._try_resume(identity, label)
                if restored is not None:
                    return restored
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
            if (
                self._checkpoint_every
                and self._store.enabled
                and self._commits_since_checkpoint >= self._checkpoint_every
            ):
                while pending:  # drain to a quiescent point
                    self._commit(pending.popleft(), pending)
                self._write_checkpoint(identity)
        return self._finish(identity, label)

    def _commit(self, proposal: Proposal, pending: Deque[Proposal]) -> None:
        evaluation = self._evaluator.evaluate(proposal.config, proposal.size)
        self._journal.append((proposal.config.canonical_key(), proposal.size))
        self.stats.committed += 1
        self._commits_since_checkpoint += 1
        if self._on_candidate is not None:
            self._on_candidate(
                CandidateEvent(
                    program=self._compiled.program.name,
                    machine=self._compiled.machine.codename,
                    strategy=self._strategy.name,
                    config_key=self._journal[-1][0],
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

    # -- checkpoint / resume -------------------------------------------

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
            identity["warm_start"] = hashlib.sha256(
                json.dumps(self._plan.warm_start, sort_keys=True).encode("utf-8")
            ).hexdigest()[:16]
        return identity

    def _write_checkpoint(self, identity: Dict[str, object]) -> None:
        # The journal about to be saved replays from the evaluation
        # cache on resume, so its records become durable first.
        self._evaluator.result_cache.sync()
        self._store.save(
            identity,
            {
                "complete": False,
                "journal": [list(entry) for entry in self._journal],
                "strategy_state": self._strategy.state_payload(),
            },
        )
        self._commits_since_checkpoint = 0
        self.stats.checkpoints_written += 1

    def _try_resume(
        self, identity: Dict[str, object], label: str
    ) -> Optional[TuningReport]:
        """Restore from a matching checkpoint.

        Returns the finished report for complete checkpoints; for
        partial ones, replays the commit journal (rebuilding the
        deterministic accounting) and restores the strategy, then
        returns None so ``run`` continues the search.
        """
        entry = self._store.load(identity)
        if entry is None:
            return None
        if entry.get("complete"):
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
        try:
            journal = [
                (str(config_json), int(size))
                for config_json, size in entry["journal"]  # type: ignore[union-attr]
            ]
            state = entry["strategy_state"]
            # Decoded before anything is restored or replayed, so a
            # malformed entry starts the session over untouched.
            replay = [
                (Configuration.from_json(config_json), size)
                for config_json, size in journal
            ]
        except (ConfigurationError, KeyError, TypeError, ValueError):
            return None
        try:
            self._strategy.restore_state(state)  # type: ignore[arg-type]
        except Exception:
            # Incompatible state (older layout, custom strategy that
            # rejects the payload): restore_state may have mutated the
            # strategy field by field before raising, so rebuild a
            # pristine one and start the session over.
            self._strategy = type(self._strategy)(self._plan)
            return None
        for config, size in replay:
            self._evaluator.evaluate(config, size)
        self._journal = list(journal)
        self.stats.replayed = len(journal)
        self._rounds_reported = len(self._strategy.history)
        self._emit(
            f"[tune] {self._session_tag()} resumed at "
            f"{len(journal)} committed evaluations "
            f"({self._rounds_reported} rounds done)"
        )
        return None

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

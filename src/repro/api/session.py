"""The tuning session facade: one object that owns the moving parts.

:class:`Session` is the public way to drive the autotuner.  It binds a
resolved :class:`~repro.api.config.TunerConfig` to the engine's
resources — the cross-session result cache, the checkpoint store and a
scheduling pool — and exposes three verbs:

``session.tune(app, machine)``
    Blocking: autotune one registered benchmark for one machine (or
    fetch the process-wide cached session).

``session.submit(app, machine) -> TuningJob``
    Non-blocking: schedule the same work on the session's pool and
    return a :class:`TuningJob` handle with ``status()`` /
    ``result()`` / ``cancel()`` and streaming ``on_round`` /
    ``on_candidate`` callbacks.

``session.run_batch(pairs)``
    Tune many (benchmark, machine) pairs concurrently, scheduling
    whole sessions on ``config.backend`` (thread pool, process shards,
    or serial).

Determinism: reports are bit-for-bit identical no matter how the work
is scheduled — ``tune`` vs ``submit`` vs ``run_batch``, any backend,
any worker count — because every path funnels into the same
ordered-commit engine.  The PR 4 goldens lock this.

For arbitrary *compiled programs* (anything not in the benchmark
registry), :func:`tune_program` is the one-shot equivalent.
"""

from __future__ import annotations

import enum
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro import faults
from repro.api.config import TunerConfig
from repro.compiler.compile import CompiledProgram
from repro.core.driver import CandidateEvent, CheckpointStore, RoundEvent
from repro.core.fitness import AccuracyFn, EnvFactory
from repro.core.report import TuningReport
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner
from repro.errors import TuningError
from repro.experiments import runner as _runner
from repro.experiments.runner import TunedSession, TunePair
from repro.hardware.machines import MachineSpec

__all__ = [
    "JobStatus",
    "Session",
    "TunedSession",
    "TuningJob",
    "TuningReport",
    "tune_program",
]


class JobStatus(str, enum.Enum):
    """Lifecycle of a :class:`TuningJob`."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class TuningJob:
    """Asynchronous handle on one submitted tuning session.

    Returned by :meth:`Session.submit`; never constructed directly.

    Attributes:
        app: Benchmark name being tuned.
        machine: Target machine codename.
        seed: Tuning seed.
    """

    def __init__(
        self, app: str, machine: str, seed: int, future: "Future[TunedSession]",
        started: threading.Event,
    ) -> None:
        self.app = app
        self.machine = machine
        self.seed = seed
        self._future = future
        self._started = started

    def status(self) -> JobStatus:
        """The job's current lifecycle state (non-blocking)."""
        future = self._future
        if future.cancelled():
            return JobStatus.CANCELLED
        if future.done():
            return JobStatus.FAILED if future.exception() else JobStatus.DONE
        return JobStatus.RUNNING if self._started.is_set() else JobStatus.PENDING

    def done(self) -> bool:
        """Whether the job has finished (successfully or not)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> TunedSession:
        """Block until the job finishes and return its session.

        Args:
            timeout: Seconds to wait (None waits forever).

        Raises:
            concurrent.futures.TimeoutError: If the wait times out.
            concurrent.futures.CancelledError: If the job was
                cancelled before it started.
            Exception: Whatever the tuning run itself raised.
        """
        return self._future.result(timeout)

    def report(self, timeout: Optional[float] = None) -> TuningReport:
        """Block until the job finishes and return its tuning report."""
        return self.result(timeout).report

    def add_done_callback(self, fn: Callable[["TuningJob"], None]) -> None:
        """Call ``fn(job)`` when the job finishes (any terminal state).

        The callback runs on the pool thread that finished the job (or
        immediately, on the calling thread, if the job is already
        done).  Exceptions it raises are logged and swallowed, matching
        :meth:`concurrent.futures.Future.add_done_callback` — this is
        how the tuning service daemon observes completions without
        polling.
        """
        self._future.add_done_callback(lambda _future: fn(self))

    def cancel(self) -> bool:
        """Cancel the job if it has not started running yet.

        A job already tuning cannot be interrupted (the engine commits
        work in deterministic order).  Set ``config.cache_dir`` to make
        a killed *process* cheap to rerun instead: the rerun replays
        every simulation the killed run logged, and ``config.resume``
        also serves the reports of sessions that had finished.

        Returns:
            True when the job was cancelled before starting.
        """
        return self._future.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TuningJob({self.app!r}, {self.machine!r}, seed={self.seed}, "
            f"status={self.status().value})"
        )


class Session:
    """A context-managed tuning service bound to one configuration.

    Args:
        config: The resolved configuration; ``None`` resolves the full
            strict layering (defaults < environment < ``repro.toml`` <
            the ``overrides``) via :meth:`TunerConfig.resolve`.
        **overrides: Explicit per-field config overrides (argument
            layer), e.g. ``Session(backend="process", workers=4)``.

    All sessions in one process share the single-flight tuned-session
    cache, so a ``Session`` is cheap: creating one per figure/batch is
    normal.  Use it as a context manager (or call :meth:`close`) to
    release the submit pool.
    """

    def __init__(self, config: Optional[TunerConfig] = None, **overrides: object) -> None:
        if config is None:
            config = TunerConfig.resolve(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self._config = config
        if config.fault_spec is not None:
            faults.install(config.fault_spec)
        self._result_cache = ResultCache(config.cache_dir)
        self._checkpoints = CheckpointStore.for_cache_dir(config.cache_dir)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._jobs: List[TuningJob] = []
        self._lock = threading.Lock()
        self._closed = False

    # -- resources ------------------------------------------------------

    @property
    def config(self) -> TunerConfig:
        """The session's resolved configuration."""
        return self._config

    @property
    def result_cache(self) -> ResultCache:
        """The session's cross-run evaluation cache handle."""
        return self._result_cache

    @property
    def checkpoints(self) -> CheckpointStore:
        """The session's checkpoint store (disabled without a cache
        directory)."""
        return self._checkpoints

    @property
    def jobs(self) -> List[TuningJob]:
        """Handles for every job submitted through this session."""
        with self._lock:
            return list(self._jobs)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Wait for submitted jobs and release the pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise TuningError("session is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._config.tune_many_workers,
                    thread_name_prefix="repro-session",
                )
            return self._executor

    # -- tuning verbs ---------------------------------------------------

    def tune(
        self,
        app: str,
        machine: Union[MachineSpec, str],
        seed: Optional[int] = None,
        on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
        on_round: Optional[Callable[[RoundEvent], None]] = None,
    ) -> TunedSession:
        """Autotune one registered benchmark for one machine (blocking).

        Single-flight and cached process-wide: repeated calls for the
        same (app, machine, seed, strategy) return the same session.

        Args:
            app: Registry benchmark name (see
                :func:`repro.apps.registry.all_benchmarks`).
            machine: Target machine or its codename.
            seed: Tuning seed; ``None`` uses ``config.seed``.
            on_candidate: Streaming observer for every committed
                candidate evaluation (cache-miss runs only).
            on_round: Streaming observer for every completed search
                round (cache-miss runs only).
        """
        spec = _runner._resolve_machine(machine)
        return _runner.session_for(
            app,
            spec,
            self._config.seed if seed is None else seed,
            self._config,
            result_cache=self._result_cache,
            checkpoint_store=self._checkpoints,
            on_candidate=on_candidate,
            on_round=on_round,
        )

    def retune(
        self,
        app: str,
        machine: Union[MachineSpec, str],
        seed: Optional[int] = None,
        on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
        on_round: Optional[Callable[[RoundEvent], None]] = None,
    ) -> TunedSession:
        """Incrementally re-tune one benchmark (blocking).

        Consults the memoized artifact derivation graph under
        ``config.cache_dir`` (see :mod:`repro.artifacts`): when every
        graph node is clean the prior report is served without any
        search; when inputs changed, only the affected choice sites are
        re-tuned and the search population is warm-started from the
        prior report's best configuration, with ``warm_start_from``
        provenance recorded on the new report.  Falls back to a cold
        tune when no prior derivations exist.

        Args:
            app: Registry benchmark name.
            machine: Target machine or its codename.
            seed: Tuning seed; ``None`` uses ``config.seed``.
            on_candidate: Streaming observer for committed evaluations
                (re-tuned runs only).
            on_round: Streaming observer for completed rounds
                (re-tuned runs only).
        """
        from repro.artifacts.retune import retune_session

        spec = _runner._resolve_machine(machine)
        result = retune_session(
            app,
            spec,
            self._config.seed if seed is None else seed,
            self._config,
            result_cache=self._result_cache,
            checkpoint_store=self._checkpoints,
            on_candidate=on_candidate,
            on_round=on_round,
        )
        return result.session

    def submit(
        self,
        app: str,
        machine: Union[MachineSpec, str],
        seed: Optional[int] = None,
        on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
        on_round: Optional[Callable[[RoundEvent], None]] = None,
    ) -> TuningJob:
        """Schedule one tuning session and return immediately.

        The work runs on the session's pool (up to
        ``config.tune_many_workers`` concurrently).  Jobs pin a
        non-forking evaluator backend, exactly like batch scheduling —
        reports are identical either way.

        Args:
            app: Registry benchmark name.
            machine: Target machine or its codename.
            seed: Tuning seed; ``None`` uses ``config.seed``.
            on_candidate: Called from the worker thread with a
                :class:`~repro.core.driver.CandidateEvent` per
                committed evaluation (cache-miss runs only).
            on_round: Called from the worker thread with a
                :class:`~repro.core.driver.RoundEvent` per completed
                round (cache-miss runs only).

        Returns:
            A :class:`TuningJob` handle.
        """
        spec = _runner._resolve_machine(machine)
        resolved_seed = self._config.seed if seed is None else seed
        job_config = _runner._no_fork_config(self._config)
        started = threading.Event()

        def _run() -> TunedSession:
            started.set()
            return _runner.session_for(
                app, spec, resolved_seed, job_config,
                result_cache=self._result_cache,
                checkpoint_store=self._checkpoints,
                on_candidate=on_candidate, on_round=on_round,
            )

        try:
            future = self._pool().submit(_run)
        except RuntimeError:
            # _pool() checked _closed under the lock, but a concurrent
            # close() can shut the executor down between that check and
            # this submit; the executor then raises a bare
            # RuntimeError("cannot schedule new futures...").  Surface
            # the same TuningError as a submit on an already-closed
            # session.
            raise TuningError("session is closed") from None
        job = TuningJob(app, spec.codename, resolved_seed, future, started)
        with self._lock:
            self._jobs.append(job)
        return job

    def run_batch(
        self,
        pairs: Iterable[TunePair],
        seed: Optional[int] = None,
    ) -> Dict[Tuple[str, str], TunedSession]:
        """Tune a batch of (benchmark, machine) pairs concurrently.

        Scheduling follows ``config.backend`` (``thread`` pools whole
        sessions, ``process`` shards the batch across worker
        processes, ``serial`` tunes one by one, ``cluster`` pools whole
        sessions whose candidate evaluations all go to the shared
        fleet) and ``config.tune_many_workers``; the winning
        configurations are byte-identical to tuning the pairs one by
        one.

        Args:
            pairs: (benchmark name, machine or codename) pairs;
                duplicates are tuned once.
            seed: Tuning seed for every pair; ``None`` uses
                ``config.seed``.

        Returns:
            ``{(benchmark name, machine codename): session}`` for
            every requested pair.
        """
        return _runner.run_batch(
            pairs,
            self._config.seed if seed is None else seed,
            self._config,
            result_cache=self._result_cache,
            checkpoint_store=self._checkpoints,
        )

    def run_standard_grid(
        self, seed: Optional[int] = None
    ) -> Dict[Tuple[str, str], TunedSession]:
        """Batch-tune the paper's full benchmark x machine grid."""
        return self.run_batch(_runner.standard_pairs(), seed=seed)


def tune_program(
    compiled: CompiledProgram,
    env_factory: EnvFactory,
    max_size: int,
    label: str = "",
    config: Optional[TunerConfig] = None,
    accuracy_fn: Optional[AccuracyFn] = None,
    accuracy_target: Optional[float] = None,
    seed: int = 0,
    on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
    on_round: Optional[Callable[[RoundEvent], None]] = None,
    **tuner_kwargs,
) -> TuningReport:
    """One-shot tuning of an arbitrary compiled program: build a
    tuner, run it once, clean up.  Works for programs outside the
    benchmark registry (a :class:`Session` only speaks registry names).

    Args:
        compiled: Compiler output for the target machine.
        env_factory: Deterministic test-environment builder.
        max_size: Final testing input size.
        label: Label for the winning configuration.
        config: Service-level knobs; ``None`` resolves the strict
            layered default (environment + ``repro.toml``).
        accuracy_fn: Error metric for variable-accuracy programs.
        accuracy_target: Largest acceptable error.
        seed: Search seed (deliberately separate from
            ``config.seed``, the experiment-suite seed).
        on_candidate: Streaming observer for committed evaluations.
        on_round: Streaming observer for completed rounds.
        **tuner_kwargs: Search-plan parameters forwarded to
            :class:`~repro.core.search.EvolutionaryTuner`
            (``population_size``, ``generations_per_size``, ...).
    """
    if config is None:
        config = TunerConfig.resolve()
    with EvolutionaryTuner(
        compiled,
        env_factory,
        max_size,
        config=config,
        accuracy_fn=accuracy_fn,
        accuracy_target=accuracy_target,
        seed=seed,
        on_candidate=on_candidate,
        on_round=on_round,
        **tuner_kwargs,
    ) as tuner:
        return tuner.tune(label=label)

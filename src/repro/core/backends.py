"""Pluggable candidate-evaluation backends for the autotuner.

The tuner's compute/commit split (:mod:`repro.core.fitness`) makes the
expensive half of candidate evaluation a pure function of
``(program, machine, configuration, size, seed)``.  This module turns
"where that pure half runs" into a selectable backend:

``serial``
    The plain in-process :class:`~repro.core.fitness.Evaluator`; no
    speculation, no pool.
``thread``, ``process``, ``cluster``
    One :class:`~repro.core.parallel.PooledEvaluator` owns the
    speculative protocol (pending filtering, lane chunking, the
    in-flight map, the join, dropping speculation); each backend is a
    thin subclass supplying only its *transport*:

    * :class:`~repro.core.parallel.ParallelEvaluator` submits to a
      thread pool.  Works for any program (rule closures stay
      in-process) and shares the decision trees with workers for free.
    * :class:`ProcessEvaluator` ships one *picklable*
      :class:`EvaluationRequest` per lane chunk — benchmark name,
      machine codename, each lane's configuration JSON, size, seed and
      content fingerprints — to a ``ProcessPoolExecutor``.  Each worker
      process lazily rebuilds the compiled program from
      :mod:`repro.apps.registry` + :mod:`repro.hardware.machines`; rule
      closures never cross the pipe.  :func:`evaluate_request` is the
      only worker entry point, and it answers with exactly what
      :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged`
      returns: each lane's pure outcome, and the decision path the
      requester grows its trees from if the worker simulated it.
    * :class:`ClusterEvaluator` ships the same requests over TCP to a
      fleet of :mod:`repro.cluster` workers — local threads, other
      processes, or other hosts.  Without a configured coordinator
      address it self-hosts a loopback
      :class:`~repro.cluster.local.LocalCluster`; a coordinator that
      dies mid-tune degrades to local computation (counted, then
      re-attached by a circuit breaker) rather than failing the tune.

    Process and cluster workers only ever see names, so only
    *canonical* evaluations of registered benchmarks qualify (see
    :func:`resolve_process_target`); anything else falls back to
    ``thread`` when the backend was chosen by environment, or raises
    when an argument or config file requested it.

All four backends commit results through the same ordered-commit /
compile-event-replay machinery, so a tuner's
:class:`~repro.core.search.TuningReport` is bit-for-bit identical no
matter which backend ran the simulations — the determinism matrix test
in ``tests/core/test_parallel_determinism.py`` locks this down per
registered benchmark.

Selection: :func:`create_evaluator` follows ``config.backend`` of the
:class:`~repro.api.TunerConfig` it is handed (this module never reads
the environment); ``"auto"`` means ``thread`` with more than one
worker and ``serial`` otherwise.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from concurrent.futures import CancelledError, Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.config import DEFAULT_WORKERS, TunerConfig
from repro.compiler.compile import CompiledProgram
from repro.core.configuration import Configuration, DecisionPath
from repro.core.fitness import (
    AccuracyFn,
    EnvFactory,
    Evaluator,
    PureEvaluation,
    _callable_token,
    program_fingerprint,
)
from repro.core.parallel import ParallelEvaluator, PooledEvaluator
from repro.core.result_cache import ResultCache, execution_model_hash
from repro.core.retry import CircuitBreaker
from repro.errors import ClusterUnavailable, TuningError

log = logging.getLogger(__name__)

#: The selectable backends (``"auto"`` additionally means "decide from
#: the worker count", which is the default).
BACKEND_NAMES = ("serial", "thread", "process", "cluster")


class ProcessBackendUnavailable(TuningError):
    """This evaluation cannot be shipped to worker processes.

    Raised when the compiled program is not a registered benchmark, the
    machine is not one of the standard rebuildable machines, or the
    environment/accuracy callables differ from the registry-canonical
    ones (a worker rebuilding by name would silently evaluate different
    inputs).  :func:`create_evaluator` converts this into a ``thread``
    fallback unless the backend choice is explicit
    (``config.is_explicit("backend")``).
    """


@dataclass(frozen=True)
class ProcessTarget:
    """By-name coordinates of a canonically rebuildable evaluation.

    Attributes:
        app: Registry (Figure 8) benchmark name.
        machine: Standard machine codename.
    """

    app: str
    machine: str


#: Canonical-rebuild fingerprints, memoised per (app, machine): the
#: availability check compiles the registry program once, not per tuner.
_CANONICAL_FINGERPRINTS: Dict[Tuple[str, str], str] = {}
_CANONICAL_LOCK = threading.Lock()


def _registry_build(app: str, machine_name: str) -> CompiledProgram:
    """The by-name rebuild workers perform: registry ``app`` on ``machine_name``."""
    # Local imports: the registry imports the app/lang layers, which
    # must stay importable without the core package.
    from repro.apps.registry import benchmark
    from repro.compiler.compile import compile_program
    from repro.hardware.machines import machine_by_name

    return compile_program(benchmark(app).build_program(), machine_by_name(machine_name))


def _canonical_fingerprint(app: str, machine_name: str) -> str:
    with _CANONICAL_LOCK:
        cached = _CANONICAL_FINGERPRINTS.get((app, machine_name))
    if cached is not None:
        return cached
    fingerprint = program_fingerprint(_registry_build(app, machine_name))
    with _CANONICAL_LOCK:
        return _CANONICAL_FINGERPRINTS.setdefault((app, machine_name), fingerprint)


def resolve_process_target(
    compiled: CompiledProgram,
    env_factory: EnvFactory,
    accuracy_fn: Optional[AccuracyFn],
) -> ProcessTarget:
    """Check that worker processes can rebuild this exact evaluation.

    A worker only receives names, so everything behind the names must
    match what the caller is actually evaluating: the program must be a
    registered benchmark, the machine a standard one, a by-name rebuild
    must reproduce the caller's program fingerprint, and the
    environment/accuracy callables must be the registry-canonical ones
    (:func:`repro.apps.registry.canonical_env_factory` and the spec's
    ``accuracy_fn``) — otherwise workers would evaluate different test
    inputs and the backend would no longer be result-invisible.

    Raises:
        ProcessBackendUnavailable: When any of those checks fails.
    """
    from repro.apps.registry import benchmark_for_program, canonical_env_factory

    spec = benchmark_for_program(compiled.program.name)
    if spec is None:
        raise ProcessBackendUnavailable(
            f"program {compiled.program.name!r} is not a registered "
            "benchmark; worker processes rebuild programs by registry name"
        )
    codename = compiled.machine.codename
    try:
        from repro.hardware.machines import machine_by_name

        machine_by_name(codename)
    except KeyError as exc:
        raise ProcessBackendUnavailable(
            f"machine {codename!r} is not a standard rebuildable machine"
        ) from exc
    if _canonical_fingerprint(spec.name, codename) != program_fingerprint(compiled):
        raise ProcessBackendUnavailable(
            f"compiled program for {spec.name!r} on {codename!r} differs "
            "from its registry rebuild (customised program or machine)"
        )
    # The factory declares which benchmark it builds inputs for (see
    # canonical_env_factory); a closure-token comparison alone cannot
    # tell two benchmarks' canonical factories apart, so the explicit
    # identity is required, then the token guards against lookalikes.
    if getattr(env_factory, "benchmark_name", None) != spec.name or (
        _callable_token(env_factory, "none")
        != _callable_token(canonical_env_factory(spec.name), "none")
    ):
        raise ProcessBackendUnavailable(
            f"environment factory is not canonical_env_factory({spec.name!r}); "
            "workers would build different test inputs"
        )
    if _callable_token(accuracy_fn, "none") != _callable_token(
        spec.accuracy_fn, "none"
    ):
        raise ProcessBackendUnavailable(
            f"accuracy function differs from the registry one for {spec.name!r}"
        )
    return ProcessTarget(app=spec.name, machine=codename)


@dataclass(frozen=True)
class EvaluationRequest:
    """One lane chunk of pure evaluations, as it crosses the process
    boundary.

    Carries the candidate configurations of one chunk for the same
    ``(program, machine, size, seed)`` that the requester's decision
    trees cannot answer: one lane without lane batching, up to
    ``batch_lanes`` otherwise.  The worker answers it through
    :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged`, so
    test-input generation and prepared-plan lookup happen once per
    chunk, and each chunk costs one pickle and one submission on the
    process pool, and one TCP frame on the cluster plane.

    Everything is a primitive: rule closures, compiled programs and
    machine models never pickle — workers rebuild them from the names.

    Attributes:
        app: Registry benchmark name.
        machine: Standard machine codename.
        config_jsons: Canonical JSON of each lane's candidate, in lane
            order (``Configuration.canonical_key()``; parseable by
            ``Configuration.from_json``).
        size: Test input size.
        seed: Runtime scheduler seed.
        fingerprint: The requester's program fingerprint; the worker's
            rebuild must match or the request fails loudly.
        model_hash: The requester's execution-model source hash; guards
            against mismatched source trees (multi-host later).
        cache_dir: Disk-cache directory shared with the requester
            (None when the disk layer is disabled).
    """

    app: str
    machine: str
    config_jsons: Tuple[str, ...]
    size: int
    seed: int
    fingerprint: str
    model_hash: str
    cache_dir: Optional[str]


#: Per-worker-process evaluator memo, keyed by (app, machine, seed,
#: cache_dir).  LRU-bounded: a long-lived cluster worker sees a new
#: seed per session, and each evaluator holds its compiled program and
#: decision trees.  Cluster worker slots are threads, so
#: lookups and inserts take the lock.
_WORKER_EVALUATORS: "OrderedDict[Tuple[str, str, int, Optional[str]], Evaluator]" = (
    OrderedDict()
)
_WORKER_EVALUATORS_LOCK = threading.Lock()
#: A worker's live keys are the sessions tuning through it at once, and
#: once more of them interleave than the capacity, every request
#: rebuilds its evaluator.  Entries needed for no live key ever to be
#: rebuilt, counted per worker process: fig6-fig8 on the self-hosted
#: cluster backend, 5 at the default 4 concurrent sessions and 21 with
#: every standard (benchmark, machine) pair tuning at once; the
#: tune-pooled benchmark's process and fleet workers, 1.  64 covers
#: three such grids at once.  One evaluator holds at most 2.1 MiB after
#: a fig-size session (Sort on Server), a whole grid about 9 MiB.
_WORKER_EVALUATORS_CAPACITY = 64


def _worker_evaluator(request: EvaluationRequest) -> Evaluator:
    key = (request.app, request.machine, request.seed, request.cache_dir)
    with _WORKER_EVALUATORS_LOCK:
        evaluator = _WORKER_EVALUATORS.get(key)
        if evaluator is not None:
            _WORKER_EVALUATORS.move_to_end(key)
            return evaluator
    from repro.apps.registry import benchmark, canonical_env_factory

    spec = benchmark(request.app)
    evaluator = Evaluator(
        _registry_build(request.app, request.machine),
        canonical_env_factory(request.app),
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        seed=request.seed,
        result_cache=ResultCache(request.cache_dir),
    )
    with _WORKER_EVALUATORS_LOCK:
        # Two slots may build one key at once; both keep the first.
        evaluator = _WORKER_EVALUATORS.setdefault(key, evaluator)
        _WORKER_EVALUATORS.move_to_end(key)
        while len(_WORKER_EVALUATORS) > _WORKER_EVALUATORS_CAPACITY:
            _WORKER_EVALUATORS.popitem(last=False)
    return evaluator


def evaluate_request(
    request: EvaluationRequest,
) -> Tuple[List[PureEvaluation], List[Optional[DecisionPath]]]:
    """Worker entry point: serve one lane chunk by name.

    Importable at module top level so it pickles by reference under
    every multiprocessing start method.  Process-pool and cluster
    workers hand every request to this function.  Lanes are decoded,
    never keyed: the worker's trees walk each lane's answers.

    Returns:
        What :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged`
        returns: each lane's pure outcome, and the decision path of
        each lane this worker simulated (``None`` on a decision-tree
        hit), in lane order.  The requester grows its trees from the
        paths and counts them in its wall-clock-work gauge, not in its
        deterministic counters.

    Raises:
        TuningError: On fingerprint/model-hash mismatch between the
            requesting tuner and this worker's rebuild, or when a
            simulated run fails.  A failure in any lane fails the whole
            request, and the requester re-raises it when it commits any
            of the request's lanes: the error may be a fingerprint or
            model-hash guard, which must stay loud.
    """
    if execution_model_hash() != request.model_hash:
        raise TuningError(
            "execution-model hash mismatch between tuner and worker "
            "processes (different source trees?)"
        )
    evaluator = _worker_evaluator(request)
    if evaluator.fingerprint != request.fingerprint:
        raise TuningError(
            f"registry rebuild of {request.app!r} on {request.machine!r} "
            "does not match the tuner's program fingerprint"
        )
    configs = [
        Configuration.from_json(config_json)
        for config_json in request.config_jsons
    ]
    return evaluator.compute_batch_flagged(configs, request.size)


def _by_name_request(
    evaluator, chunk: List[Configuration], size: int
) -> EvaluationRequest:
    """One chunk as the request a by-name transport ships to ``target``."""
    return EvaluationRequest(
        app=evaluator.target.app,
        machine=evaluator.target.machine,
        config_jsons=tuple(config.canonical_key() for config in chunk),
        size=size,
        seed=evaluator._seed,
        fingerprint=evaluator.fingerprint,
        model_hash=execution_model_hash(),
        cache_dir=evaluator.result_cache.directory,
    )


class ProcessEvaluator(PooledEvaluator):
    """:class:`~repro.core.parallel.PooledEvaluator` whose transport is
    a ``ProcessPoolExecutor``.

    Workers rebuild the program by name (see :func:`evaluate_request`);
    the inherited commit path is untouched, so reports are bit-for-bit
    identical to the serial evaluator's.  A request that fails on a
    worker re-raises when its configuration is committed.

    Args:
        compiled: Compiler output for the target machine.
        env_factory: Deterministic test-environment builder; must be
            the registry-canonical one (validated by
            :func:`resolve_process_target` before construction).
        target: By-name coordinates workers rebuild from.
        workers: Worker processes.  With 1 worker no pool is created
            and prefetch is ignored: evaluations compute in-process.
        accuracy_fn: Error metric for variable-accuracy programs.
        accuracy_target: Largest acceptable error.
        seed: Seed forwarded to the runtime scheduler.
        result_cache: Cross-session disk cache; its directory is shared
            with the workers, whose appends land in the same logs, and
            this handle's syncs make them durable.
        batch_lanes: Configurations per shipped submission (see base
            class); each pool submission pickles one
            :class:`EvaluationRequest` for its whole chunk, so a wider
            chunk cuts both the pickling and the submission count by
            the lane width.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        env_factory: EnvFactory,
        target: ProcessTarget,
        workers: int = DEFAULT_WORKERS,
        **kwargs,
    ) -> None:
        super().__init__(compiled, env_factory, **kwargs)
        self.workers = max(1, workers)
        self.target = target

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _submit(self, pool: Executor, chunk: List[Configuration], size: int) -> Future:
        return pool.submit(evaluate_request, _by_name_request(self, chunk, size))


class ClusterEvaluator(PooledEvaluator):
    """:class:`~repro.core.parallel.PooledEvaluator` whose transport is
    a cluster fleet.

    Requests travel over TCP to a :mod:`repro.cluster` coordinator
    instead of a local process pool, so the fleet can span hosts and
    grow or shrink mid-tune.  The inherited ordered-commit path is
    untouched; reports stay bit-for-bit identical to serial.

    Transport failures are *degradations*, never errors: if the
    coordinator is unreachable (or dies mid-tune), affected
    evaluations are recomputed locally, :attr:`degradations` counts
    the failure and a warning is logged once per outage.  Degradation
    is not permanent: a circuit breaker
    (:class:`~repro.core.retry.CircuitBreaker`) schedules periodic
    probes, and when a probe reconnects — the coordinator was
    restarted, the partition healed — the evaluator *re-attaches*
    (counted by :attr:`reattachments`) and speculation resumes on the
    fleet.  Remote *evaluation* failures — the simulation itself raised
    on a worker — are re-raised, exactly as a local failure would be.

    Args:
        compiled: Compiler output for the target machine.
        env_factory: Registry-canonical environment builder (validated
            by :func:`resolve_process_target` before construction).
        target: By-name coordinates workers rebuild from.
        cluster_address: Coordinator ``host:port``; ``None`` self-hosts
            an in-process loopback :class:`~repro.cluster.local.LocalCluster`
            of ``cluster_workers`` workers.
        cluster_workers: Fleet size for the self-hosted case (ignored
            when ``cluster_address`` names an external coordinator).
        heartbeat_s: Worker heartbeat interval, seconds.
        timeout_s: Connect timeout, and the silence after which the
            coordinator declares a worker dead.
        reattach_after_s: Seconds a degraded evaluator waits before
            probing the coordinator again; ``None`` derives a default
            from ``timeout_s``.
        accuracy_fn / accuracy_target / seed / result_cache: As for
            :class:`ProcessEvaluator`.
        batch_lanes: Configurations per shipped submission (see base
            class); each chunk travels as one :class:`EvaluationRequest`
            TCP frame.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        env_factory: EnvFactory,
        target: ProcessTarget,
        cluster_address: Optional[str] = None,
        cluster_workers: int = 2,
        heartbeat_s: float = 2.0,
        timeout_s: float = 10.0,
        reattach_after_s: Optional[float] = None,
        **kwargs,
    ) -> None:
        super().__init__(compiled, env_factory, **kwargs)
        self.target = target
        self.cluster_address = cluster_address
        self.cluster_workers = max(1, cluster_workers)
        self.heartbeat_s = heartbeat_s
        self.timeout_s = timeout_s
        self._client = None  # repro.cluster.client.ClusterClient
        self._local_cluster = None  # repro.cluster.local.LocalCluster
        # Transport health.  Closed: use the fleet.  Open: recompute
        # locally without paying a connect timeout every scheduling
        # round.  After `reattach_after_s` one prefetch becomes a
        # probe; success re-attaches, failure re-opens the circuit.
        self._breaker = CircuitBreaker(
            failure_threshold=1,
            reset_after_s=(
                reattach_after_s
                if reattach_after_s is not None
                else max(0.5, timeout_s / 2.0)
            ),
        )
        self._warned_outage = False
        self.degradations = 0
        self.reattachments = 0

    @property
    def workers(self) -> int:
        """Current fleet width (grows and shrinks with worker joins).

        The tuning driver re-reads this every scheduling round, so an
        elastically growing fleet deepens speculation on the fly.
        Before the first connection — and while degraded — this
        reports the configured self-hosted size so the driver still
        prefetches enough to fill the fleet once it is up.
        """
        client = self._client
        if client is not None and not self._degraded:
            return max(1, client.workers)
        return self.cluster_workers

    @property
    def _degraded(self) -> bool:
        """Whether evaluations currently recompute locally."""
        return self._breaker.state != CircuitBreaker.CLOSED

    def _ensure_client(self):
        """Connect lazily; a dead coordinator degrades instead of raising.

        While the circuit is open this returns ``None`` immediately —
        no connect timeout is paid per scheduling round.  Once the
        breaker's reset interval elapses, one call becomes a probe
        that attempts a fresh connection; success re-attaches the
        fleet (and speculation resumes), failure re-opens the circuit
        for another interval.
        """
        if self._client is not None and not self._degraded:
            return self._client
        if not self._breaker.allow():
            return None
        from repro.cluster.client import ClusterClient
        from repro.cluster.local import LocalCluster

        was_degraded = self._degraded
        try:
            if self.cluster_address is None and self._local_cluster is None:
                self._local_cluster = LocalCluster(
                    workers=self.cluster_workers,
                    heartbeat_interval=self.heartbeat_s,
                    heartbeat_timeout=self.timeout_s,
                )
            address = (
                self._local_cluster.address
                if self._local_cluster is not None
                else self.cluster_address
            )
            self._client = ClusterClient(
                address, connect_timeout=self.timeout_s
            )
        except ClusterUnavailable as exc:
            self._degrade(exc)
            return None
        self._breaker.record_success()
        if was_degraded:
            self.reattachments += 1
            self._warned_outage = False
            log.warning(
                "cluster backend re-attached to coordinator at %s "
                "(speculation resumes on a %d-worker fleet)",
                address,
                self._client.workers,
            )
        return self._client

    def _degrade(self, exc: Exception) -> None:
        """Recompute locally for now; the breaker schedules re-probes."""
        self.degradations += 1
        self._breaker.record_failure()
        client, self._client = self._client, None
        if client is not None:
            client.close()
        if not self._warned_outage:
            self._warned_outage = True
            log.warning(
                "cluster backend degraded to local computation: %s "
                "(results are unaffected; only wall-clock time suffers; "
                "re-attach probes run every %.1fs)",
                exc,
                self._breaker.reset_after_s,
            )

    _transport = _ensure_client

    def _submit(self, client, chunk: List[Configuration], size: int) -> Future:
        future = client.submit(_by_name_request(self, chunk, size))
        # Tag the future with its connection so a loss discovered at
        # join time degrades the right client — never a fresh one
        # acquired by a re-attach in between.
        future._repro_client = client  # type: ignore[attr-defined]
        return future

    def _lost(self, future: Future, exc: Exception) -> bool:
        # ClusterUnavailable (coordinator died, task abandoned after
        # repeated worker deaths) and cancellation mean nobody computed
        # an answer; a remote evaluation error propagates.
        if not isinstance(exc, (ClusterUnavailable, CancelledError)):
            return False
        if getattr(future, "_repro_client", None) is self._client:
            self._degrade(exc)
        return True

    def _cancel(self, future: Future) -> None:
        # Coordinator-side, so dead speculation does not occupy the fleet.
        if self._client is not None:
            self._client.cancel(getattr(future, "task_id", ""))

    def _shutdown(self) -> None:
        """Disconnect, tearing down a self-hosted fleet."""
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._local_cluster is not None:
            self._local_cluster.close()
            self._local_cluster = None


def create_evaluator(
    compiled: CompiledProgram,
    env_factory: EnvFactory,
    config: Optional[TunerConfig] = None,
    accuracy_fn: Optional[AccuracyFn] = None,
    accuracy_target: Optional[float] = None,
    seed: int = 0,
    result_cache: Optional[ResultCache] = None,
) -> Evaluator:
    """Build the evaluator for ``config.backend``.

    Args:
        compiled: Compiler output for the target machine.
        env_factory: Deterministic test-environment builder.
        config: The session's knobs: ``backend``, ``workers``,
            ``batch_lanes`` (pooled backends only; the serial one
            ignores it) and the ``cluster_*`` fields.  ``None``
            means ``TunerConfig()``, the built-in defaults (``auto``
            backend, 1 worker).  A backend the config chose explicitly
            (argument or config file) is *forced*: when the
            ``process``/``cluster`` backend cannot rebuild this
            evaluation by name it raises, while one chosen by
            environment variable falls back to ``thread``/``serial``
            so a global knob never breaks unrelated runs.
        accuracy_fn: Error metric for variable-accuracy programs.
        accuracy_target: Largest acceptable error.
        seed: Seed forwarded to the runtime scheduler.
        result_cache: Cross-session disk cache (``None``: no disk
            cache).

    Raises:
        ProcessBackendUnavailable: When a forced process/cluster
            backend cannot rebuild the evaluation by name.
    """
    config = config if config is not None else TunerConfig()
    name = config.backend
    worker_count = config.workers
    if name == "auto":
        name = "thread" if worker_count > 1 else "serial"
    common = dict(
        accuracy_fn=accuracy_fn,
        accuracy_target=accuracy_target,
        seed=seed,
        result_cache=result_cache,
    )
    pooled = dict(common, batch_lanes=config.batch_lanes)
    if name in ("process", "cluster"):
        # Process and cluster workers both rebuild by name, so
        # availability is the same canonical-rebuild check.
        try:
            target = resolve_process_target(compiled, env_factory, accuracy_fn)
        except ProcessBackendUnavailable:
            if config.is_explicit("backend"):
                raise
            name = "thread" if worker_count > 1 else "serial"
        else:
            if name == "process":
                return ProcessEvaluator(
                    compiled, env_factory, target, workers=worker_count, **pooled
                )
            return ClusterEvaluator(
                compiled,
                env_factory,
                target,
                cluster_address=config.cluster_address,
                cluster_workers=config.cluster_workers,
                heartbeat_s=config.cluster_heartbeat_s,
                timeout_s=config.cluster_timeout_s,
                **pooled,
            )
    if name == "thread":
        return ParallelEvaluator(
            compiled, env_factory, workers=worker_count, **pooled
        )
    return Evaluator(compiled, env_factory, **common)

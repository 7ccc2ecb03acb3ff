"""Shared experiment infrastructure: tuned-configuration sessions.

Autotuning a benchmark for a machine is the expensive step shared by
Figures 6, 7 and 8; this module owns the process-wide, single-flight
session cache behind :class:`repro.api.Session` so the experiment
suite tunes each (benchmark, machine, seed, strategy) combination
exactly once per process, and implements batch tuning over it.
Results are independent of concurrency: each pair's search is seeded
separately, evaluations are pure, and the cross-session disk cache
(``config.cache_dir`` / ``REPRO_CACHE_DIR``) is content-addressed, so
batches produce byte-identical winning configurations to sequential
single-session calls.

The public way in is :class:`repro.api.Session` (``session.tune``,
``session.submit``, ``session.run_batch``); everything here takes the
session's resolved :class:`~repro.api.TunerConfig` and never reads the
environment.

Batch backends
==============

Batches schedule whole sessions on ``config.backend``: ``thread``
(the default) runs sessions on a thread pool, ``serial`` runs them
one by one, and ``process`` *shards* the batch across worker
processes — each shard tunes its pairs in a child interpreter that
rebuilds programs from the registry (only benchmark names, machine
codenames and the picklable :class:`~repro.api.TunerConfig` cross the
pipe) and ships finished reports back as primitives.  Every shard
opens its own :class:`ResultCache` handle on the shared cache
directory; the cache's one-write ``O_APPEND`` records merge the
shards' simulations into shared logs without coordination.  Reports
are bit-for-bit identical on every backend.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.config import DEFAULT_SEED, TunerConfig
from repro.apps.registry import (
    BenchmarkSpec,
    all_benchmarks,
    benchmark,
    canonical_env_factory,
)
from repro.compiler.compile import CompiledProgram, compile_program
from repro.core.driver import CandidateEvent, RoundEvent
from repro.core.result_cache import ResultCache
from repro.core.search import (
    EvolutionaryTuner,
    TuningReport,
    report_from_payload,
    report_to_payload,
)
from repro.hardware.machines import MachineSpec, machine_by_name, standard_machines

#: A (benchmark, machine) pair; the machine may be given by codename.
TunePair = Tuple[str, Union[MachineSpec, str]]


@dataclass(frozen=True)
class ExperimentSettings:
    """Global knobs for the experiment suite.

    Attributes:
        full_scale: Run at the paper's exact input sizes.  Controlled
            by ``TunerConfig.full_scale`` (the ``REPRO_FULL_SCALE``
            environment variable).
        seed: Seed for tuning and scheduling randomness.
    """

    full_scale: bool = False
    seed: int = DEFAULT_SEED

    @staticmethod
    def from_config(config: TunerConfig) -> "ExperimentSettings":
        """The experiment-scale view of a resolved tuner config."""
        return ExperimentSettings(
            full_scale=config.full_scale, seed=config.seed
        )

    def eval_size(self, spec: BenchmarkSpec) -> int:
        """Input size used to *evaluate* configurations (Figure 7)."""
        if self.full_scale:
            return spec.testing_size
        return min(spec.testing_size, max(spec.tuning_size, 1))


@dataclass
class TunedSession:
    """One benchmark autotuned for one machine.

    Attributes:
        spec: The benchmark.
        machine: The machine tuned on.
        compiled: Compiler output for that machine.
        report: The tuning report (winning configuration inside).
    """

    spec: BenchmarkSpec
    machine: MachineSpec
    compiled: CompiledProgram
    report: TuningReport


#: Session-cache key: (benchmark, machine codename, seed, strategy).
SessionKey = Tuple[str, str, int, str]

_SESSIONS: Dict[SessionKey, TunedSession] = {}
_SESSIONS_LOCK = threading.Lock()
_KEY_LOCKS: Dict[SessionKey, threading.Lock] = {}


def _tune_one(
    benchmark_name: str,
    machine: MachineSpec,
    seed: int,
    config: TunerConfig,
    result_cache: Optional[ResultCache] = None,
    checkpoint_store=None,
    on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
    on_round: Optional[Callable[[RoundEvent], None]] = None,
) -> TunedSession:
    if config.retune:
        # The incremental path consults the derivation graph first and
        # warm-starts from the prior report when anything changed.
        # Local import: repro.artifacts.retune imports this module.
        from repro.artifacts.retune import retune_session

        return retune_session(
            benchmark_name,
            machine,
            seed,
            config,
            result_cache=result_cache,
            checkpoint_store=checkpoint_store,
            on_candidate=on_candidate,
            on_round=on_round,
        ).session
    spec = benchmark(benchmark_name)
    compiled = compile_program(spec.build_program(), machine)
    with EvolutionaryTuner(
        compiled,
        canonical_env_factory(benchmark_name),
        max_size=spec.tuning_size,
        seed=seed,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        config=config,
        result_cache=result_cache,
        checkpoint_store=checkpoint_store,
        on_candidate=on_candidate,
        on_round=on_round,
    ) as tuner:
        report = tuner.tune(label=f"{machine.codename} Config")
    return TunedSession(
        spec=spec, machine=machine, compiled=compiled, report=report
    )


def session_for(
    benchmark_name: str,
    machine: MachineSpec,
    seed: int,
    config: TunerConfig,
    result_cache: Optional[ResultCache] = None,
    checkpoint_store=None,
    on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
    on_round: Optional[Callable[[RoundEvent], None]] = None,
) -> TunedSession:
    """Autotune (or fetch the cached session for) one combination.

    The implementation behind :meth:`repro.api.Session.tune` /
    ``submit``.  Thread-safe and single-flight: concurrent callers for
    the same key share one tuning run.  The cache key is
    ``(benchmark, machine codename, seed, config.strategy)`` — the
    evaluation backend is deliberately not part of it, because reports
    are backend-invariant.  ``result_cache``/``checkpoint_store`` let
    a :class:`repro.api.Session` share its own handles across runs
    (both thread-safe); ``None`` opens fresh ones on
    ``config.cache_dir``.  Streaming observers only fire for a
    cache-miss run (a cached session has nothing left to stream).
    """
    key = (benchmark_name, machine.codename, seed, config.strategy)
    with _SESSIONS_LOCK:
        session = _SESSIONS.get(key)
        if session is not None:
            return session
        key_lock = _KEY_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        with _SESSIONS_LOCK:
            session = _SESSIONS.get(key)
        if session is not None:
            return session
        session = _tune_one(
            benchmark_name, machine, seed, config,
            result_cache=result_cache, checkpoint_store=checkpoint_store,
            on_candidate=on_candidate, on_round=on_round,
        )
        with _SESSIONS_LOCK:
            _SESSIONS[key] = session
    return session


def _resolve_machine(machine: Union[MachineSpec, str]) -> MachineSpec:
    if isinstance(machine, MachineSpec):
        return machine
    return machine_by_name(machine)


def _no_fork_config(config: TunerConfig) -> TunerConfig:
    """The evaluator config for tuners that must not fork new
    processes.

    Used inside shard children (a shard is already a worker process;
    nesting pools would fork uncontrollably) and for sessions scheduled
    on the batch thread pool (forking a pool from a multithreaded
    process can inherit locks held mid-simulation by sibling threads
    and hang the child).  A ``serial``/``thread`` choice is honoured,
    and so is ``cluster`` — its client is a TCP socket plus daemon
    threads, not a fork; ``process`` and ``auto`` demote to the
    worker-count auto rule.
    """
    if config.backend in ("serial", "thread", "cluster"):
        return config
    demoted = "thread" if config.workers > 1 else "serial"
    prov = dict(config.provenance)
    prov["backend"] = "default"  # demotions are never "forced"
    return dataclasses.replace(config, backend=demoted, provenance=prov)


def _tune_shard(
    pairs: Sequence[Tuple[str, str]],
    seed: int,
    config: TunerConfig,
) -> Tuple[List[Tuple[str, str, Dict[str, object]]], Dict[str, int]]:
    """Process-pool entry point: tune one shard of (name, codename)
    pairs and return their reports as primitive payloads, plus the
    shard cache's counter snapshot.

    Receives the parent's full (picklable) :class:`TunerConfig`, so
    shard children follow the batch's strategy/resume/cache/progress
    choices without consulting their own environment.  Opens this
    shard's own :class:`ResultCache` handle on the shared directory —
    concurrent shards merge through the cache's log appends, never
    through shared state.  The shard's log records and finished
    reports land in the shared ``config.cache_dir``, so a killed batch
    replays no matter which shard a session lands on next time.  The
    returned :class:`~repro.core.result_cache.CacheStats` counters let
    the parent fold the shard's hits/misses/quarantines into its own
    handle — a sharded batch reports the same totals as a threaded
    one.
    """
    shard_config = _no_fork_config(config)
    cache = ResultCache(shard_config.cache_dir)
    results: List[Tuple[str, str, Dict[str, object]]] = []
    for name, codename in pairs:
        session = _tune_one(
            name,
            machine_by_name(codename),
            seed,
            shard_config,
            result_cache=cache,
        )
        results.append((name, codename, report_to_payload(session.report)))
    return results, dataclasses.asdict(cache.stats)


def _shardable(machine: MachineSpec) -> bool:
    """Whether a shard child can rebuild this machine from its codename."""
    try:
        return machine_by_name(machine.codename) is machine
    except KeyError:
        return False


def _claim_missing(
    resolved: Sequence[Tuple[str, MachineSpec]], seed: int, strategy_name: str
) -> Tuple[List[Tuple[str, MachineSpec]], List[threading.Lock]]:
    """Claim untuned, shardable pairs under the single-flight key locks.

    Sharding must honour the same single-flight contract as
    :func:`session_for`: a key another caller is already tuning (its
    lock is held) is skipped here — the final collection pass waits on
    it instead — and a claimed key's lock is held until the shard
    result is installed, so no concurrent caller duplicates the run.

    Returns:
        The claimed pairs and the (already acquired) locks to release
        once their sessions are installed.
    """
    claimed: List[Tuple[str, MachineSpec]] = []
    held: List[threading.Lock] = []
    for name, machine in resolved:
        if not _shardable(machine):
            continue
        key = (name, machine.codename, seed, strategy_name)
        with _SESSIONS_LOCK:
            if key in _SESSIONS:
                continue
            key_lock = _KEY_LOCKS.setdefault(key, threading.Lock())
        if not key_lock.acquire(blocking=False):
            continue  # in flight elsewhere; collected via session_for
        with _SESSIONS_LOCK:
            tuned = key in _SESSIONS
        if tuned:
            key_lock.release()
            continue
        claimed.append((name, machine))
        held.append(key_lock)
    return claimed, held


def _install_session(
    name: str, machine: MachineSpec, seed: int, strategy_name: str,
    report: TuningReport,
) -> None:
    """Rebuild a shipped report into a full session and cache it."""
    spec = benchmark(name)
    session = TunedSession(
        spec=spec,
        machine=machine,
        compiled=compile_program(spec.build_program(), machine),
        report=report,
    )
    with _SESSIONS_LOCK:
        _SESSIONS.setdefault(
            (name, machine.codename, seed, strategy_name), session
        )


def _tune_many_process(
    resolved: Sequence[Tuple[str, MachineSpec]],
    seed: int,
    worker_count: int,
    config: TunerConfig,
    result_cache: Optional[ResultCache] = None,
) -> List[TunedSession]:
    """Shard a batch across worker processes and collect the sessions.

    Pairs already tuned (or in flight on another caller, or whose
    machines a child cannot rebuild by codename) skip the pipe; the
    claimed rest are partitioned round-robin over up to
    ``worker_count`` shards.  The parent rebuilds each shipped report
    into a full :class:`TunedSession` (recompiling the program locally
    — cheap next to tuning) and installs it in the process-wide
    session cache before releasing the claim.  Shard cache counters
    are folded into ``result_cache`` (when the caller shares a handle)
    so batch-level cache accounting survives the process hop; a single
    claimed pair tunes in this process on ``result_cache`` itself.
    """
    strategy_name = config.strategy
    claimed, held = _claim_missing(resolved, seed, strategy_name)
    try:
        # Callers reach this only with worker_count > 1, so a shard
        # pool is worthless solely for a single claimed pair.
        shard_count = min(worker_count, len(claimed))
        if len(claimed) == 1:
            name, machine = claimed[0]
            session = _tune_one(name, machine, seed, config, result_cache)
            with _SESSIONS_LOCK:
                _SESSIONS.setdefault(
                    (name, machine.codename, seed, strategy_name), session
                )
        elif claimed:
            shards: List[List[Tuple[str, str]]] = [[] for _ in range(shard_count)]
            for index, (name, machine) in enumerate(claimed):
                shards[index % shard_count].append((name, machine.codename))
            machines = {machine.codename: machine for _, machine in claimed}
            with ProcessPoolExecutor(max_workers=shard_count) as pool:
                futures = [
                    pool.submit(_tune_shard, shard, seed, config)
                    for shard in shards
                ]
                for future in futures:
                    shard_results, shard_stats = future.result()
                    if result_cache is not None:
                        result_cache.merge_stats(shard_stats)
                    for name, codename, payload in shard_results:
                        _install_session(
                            name,
                            machines[codename],
                            seed,
                            strategy_name,
                            report_from_payload(payload),
                        )
    finally:
        for key_lock in held:
            key_lock.release()
    # Everything claimed is now a cache hit; the rest either was
    # already cached, is being tuned by a concurrent caller (the
    # single-flight lock inside session_for waits for it), or has an
    # unshardable machine and tunes locally here.
    return [
        session_for(name, machine, seed, config)
        for name, machine in resolved
    ]


def run_batch(
    pairs: Iterable[TunePair],
    seed: int,
    config: TunerConfig,
    result_cache: Optional[ResultCache] = None,
    checkpoint_store=None,
) -> Dict[Tuple[str, str], TunedSession]:
    """Tune a batch of (benchmark, machine) pairs concurrently.

    The implementation behind :meth:`repro.api.Session.run_batch`.
    Each pair runs an
    independent, separately seeded search, so the winning
    configurations are byte-identical to tuning the pairs one by one —
    concurrency changes wall-clock time only.  Sessions land in the
    same process-wide cache :func:`session_for` uses.

    With a ``config.cache_dir`` set, every simulation lands in the
    evaluation log and each finished session stores its report, so a
    killed batch rerun on the same directory replays what it had
    simulated from the log (and, with ``config.resume``, serves the
    finished sessions' stored reports), with byte-identical final
    reports.

    Args:
        pairs: (benchmark name, machine or machine codename) pairs;
            duplicates are tuned once.
        seed: Tuning seed used for every pair.
        config: Batch scheduling follows ``config.backend``
            (``thread`` schedules sessions on a thread pool,
            ``process`` shards the batch across worker processes,
            ``serial`` tunes one by one) and ``config.tune_many_workers``
            (concurrent sessions / shard processes).  Results are
            identical for every choice.
        result_cache: Shared disk-cache handle for locally tuned
            sessions (thread-safe); ``None`` opens fresh handles on
            ``config.cache_dir``.  Process shards always open their
            own handle in the child — handles cannot cross the pipe.
        checkpoint_store: Shared checkpoint store for locally tuned
            sessions, same caveats.

    Returns:
        ``{(benchmark name, machine codename): session}`` for every
        requested pair, in input order.
    """
    resolved: List[Tuple[str, MachineSpec]] = []
    seen = set()
    for name, machine in pairs:
        spec = _resolve_machine(machine)
        dedupe_key = (name, spec.codename)
        if dedupe_key in seen:
            continue
        seen.add(dedupe_key)
        resolved.append((name, spec))

    backend_name = config.backend
    worker_count = max(1, min(config.tune_many_workers, len(resolved) or 1))
    if backend_name == "serial":
        worker_count = 1

    if backend_name == "process" and worker_count > 1 and len(resolved) > 1:
        sessions = _tune_many_process(
            resolved, seed, worker_count, config, result_cache=result_cache
        )
    elif worker_count == 1 or len(resolved) <= 1:
        # Forward the caller's backend choice: an explicit "serial"
        # must stay serial even when the environment says process, and
        # an explicit "process" that cannot shard (one pair, one
        # worker) still gets in-tuner process evaluation.
        sessions = [
            session_for(
                name, machine, seed, config,
                result_cache=result_cache, checkpoint_store=checkpoint_store,
            )
            for name, machine in resolved
        ]
    else:
        # Sessions tuned on live worker threads pin a non-forking
        # evaluator backend: a process pool forked here could inherit
        # locks held mid-simulation by sibling threads.
        inner_config = _no_fork_config(config)
        with ThreadPoolExecutor(
            max_workers=worker_count, thread_name_prefix="repro-tune"
        ) as pool:
            futures = [
                pool.submit(
                    session_for, name, machine, seed, inner_config,
                    result_cache, checkpoint_store,
                )
                for name, machine in resolved
            ]
            sessions = [future.result() for future in futures]

    return {
        (name, machine.codename): session
        for (name, machine), session in zip(resolved, sessions)
    }


def standard_pairs() -> List[Tuple[str, MachineSpec]]:
    """The paper's full experiment grid: every benchmark on every
    standard machine (the sessions Figures 6, 7 and 8 consume)."""
    return [
        (spec.name, machine)
        for spec in all_benchmarks()
        for machine in standard_machines()
    ]


def clear_sessions() -> None:
    """Drop all cached tuning sessions (tests use this)."""
    with _SESSIONS_LOCK:
        _SESSIONS.clear()
        _KEY_LOCKS.clear()


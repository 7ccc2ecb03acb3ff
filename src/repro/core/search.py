"""The autotuner front door (paper Section 5.2).

:class:`EvolutionaryTuner` plans one tuning session — test-size ramp,
mutator set, seed configurations, evaluation backend — and hands the
search itself to a pluggable strategy
(:mod:`repro.core.strategies`; ``evolutionary`` by default, which
reproduces the paper's bottom-up evolutionary algorithm bit for bit)
driven by the asynchronous :class:`~repro.core.driver.TuningDriver`.

Key properties taken from the paper:

* mutation is **asexual** — each child has a single parent;
* a child joins the population **only if it outperforms its parent**;
* test input sizes **grow exponentially**, exploiting optimal
  substructure (a good configuration for size n seeds size 2n);
* the mutator set is generated automatically from the compiler's
  static analysis;
* to fight the kernel-compilation overhead of Section 5.4, the tuner
  can skip the smallest input sizes and run fewer generations there.

For variable-accuracy programs (SVD) candidates that miss the accuracy
target are rejected outright.

Configuration
=============

Every service-level knob — evaluation backend, worker count, search
strategy, cache directory, checkpoint cadence, resume, progress —
arrives as one :class:`repro.api.TunerConfig` via the ``config=``
parameter.  When ``config`` is omitted the tuner resolves one with
:meth:`~repro.api.TunerConfig.resolve` (defaults < ``REPRO_*``
environment < ``repro.toml``), exactly as every other entry point
does; the layers below it never read the environment.

Parallel evaluation
===================

With ``config.workers > 1`` candidates evaluate speculatively on a
pooled evaluator — threads by default, worker processes with
``backend="process"`` (see :mod:`repro.core.backends`) — while the
driver commits results in the exact order a serial loop would, so the
committed decision sequence (and therefore the
:class:`~repro.core.report.TuningReport`) is bit-for-bit identical for
every backend, worker count and speculation depth.  The driver keeps
``inflight_per_worker`` speculative candidates queued per worker, so
pooled backends stay saturated instead of idling at generation
barriers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.api.config import TunerConfig
from repro.compiler.compile import CompiledProgram
from repro.core.backends import create_evaluator
from repro.core.driver import (
    DEFAULT_INFLIGHT_PER_WORKER,
    CandidateEvent,
    CheckpointStore,
    RoundEvent,
    TuningDriver,
    progress_printer,
)
from repro.core.fitness import AccuracyFn, EnvFactory, Evaluator
from repro.core.mutators import Mutator, mutators_for
from repro.core.report import (  # re-exported for compatibility
    TuningReport,
    report_from_payload,
    report_to_payload,
)
from repro.core.result_cache import ResultCache
from repro.core.strategies import SearchPlan, create_strategy, seed_configurations
from repro.errors import TuningError

__all__ = [
    "EvolutionaryTuner",
    "TuningReport",
    "report_from_payload",
    "report_to_payload",
]


class EvolutionaryTuner:
    """Searches the configuration space of one compiled program."""

    def __init__(
        self,
        compiled: CompiledProgram,
        env_factory: EnvFactory,
        max_size: int,
        population_size: int = 6,
        generations_per_size: int = 10,
        min_size: int = 64,
        size_growth: int = 4,
        seed: int = 0,
        accuracy_fn: Optional[AccuracyFn] = None,
        accuracy_target: Optional[float] = None,
        skip_small_sizes_for_opencl: bool = True,
        mutators: Optional[List[Mutator]] = None,
        config: Optional[TunerConfig] = None,
        result_cache: Optional[ResultCache] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        inflight_per_worker: int = DEFAULT_INFLIGHT_PER_WORKER,
        progress: Optional[Callable[[str], None]] = None,
        on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
        on_round: Optional[Callable[[RoundEvent], None]] = None,
        warm_seeds: Optional[List["Configuration"]] = None,
        warm_start: Optional[Dict[str, object]] = None,
    ) -> None:
        """Configure a tuning session.

        Args:
            compiled: Compiler output for the target machine.
            env_factory: Builds a deterministic test environment for a
                given input size.
            max_size: Final (testing) input size.
            population_size: Population capacity.
            generations_per_size: Mutation attempts per input size.
            min_size: Smallest test size (before OpenCL adjustment).
            size_growth: Factor between consecutive test sizes (>= 2).
            seed: Randomness seed for *this search* (the whole search
                is deterministic).  Deliberately separate from
                ``config.seed``, which is the experiment-suite seed.
            accuracy_fn: Error metric for variable-accuracy programs.
            accuracy_target: Largest acceptable error.
            skip_small_sizes_for_opencl: Apply the Section 5.4
                mitigation — skip extremely small sizes and run fewer
                generations at the small sizes kept — when the program
                has OpenCL kernels.
            mutators: Override the auto-generated mutator set (used by
                the autotuner ablation benchmarks).
            config: Every service-level knob (backend, workers,
                strategy, cache directory, checkpoint cadence, resume,
                progress) as one :class:`repro.api.TunerConfig`.
                ``None`` resolves one with
                :meth:`~repro.api.TunerConfig.resolve`.  Reports are
                bit-for-bit identical across backends and worker
                counts.
            result_cache: Cross-session disk cache handle; ``None``
                opens one on ``config.cache_dir``.
            checkpoint_store: Where session checkpoints live; ``None``
                derives the store from ``config.cache_dir``.
            inflight_per_worker: Speculative queue depth per worker.
            progress: Per-round progress sink override; ``None``
                follows ``config.progress`` (stderr lines when on).
            on_candidate: Streaming observer for every committed
                candidate evaluation (see
                :class:`~repro.core.driver.CandidateEvent`).
            on_round: Streaming observer for every completed search
                round (see :class:`~repro.core.driver.RoundEvent`).
            warm_seeds: Extra seed configurations injected into the
                initial population (incremental re-tuning warm-starts
                the search from a prior report's best configs; see
                :mod:`repro.artifacts.retune`).  Deduplicated against
                the compiler-derived seeds by canonical key.
            warm_start: Provenance of the warm-start donor, recorded
                on the report (``warm_start_from``) and folded into
                the checkpoint identity so warm and cold sessions
                never share checkpoints.
        """
        if config is None:
            config = TunerConfig.resolve()
        self._config = config
        self._compiled = compiled
        self._evaluator: Evaluator = create_evaluator(
            compiled,
            env_factory,
            config,
            accuracy_fn=accuracy_fn,
            accuracy_target=accuracy_target,
            seed=seed,
            result_cache=(
                result_cache
                if result_cache is not None
                else ResultCache(config.cache_dir)
            ),
        )
        mutator_set = (
            mutators if mutators is not None else mutators_for(compiled.training_info)
        )
        # Scale the per-size budget with the size of the mutator set so
        # programs with rich choice spaces (Sort's 9 algorithms, SVD's
        # nested transforms) still get enough algorithm-changing draws.
        generations = max(generations_per_size, 2 * len(mutator_set))
        sizes = self._plan_sizes(
            min_size, max_size, size_growth, skip_small_sizes_for_opencl
        )
        seeds = seed_configurations(compiled.training_info)
        if warm_seeds:
            present = set(seeds)
            for warm in warm_seeds:
                if warm not in present:
                    present.add(warm)
                    seeds.append(warm)
        self._plan = SearchPlan(
            training=compiled.training_info,
            mutators=tuple(mutator_set),
            seeds=tuple(seeds),
            sizes=tuple(sizes),
            max_size=max_size,
            kernel_count=compiled.kernel_count,
            population_size=population_size,
            generations=generations,
            seed=seed,
            warm_start=warm_start,
        )
        self._driver = TuningDriver(
            compiled,
            self._evaluator,
            create_strategy(config.strategy, self._plan),
            self._plan,
            inflight_per_worker=inflight_per_worker,
            checkpoint_every=config.checkpoint_every,
            checkpoint_store=(
                checkpoint_store
                if checkpoint_store is not None
                else CheckpointStore.for_cache_dir(config.cache_dir)
            ),
            resume=config.resume,
            progress=(
                progress
                if progress is not None
                else (progress_printer() if config.progress else None)
            ),
            on_candidate=on_candidate,
            on_round=on_round,
        )

    def _plan_sizes(
        self, min_size: int, max_size: int, growth: int, skip_small: bool
    ) -> List[int]:
        """Exponentially growing test sizes, ending exactly at max_size."""
        if max_size < 1:
            raise TuningError("max_size must be positive")
        if growth < 2:
            raise TuningError(f"size_growth must be >= 2, got {growth}")
        if skip_small and self._compiled.kernel_count > 0:
            # Section 5.4: kernel compiles dominate tiny tests; skip them.
            min_size = max(min_size, max_size // (growth**3))
        sizes: List[int] = []
        # A min_size at or above max_size collapses the ramp to the
        # single final size (no duplicate max_size entries).
        size = max(1, min(min_size, max_size))
        while size < max_size:
            sizes.append(size)
            size *= growth
        sizes.append(max_size)
        return sizes

    @property
    def config(self) -> TunerConfig:
        """The resolved service-level configuration of this session."""
        return self._config

    @property
    def sizes(self) -> List[int]:
        """The planned test sizes (smallest to largest)."""
        return list(self._plan.sizes)

    @property
    def evaluator(self) -> Evaluator:
        """The (possibly parallel) candidate evaluator."""
        return self._evaluator

    @property
    def driver(self) -> TuningDriver:
        """The asynchronous tuning driver owning the search loop."""
        return self._driver

    @property
    def strategy_name(self) -> str:
        """Name of the search strategy this session runs."""
        return self._driver.strategy.name

    def __enter__(self) -> "EvolutionaryTuner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def tune(self, label: str = "") -> TuningReport:
        """Run the search and return the winning configuration.

        Args:
            label: Provenance label stored on the result (e.g.
                ``"Desktop Config"``).
        """
        return self._driver.run(label=label)

    def close(self) -> None:
        """Release the evaluator's worker pool (idempotent)."""
        self._driver.close()


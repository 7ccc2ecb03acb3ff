"""Concurrent candidate evaluation with serial-equivalent results.

The evolutionary tuner's candidate tests are pure functions of
``(configuration, size)`` (see :mod:`repro.core.fitness`), so they can
run *speculatively* on a worker pool.  Determinism is preserved by the
compute/commit split: workers only produce pure outcomes, and the
tuner commits them in exactly the order the serial loop would have,
replaying kernel-compile events against the session JIT model.  The
result — best configuration, history, evaluation count, tuning time —
is bit-for-bit identical to the serial tuner's.

:class:`PooledEvaluator` owns that speculative protocol once; its
subclasses supply only a *transport*.  Here, :class:`ParallelEvaluator`
runs pure work on a thread pool: programs are built from rule closures
that do not pickle, and threads share the evaluator's decision trees
and the disk-cache handle for free.  Threads overlap only where a
simulation releases the GIL: inside the NumPy kernels of numerically
simulated programs (Sort, SVD).  Programs whose rule bodies are elided (see
:func:`~repro.core.fitness.lane_batchable`) simulate in pure Python and
hold it.  :mod:`repro.core.backends` adds process-pool and cluster
transports for registered benchmarks, which *can* be rebuilt by name.
The worker count comes from the constructor (``config.workers`` via
:func:`~repro.core.backends.create_evaluator`) and defaults to 1
(serial commit path, no pool).
"""

from __future__ import annotations

from concurrent.futures import CancelledError, Executor, Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import DEFAULT_WORKERS
from repro.compiler.compile import CompiledProgram
from repro.core.configuration import Configuration, DecisionPath
from repro.core.fitness import EnvFactory, Evaluation, Evaluator, PureEvaluation
from repro.errors import TuningError


class PooledEvaluator(Evaluator):
    """Speculative evaluation over a pluggable transport.

    Drop-in replacement for :class:`Evaluator`: ``evaluate`` keeps the
    caller's sequential commit order (and therefore the exact serial
    accounting), while :meth:`prefetch` submits speculative pure work
    the caller expects to need, one submission per lane chunk.

    The requester's decision trees are its only index of outcomes:
    :meth:`prefetch` ships no lane they answer, and the join grows them
    from the decision path of each lane a worker simulated.

    Subclasses are transports.  ``_submit(transport, chunk, size)``
    starts one chunk (a list of at most ``batch_lanes``
    configurations) and returns its future; ``_decode(outcome, lane)``
    turns one lane of its result into a :class:`PureEvaluation` plus
    its decision path if it was simulated where this evaluator's trees
    have not grown it yet.  By default the outcome is what
    :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged` returns,
    as by-name workers answer (see
    :func:`~repro.core.backends.evaluate_request`).  Other hooks default
    to a lazy ``_new_executor()``.

    Args:
        batch_lanes: Configurations per pooled submission (1 = one
            configuration per submission).  A wider chunk costs one
            submission, one pickle and one frame, and its lanes share
            test-input handout and prepared plans on the worker (see
            :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged`).
        *args, **kwargs: As for :class:`~repro.core.fitness.Evaluator`.
    """

    def __init__(self, *args, batch_lanes: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batch_lanes = max(1, int(batch_lanes))
        self._executor: Optional[Executor] = None
        # Speculated (configuration, size) -> (its future, its lane).
        self._inflight: Dict[Tuple[Configuration, int], Tuple[Future, int]] = {}

    def _transport(self):
        """Where :meth:`_submit` sends work, or ``None`` when no
        speculative work can be taken (:meth:`prefetch` then ignores
        the hint, as the serial evaluator does): an executor, when
        there is more than one worker."""
        if self.workers <= 1:
            return None
        if self._executor is None:
            self._executor = self._new_executor()
        return self._executor

    def _lost(self, future: Future, exc: Exception) -> bool:
        """Whether ``future`` failing with ``exc`` only lost its answer
        (the commit recomputes in-process) rather than raising it."""
        return False

    def _cancel(self, future: Future) -> None:
        """Withdraw an unfinished submission."""
        future.cancel()

    def _shutdown(self) -> None:
        """Release the transport (called by :meth:`close`)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _decode(
        self, outcome, lane: int
    ) -> Tuple[PureEvaluation, Optional[DecisionPath]]:
        """One lane of a submission's outcome, plus its path or ``None``."""
        pures, paths = outcome
        return pures[lane], paths[lane]

    def prefetch(self, configs: Sequence[Configuration], size: int) -> None:
        """Start speculative evaluation of ``configs`` at ``size``.

        Pure computation only — no accounting happens until a caller
        commits via :meth:`evaluate`.  Discarded speculation costs
        wall-clock work but cannot perturb results; a speculative
        failure surfaces only if that configuration is later actually
        evaluated (exactly when the serial tuner would have failed).
        Lanes committed, in flight, repeated or answered by the tree at
        ``size`` are not shipped; a conflicted tree ships nothing, and
        the next commit at ``size`` raises.  Without a transport (a
        one-worker pool, a degraded cluster) the hint is ignored and
        every configuration computes at its commit.
        """
        transport = self._transport()
        if transport is None:
            return
        # Workers sharing the cache directory append to this
        # evaluator's log; loading it puts it in the handle's sync set,
        # so close() makes their records durable too.
        trees = self._loaded_trees()
        fresh = dict.fromkeys(
            config
            for config in configs
            if (config, size) not in self._committed
            and (config, size) not in self._inflight
        )
        with self._pure_lock:
            try:
                queued = [c for c in fresh if trees[size].lookup(c) is None]
            except TuningError:
                return  # the tree's conflict fails every commit here
        lanes = self.batch_lanes
        for start in range(0, len(queued), lanes):
            chunk = queued[start : start + lanes]
            future = self._submit(transport, chunk, size)
            for lane, config in enumerate(chunk):
                self._inflight[(config, size)] = (future, lane)

    def _join(
        self, key: Tuple[Configuration, int], future: Future, lane: int
    ) -> Optional[PureEvaluation]:
        """Harvest one key's speculative answer, growing the tree at its
        size from the answer's path; ``None`` when the transport lost
        it, or the path conflicts with the tree (which keeps the
        conflict, so the commit's own walk raises it)."""
        try:
            outcome = future.result()
        except Exception as exc:
            if not self._lost(future, exc):
                raise
            return None
        pure, path = self._decode(outcome, lane)
        if path is not None:
            trees = self._loaded_trees()
            with self._pure_lock:
                self.computed_evaluations += 1
                try:
                    trees[key[1]].grow(path, pure)
                except TuningError:
                    return None
        return pure

    def evaluate(self, config: Configuration, size: int) -> Evaluation:
        """Commit-ordered evaluation (see base class).

        Joins the in-flight speculative submission for this key when
        one exists; a lost or never-submitted one computes in-process
        (a decision-tree walk, which simulates only on a miss).
        """
        key = (config, size)
        committed = self._committed.get(key)
        if committed is not None:
            return committed
        entry = self._inflight.pop(key, None)
        pure = self._join(key, *entry) if entry is not None else None
        if pure is None:
            pure = self.compute(config, size)
        return self._commit(key, pure)

    def inflight(self) -> int:
        """Speculative evaluations currently submitted."""
        return len(self._inflight)

    def drop_speculation(self) -> None:
        """Forget speculative work whose premise was invalidated.

        Finished answers are harvested into the decision trees, so they
        stay reusable even with the disk layer disabled; a conflicting
        path raises at the next commit at its size, and a failed answer
        when its configuration is actually evaluated.  Unfinished
        submissions are cancelled, once per chunk.
        """
        cancelled = set()
        for key, (future, lane) in self._inflight.items():
            if future.done():
                if not future.cancelled() and future.exception() is None:
                    self._join(key, future, lane)
            elif id(future) not in cancelled:
                cancelled.add(id(future))
                self._cancel(future)
        self._inflight.clear()

    def close(self) -> None:
        """Discard pending speculation, release the transport, then
        make the log records durable (see base class), the workers'
        included."""
        self.drop_speculation()
        self._shutdown()
        super().close()


class ParallelEvaluator(PooledEvaluator):
    """:class:`PooledEvaluator` whose transport is a thread pool.

    Args:
        compiled: Compiler output for the target machine.
        env_factory: Deterministic test-environment builder.
        workers: Worker threads.  With 1 worker no pool is created and
            prefetch is ignored.
        accuracy_fn: Error metric for variable-accuracy programs.
        accuracy_target: Largest acceptable error.
        seed: Seed forwarded to the runtime scheduler.
        result_cache: Cross-session disk cache (see base class).
        batch_lanes: Configurations per pool submission (see base
            class); with more than one lane each submission is a whole
            :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged`
            chunk, as on by-name workers; one-lane submissions call
            :meth:`~repro.core.fitness.Evaluator.compute`.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        env_factory: EnvFactory,
        workers: int = DEFAULT_WORKERS,
        **kwargs,
    ) -> None:
        super().__init__(compiled, env_factory, **kwargs)
        self.workers = max(1, workers)

    def _new_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-eval"
        )

    def _submit(self, pool: Executor, chunk: List[Configuration], size: int) -> Future:
        if self.batch_lanes <= 1:
            # The benchmarks/e2e tracer binds `compute` as fitness.compute.
            return pool.submit(self.compute, chunk[0], size)
        return pool.submit(self.compute_batch_flagged, chunk, size)

    def _decode(
        self, outcome, lane: int
    ) -> Tuple[PureEvaluation, Optional[DecisionPath]]:
        # Pool threads grow the shared trees and count their own work.
        return (outcome if self.batch_lanes <= 1 else outcome[0][lane]), None

    def _lost(self, future: Future, exc: Exception) -> bool:
        # A failed chunk says nothing about its other lanes: each key
        # recomputes in-process, so only the failing one raises.
        return isinstance(exc, (TuningError, CancelledError))

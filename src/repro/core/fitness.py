"""Candidate evaluation for the autotuner.

Fitness is the virtual execution time of the compiled program under a
candidate configuration on representative inputs.  Evaluation is split
into two halves so it can be parallelised and cached without changing
any observable result:

* **compute** — a *pure* step: run the deterministic simulation and
  record ``(time, accuracy, compile events)``.  Pure outcomes depend
  only on the answers the simulation got to the questions it asked of
  its configuration at that size (its *decision path*; see
  :class:`~repro.core.configuration.ConfigurationView`), plus the
  program/machine/seed the evaluator is bound to — never on evaluation
  order — so they can be executed speculatively on worker threads,
  served from a :class:`DecisionTree` to any later candidate that
  answers an earlier simulation's path the same way, and persisted
  across processes as that tree's records in a
  :class:`~repro.core.result_cache.ResultCache` log;
* **commit** — an order-sensitive accounting step: replay the recorded
  compile events against a session-wide JIT model (so the IR cache
  behaves as in paper Section 5.4 — first compile of each kernel is
  expensive, later ones cheap) and accumulate *tuning time*, the
  virtual seconds the autotuner spends running tests plus compiling
  kernels (the "Mean Autotuning Time" column of Figure 8).

Committing results in the same sequential order the serial tuner would
have evaluated them reproduces its ``evaluations`` count and
``tuning_time_s`` bit for bit, no matter which worker (or which past
process, via the disk cache) actually ran the simulation.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.core.configuration import Configuration, DecisionPath, Question
from repro.core.result_cache import (
    CACHE_VERSION,
    ResultCache,
    execution_model_hash,
)
from repro.errors import TuningError
from repro.hardware.opencl import OpenCLRuntimeModel

#: Builds a fresh environment (inputs + preallocated outputs) for a
#: given input size.  Deterministic for a given size.
EnvFactory = Callable[[int], Dict[str, np.ndarray]]

#: Optional accuracy metric computed on the filled environment; used
#: by variable-accuracy transforms (the paper's SVD).  Lower is better
#: (an error measure).
AccuracyFn = Callable[[Dict[str, np.ndarray]], float]


@dataclass
class Evaluation:
    """Outcome of evaluating one configuration at one size.

    Attributes:
        time_s: Virtual execution time (the fitness; lower is better).
        accuracy: Error metric when an accuracy function is installed.
        feasible: False when the accuracy target was missed — the
            candidate must be rejected regardless of speed.
    """

    time_s: float
    accuracy: Optional[float] = None
    feasible: bool = True


@dataclass
class PureEvaluation:
    """Order-independent outcome of one simulated test run.

    Attributes:
        time_s: Virtual execution time.
        accuracy: Error metric (None without an accuracy function).
        compile_events: Ordered ``(source_hash, device_name)`` pairs,
            one per kernel-compile call the run issued.  Replaying them
            against a session JIT model at commit time reproduces the
            serial tuner's compile-time accounting.
    """

    time_s: float
    accuracy: Optional[float]
    compile_events: Tuple[Tuple[str, str], ...]


class _Node:
    """Inner node of a :class:`DecisionTree`: the next question, and one
    edge per answer seen (to a :class:`_Node` or a leaf
    :class:`PureEvaluation`)."""

    __slots__ = ("question", "edges")

    def __init__(self, question: Question) -> None:
        self.question = question
        self.edges: Dict[int, object] = {}


class DecisionTree:
    """Simulated outcomes at one test size, indexed by decision path.

    An inner node holds the next question a simulation asked, an edge
    holds an answer, and a leaf holds the simulation's
    :class:`PureEvaluation`.  A simulation is deterministic given its
    answers, so it asks the same next question after the same answers,
    and a candidate whose answers lead to a leaf would simulate to
    that leaf's outcome: :meth:`lookup` serves it without simulating.
    Two recorded paths that disagree (a different next question after
    the same answers, or a different outcome at one leaf) break that
    premise: :meth:`grow` raises instead of picking one, and from then
    on the tree serves nothing — every later :meth:`lookup` and
    :meth:`grow` raises the same error.  So a conflict found where a
    failure only loses its answer (a speculative lane on a thread pool,
    recomputed at its commit) still fails that commit, which walks the
    tree again.

    Not thread-safe: :class:`Evaluator` takes its pure lock around
    every call.
    """

    __slots__ = ("_root", "_conflict")

    def __init__(self) -> None:
        self._root: object = None
        self._conflict: Optional[str] = None

    def lookup(self, config: Configuration) -> Optional[PureEvaluation]:
        """The outcome ``config``'s answers lead to, or ``None``.

        Raises:
            TuningError: If the tree has recorded a conflict.
        """
        self._check()
        node = self._root
        while type(node) is _Node:
            node = node.edges.get(config.answer(node.question))
        return node

    def grow(self, path: DecisionPath, pure: PureEvaluation) -> None:
        """Record one simulation's path and outcome.

        Raises:
            TuningError: If the path conflicts with a recorded one, or
                the tree has recorded a conflict before.
        """
        self._check()
        if self._root is None:
            self._root = _chain(path, pure)
            return
        node = self._root
        for depth, (question, answer) in enumerate(path):
            if type(node) is not _Node or node.question != question:
                asked = node.question if type(node) is _Node else "nothing more"
                self._fail(
                    f"decision paths conflict after {list(path[:depth])}: "
                    f"one simulation asked {question}, another {asked}"
                )
            child = node.edges.get(answer)
            if child is None:
                node.edges[answer] = _chain(path[depth + 1 :], pure)
                return
            node = child
        if type(node) is _Node:
            self._fail(
                f"decision paths conflict after {list(path)}: one simulation "
                f"asked nothing more, another {node.question}"
            )
        if node != pure:
            self._fail(
                f"decision path {list(path)} led to two outcomes: "
                f"{node} and {pure}"
            )

    def _fail(self, conflict: str) -> NoReturn:
        self._conflict = conflict
        raise TuningError(conflict)

    def _check(self) -> None:
        if self._conflict is not None:
            raise TuningError(self._conflict)


def _chain(path: DecisionPath, pure: PureEvaluation) -> object:
    """A fresh branch asking ``path``'s questions, ending in ``pure``."""
    node: object = pure
    for question, answer in reversed(path):
        inner = _Node(question)
        inner.edges[answer] = node
        node = inner
    return node


class _RecordingJit:
    """JIT model proxy that logs every compile call's cache key."""

    def __init__(self, inner: OpenCLRuntimeModel) -> None:
        self._inner = inner
        self.events: List[Tuple[str, str]] = []

    def compile(self, source: str, device_name: str):
        key = OpenCLRuntimeModel.source_hash(source)
        self.events.append((key, device_name))
        return self._inner.compile_hashed(key, device_name)

    @property
    def total_compile_time_s(self) -> float:
        return self._inner.total_compile_time_s


def _hasher():
    """A sha256 digest and a ``feed(text)`` that adds one
    NUL-terminated field to it."""
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    return digest, feed


def _feed_machine(feed, machine) -> None:
    """Feed the machine parameters the simulator reads: CPU, device,
    transfer model and JIT costs."""
    feed(machine.codename)
    feed(repr(machine.cpu))
    feed(repr(machine.opencl_device))
    feed(repr(machine.transfer))
    jit = machine.opencl_jit
    feed(
        f"{jit.platform_name}:{jit.parse_cost_s}:{jit.jit_cost_s}:"
        f"{jit.ir_cache_enabled}:{jit.binary_cache_enabled}"
    )


def program_fingerprint(compiled: CompiledProgram) -> str:
    """Content hash of everything the virtual timing model consumes.

    Two compiled programs with the same fingerprint produce the same
    pure evaluation outcomes, so the fingerprint (together with the
    cache version) guards the cross-session disk cache against stale
    entries from changed programs, cost models or machines.
    """
    digest, feed = _hasher()
    feed(compiled.program.name)
    _feed_machine(feed, compiled.machine)
    for name, kernel in sorted(compiled.kernels.items()):
        feed(name)
        feed(kernel.source)
    for name, transform in sorted(compiled.transforms.items()):
        feed(name)
        for choice in transform.exec_choices:
            feed(f"{choice.name}:{choice.uses_opencl}")
    training = compiled.training_info
    for name, spec in sorted(training.selectors.items()):
        feed(f"{name}:{spec!r}")
    for name, spec in sorted(training.tunables.items()):
        feed(f"{name}:{spec!r}")
    return digest.hexdigest()[:24]


def _stable_value_token(value) -> str:
    """Best-effort stable description of a captured value.

    Primitives (and tuples of primitives) are rendered by value;
    everything else by type name only — object reprs can embed memory
    addresses, which would make the token differ on every process and
    defeat cross-session caching.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_stable_value_token(item) for item in value) + ")"
    return f"<{type(value).__module__}.{type(value).__qualname__}>"


def _callable_token(fn, none_token: str) -> str:
    """Conservative cache-key identity for a user-supplied callable.

    Covers the definition site (module + qualname), the bytecode, the
    code constants, default arguments and captured closure values (the
    usual carriers of "same code, different data" — a seed literal, a
    kernel width, a threshold).  Semantically identical callables
    defined at different sites tokenise differently, which only costs
    a cold cache; callables capturing unstable objects fall back to
    the object's type name, so rare genuinely-different captures of
    the same type can still collide — the program fingerprint and
    configuration key shield the realistic cases.
    """
    if fn is None:
        return none_token
    digest = hashlib.sha256()
    code = getattr(fn, "__code__", None)
    if code is not None:
        digest.update(code.co_code)
        digest.update(_stable_value_token(code.co_consts).encode("utf-8"))
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            digest.update(_stable_value_token(cell.cell_contents).encode("utf-8"))
        except ValueError:  # empty cell
            digest.update(b"<empty>")
    defaults = getattr(fn, "__defaults__", None) or ()
    digest.update(_stable_value_token(tuple(defaults)).encode("utf-8"))
    return (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', '?')}:"
        f"{digest.hexdigest()[:12]}"
    )


#: Process-wide memo of pristine test environments, keyed by
#: ``(env-factory token, program fingerprint, size, seed)``.
#: Environment factories are deterministic for a given size (see
#: :data:`EnvFactory`); the factory token covers the definition site,
#: bytecode and captured primitive values, and the program fingerprint
#: disambiguates factories whose captures tokenise alike (every
#: ``canonical_env_factory`` closure differs only by its captured
#: ``BenchmarkSpec``), so two evaluators sharing a key build identical
#: inputs.
#: Entries hold *master* envs that are never handed to a simulation:
#: every evaluation receives fresh copies (see
#: :meth:`Evaluator._fresh_env_batch`), so runs can never alias each
#: other's arrays or corrupt the memo.  LRU-bounded — full-scale
#: environments reach tens of MB each.
_ENV_MEMO: "OrderedDict[Tuple[str, str, int, int], Dict[str, np.ndarray]]" = (
    OrderedDict()
)
_ENV_MEMO_LOCK = threading.Lock()
_ENV_MEMO_CAPACITY = 8


def clear_env_memo() -> None:
    """Drop all memoised test environments (tests use this)."""
    with _ENV_MEMO_LOCK:
        _ENV_MEMO.clear()


def lane_batchable(compiled: CompiledProgram) -> bool:
    """Whether a compiled program qualifies for lane-batched (elided)
    evaluation.

    Every authored rule must be flagged
    :attr:`~repro.lang.rule.Rule.data_independent` — one rule with
    data-dependent control flow (Sort's median pivot) disqualifies the
    whole program, because a candidate could route work through it.
    Accuracy is checked separately by the evaluator (an accuracy
    function reads the output arrays that elision leaves unwritten).
    """
    for transform in compiled.program.iter_transforms():
        for choice in transform.choices:
            rule = choice.rule
            if rule is not None and not rule.data_independent:
                return False
    return True


class Evaluator:
    """Runs candidate configurations and accounts tuning time.

    The serial backend: every simulation happens lazily inside
    :meth:`evaluate`, on the calling thread, and nothing is speculated.
    Every pure outcome — serial, pooled worker or daemon job — comes
    from :meth:`compute_batch_flagged`, so programs whose rules are all
    ``data_independent`` (and that have no accuracy function) always
    run with their numeric rule bodies elided: fitness is virtual time,
    and nothing reads the arrays those bodies would compute.  Programs
    that do not qualify (Sort's data-dependent pivot, SVD's accuracy
    hook) run numerically.

    The evaluator keeps one :class:`DecisionTree` per test size, which
    lives as long as the evaluator: everything else a simulation
    depends on (program fingerprint, machine, seed, test inputs and
    accuracy metric) is fixed per evaluator, so the tree is keyed by
    size alone.  The trees are its only index of pure outcomes: a
    candidate whose answers follow an earlier simulation's decision
    path, a repeat included, is served from the tree.  Those fixed
    inputs are also the evaluator's cache *context*: the trees start
    from the context's log in the disk cache, loaded the first time
    they are needed, and every simulation appends its record to it.

    Args:
        compiled: Compiler output for the target machine.
        env_factory: Deterministic test-environment builder.
        accuracy_fn: Error metric for variable-accuracy programs.
        accuracy_target: Largest acceptable error.
        seed: Seed forwarded to the runtime scheduler.
        result_cache: Cross-session disk cache; ``None`` disables the
            disk layer (in-memory trees only).

    Attributes:
        tuning_time_s: Accumulated virtual tuning time (test runs plus
            kernel compiles), identical whether results were computed
            or served from a decision tree.
        evaluations: Number of *logical* candidate tests committed —
            the serial tuner's test count.  Tree hits never inflate it.
        computed_evaluations: Number of simulations physically executed
            by this evaluator (a warm disk cache keeps this at zero, and
            decision-tree hits never count).  Unlike the logical
            counters this is a wall-clock-work gauge, not a
            deterministic result: with pooled speculation it can exceed
            ``evaluations`` (discarded speculative work still
            simulates) and vary between runs.
        path_hits: Outcomes this evaluator served from its decision
            trees instead of simulating; a wall-clock-work gauge like
            ``computed_evaluations``.  On a cold serial session the two
            add up to ``evaluations``.
    """

    #: Evaluation-slot width of this backend (pooled subclasses
    #: override with their pool size); the tuning driver sizes its
    #: speculative queue as a multiple of this.
    workers: int = 1

    def __init__(
        self,
        compiled: CompiledProgram,
        env_factory: EnvFactory,
        accuracy_fn: Optional[AccuracyFn] = None,
        accuracy_target: Optional[float] = None,
        seed: int = 0,
        result_cache: Optional[ResultCache] = None,
    ) -> None:
        self._compiled = compiled
        self._env_factory = env_factory
        self._accuracy_fn = accuracy_fn
        self._accuracy_target = accuracy_target
        self._seed = seed
        # Lane-elision qualification: every rule data-independent and
        # no accuracy function consuming the (unwritten) outputs.
        self.lane_batchable = accuracy_fn is None and lane_batchable(compiled)
        self._result_cache = (
            result_cache if result_cache is not None else ResultCache(None)
        )
        self._fingerprint = program_fingerprint(compiled)
        # Matrices a run may write: the entry transform's outputs.
        # Everything else in a handed-out environment is read-only for
        # the whole run, so the copy-on-write handout shares it.
        self._entry_outputs = frozenset(compiled.program.entry_transform.outputs)
        # Callable tokens are content hashes of bytecode + captured
        # values; computing them per cache lookup put hashing on the
        # per-evaluation path, so they are derived once here.
        self._env_token = _callable_token(env_factory, "none")
        self._accuracy_token = _callable_token(accuracy_fn, "none")
        # Session JIT model used only for commit-order replay of
        # compile events (the accounting model of Section 5.4).
        self._commit_jit = compiled.machine.fresh_jit()
        self._committed: Dict[Tuple[Configuration, int], Evaluation] = {}
        self._pure_lock = threading.Lock()
        # Everything a pure outcome depends on besides the candidate
        # and the size: the identity of this evaluator's log.  Sessions
        # with different test inputs or accuracy metrics must use
        # disjoint logs: cached times/accuracies feed admission and
        # feasibility decisions, and a cache must never change tuning
        # results.
        self._context = {
            "version": CACHE_VERSION,
            "model": execution_model_hash(),
            "program": compiled.program.name,
            "machine": compiled.machine.codename,
            "fingerprint": self._fingerprint,
            "env": self._env_token,
            "accuracy": self._accuracy_token,
            "seed": seed,
        }
        # Test size -> decision tree, grown from the log on first use
        # (see _loaded_trees; guarded by the pure lock).
        self._trees: Optional[Dict[int, DecisionTree]] = None
        self.tuning_time_s = 0.0
        self.evaluations = 0
        self.computed_evaluations = 0
        self.path_hits = 0

    @property
    def result_cache(self) -> ResultCache:
        """The cross-session disk cache in use."""
        return self._result_cache

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the bound program + machine.

        Process-backend workers compare this against the fingerprint of
        their by-name registry rebuild before serving any evaluation,
        so a drifted registry can never silently answer for a different
        program.
        """
        return self._fingerprint

    @property
    def env_token(self) -> str:
        """Content token of the environment factory (cache identity)."""
        return self._env_token

    @property
    def accuracy_token(self) -> str:
        """Content token of the accuracy function (cache identity)."""
        return self._accuracy_token

    def inflight(self) -> int:
        """Speculative evaluations currently in flight (0 without a
        pool; pooled subclasses override).  A wall-clock gauge for
        scheduling tests and progress reporting."""
        return 0

    @property
    def jit(self) -> OpenCLRuntimeModel:
        """The session JIT accounting model (Section 5.4).

        Compile events replay against this model in commit order;
        flipping its ``ir_cache_enabled`` / ``binary_cache_enabled``
        reproduces the paper's caching ablations without touching the
        (policy-independent) pure evaluation results.
        """
        return self._commit_jit

    def _loaded_trees(self) -> Dict[int, DecisionTree]:
        """This evaluator's decision trees, grown from its log in the
        disk cache the first time they are needed (one
        :meth:`~repro.core.result_cache.ResultCache.get` per evaluator).

        A log whose records conflict is quarantined, and the evaluator
        continues cold: a cache must never fail a tune.
        """
        with self._pure_lock:
            if self._trees is None:
                trees: Dict[int, DecisionTree] = defaultdict(DecisionTree)
                records = self._result_cache.get(self._context) or ()
                try:
                    for size, path, outcome in records:
                        trees[size].grow(path, PureEvaluation(*outcome))
                except (TuningError, TypeError, ValueError):
                    self._result_cache.quarantine(self._context)
                    trees = defaultdict(DecisionTree)
                self._trees = trees
            return self._trees

    def _fresh_env_batch(
        self, size: int, lanes: int, numeric: bool = True
    ) -> List[Dict[str, np.ndarray]]:
        """Private test environments for ``lanes`` simulated runs.

        Input generation is hoisted into a process-wide memo keyed by
        ``(factory token, program fingerprint, size, seed)``; each lane
        gets the memoised master copy-on-write: matrices a run can
        write (the entry transform's outputs) are private per lane,
        everything else — inputs, which the runtime never writes — is
        shared read-only with the master.  Concurrent and successive
        evaluations therefore never alias each other's writable arrays,
        and the master is never mutated.  On elided (non-``numeric``)
        lanes the outputs are never physically written, so each lane's
        "private output" is a distinct read-only broadcast stand-in —
        same shape/dtype/identity semantics, zero allocation, and an
        accidental write raises instead of corrupting a neighbour lane.
        """
        key = (self._env_token, self._fingerprint, size, self._seed)
        with _ENV_MEMO_LOCK:
            master = _ENV_MEMO.get(key)
            if master is not None:
                _ENV_MEMO.move_to_end(key)
        if master is None:
            master = self._env_factory(size)
            with _ENV_MEMO_LOCK:
                master = _ENV_MEMO.setdefault(key, master)
                _ENV_MEMO.move_to_end(key)
                while len(_ENV_MEMO) > _ENV_MEMO_CAPACITY:
                    _ENV_MEMO.popitem(last=False)
        outputs = self._entry_outputs
        stand_ins: Dict[str, np.ndarray] = {}
        if not numeric:
            stand_ins = {
                name: np.zeros(1, dtype=array.dtype)
                for name, array in master.items()
                if name in outputs
            }
        envs: List[Dict[str, np.ndarray]] = []
        for _ in range(max(1, lanes)):
            env: Dict[str, np.ndarray] = {}
            for name, array in master.items():
                if name not in outputs:
                    env[name] = array  # shared read-only input master
                elif numeric:
                    env[name] = array.copy()  # private writable output
                else:
                    env[name] = np.broadcast_to(stand_ins[name], array.shape)
            envs.append(env)
        return envs

    def _simulate(
        self,
        config: Configuration,
        size: int,
        numeric: bool,
        env: Dict[str, np.ndarray],
    ) -> Tuple[PureEvaluation, DecisionPath]:
        """Physically run the simulation (the expensive pure step);
        returns its outcome and decision path."""
        from repro.runtime.executor import run_program  # local: avoids cycle

        recorder = _RecordingJit(self._compiled.machine.fresh_jit())
        try:
            result = run_program(
                self._compiled, config, env, seed=self._seed, jit=recorder,
                numeric=numeric,
            )
        except Exception as exc:
            raise TuningError(
                f"evaluation failed for {self._compiled.program.name} at "
                f"size {size}: {exc}"
            ) from exc
        accuracy: Optional[float] = None
        if self._accuracy_fn is not None:
            accuracy = float(self._accuracy_fn(result.env))
        pure = PureEvaluation(
            time_s=result.time_s,
            accuracy=accuracy,
            compile_events=tuple(recorder.events),
        )
        return pure, result.path

    def compute(self, config: Configuration, size: int) -> PureEvaluation:
        """Pure outcome for ``config`` at ``size`` (no accounting): a
        one-lane :meth:`compute_batch_flagged`.

        Raises:
            TuningError: If the simulated run fails.
        """
        return self.compute_batch_flagged([config], size)[0][0]

    def compute_batch_flagged(
        self, configs: Sequence[Configuration], size: int
    ) -> Tuple[List[PureEvaluation], List[Optional[DecisionPath]]]:
        """Pure outcomes for a lane-batch of configurations at ``size``,
        plus the decision path of each lane this call simulated
        (``None`` for a lane the decision tree served).

        The one path every pure outcome takes (:meth:`compute` is its
        one-lane case), and exactly what by-name workers answer (see
        :func:`~repro.core.backends.evaluate_request`): the requester
        grows its own trees from the paths, so it never ships a lane
        they can answer, and counts each path in its
        ``computed_evaluations`` gauge.

        Each lane looks up the decision tree at ``size`` (loaded from
        the disk cache on first use), and only simulates on a miss.
        The tree walk happens right before the lane would simulate, so
        an earlier lane of the batch can serve a later one.  Every
        simulation grows the tree and appends its record to the
        evaluator's log; a tree hit writes nothing, and a warm replay
        of a cold session computes nothing.

        The simulated lanes share their *surroundings*: prepared
        invocation plans are warmed once, and test environments are
        handed out in one memo-lock acquisition with shared input
        masters.  When the program qualifies (see
        :func:`lane_batchable`) every lane runs with its numeric rule
        bodies elided, skipping the numpy arithmetic whose results
        nothing reads; programs that do not qualify simulate each lane
        numerically on private output copies.  Per-candidate results
        are the same either way and for any batch width.

        Safe to call from worker threads.

        Raises:
            TuningError: If any lane's simulated run fails, or its path
                conflicts with the tree.
        """
        trees = self._loaded_trees()
        numeric = not self.lane_batchable
        pures: List[PureEvaluation] = []
        paths: List[Optional[DecisionPath]] = []
        envs: List[Dict[str, np.ndarray]] = []
        for position, config in enumerate(configs):
            with self._pure_lock:
                pure = trees[size].lookup(config)
                if pure is not None:
                    self.path_hits += 1
            path = None
            if pure is None:
                if not envs:
                    # Shared by the lanes left to simulate: fully-built
                    # plan handles and the env masters (one lock
                    # acquisition for all of them).
                    self._compiled.plans.warm_all()
                    envs = self._fresh_env_batch(
                        size, len(configs) - position, numeric=numeric
                    )
                pure, path = self._simulate(config, size, numeric, envs.pop())
                with self._pure_lock:
                    self.computed_evaluations += 1
                    trees[size].grow(path, pure)
                self._result_cache.put(
                    self._context,
                    size,
                    path,
                    (pure.time_s, pure.accuracy, pure.compile_events),
                )
            pures.append(pure)
            paths.append(path)
        return pures, paths

    def _commit(
        self, key: Tuple[Configuration, int], pure: PureEvaluation
    ) -> Evaluation:
        """Account one pure outcome in sequential commit order.

        Callers commit only a ``key`` they just missed in
        ``_committed``, and only the driver's thread commits, so the
        miss still holds here.
        """
        self.evaluations += 1
        compile_s = 0.0
        for source_hash, device_name in pure.compile_events:
            compile_s += self._commit_jit.compile_hashed(
                source_hash, device_name
            ).compile_time_s
        self.tuning_time_s += pure.time_s + compile_s
        feasible = True
        if pure.accuracy is not None and self._accuracy_target is not None:
            feasible = pure.accuracy <= self._accuracy_target
        evaluation = Evaluation(
            time_s=pure.time_s, accuracy=pure.accuracy, feasible=feasible
        )
        self._committed[key] = evaluation
        return evaluation

    def evaluate(self, config: Configuration, size: int) -> Evaluation:
        """Fitness of ``config`` at input size ``size``.

        Raises:
            TuningError: If the run fails (propagating runtime faults
                would abort the whole search for one bad candidate).
        """
        key = (config, size)
        committed = self._committed.get(key)
        if committed is not None:
            return committed
        return self._commit(key, self.compute(config, size))

    def prefetch(self, configs, size: int) -> None:
        """Hint that these configurations will be evaluated soon.

        The serial evaluator ignores the hint: on one thread,
        speculation could only compute candidates that a strategy
        invalidation may throw away, so every simulation happens
        lazily inside :meth:`evaluate`.  Pooled evaluators override
        this with speculative background versions.
        """

    def drop_speculation(self) -> None:
        """Forget speculation whose premise was invalidated (no-op
        here; pooled evaluators override)."""

    def close(self) -> None:
        """Release evaluation resources (worker pools) and make this
        evaluator's log records durable."""
        self._result_cache.sync()

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Prepared invocation plans: memoised, config-independent lowering.

Every transform invocation used to redo work that depends only on the
compiled program — merging parameter defaults, resolving constant cost
specifications, walking composite steps to rebuild binding tables —
before it could even look at the candidate configuration.  During
autotuning that work dominates the cheap simulations: thousands of
candidate evaluations re-lower the same transforms at the same sizes
with only the configuration changing.

This module factors the config/size-independent half of lowering into
a :class:`PreparedPlans` cache attached lazily to each
:class:`~repro.compiler.compile.CompiledProgram`:

* :class:`TransformPlan` — per transform: the configuration-independent
  half of the invocation preamble (:meth:`TransformPlan.params_at`
  merges program defaults, transform defaults, the caller's parameters
  and ``_size``; the invocation size comes from the first output's
  shape unless the transform has ``size_of``), the user-tunable
  name/default pairs, the task name and the may-copy-out table every
  spawned invocation of the transform shares, and one
  :class:`ChoicePlan` per execution choice.
* :class:`ChoicePlan` — per execution choice: the dispatch strategy
  decoded once (composite / OpenCL-capable / inline CPU rule / chunked
  CPU rule), the rule's cost specification pre-resolved when it
  contains no parameter callables (the common case), and for
  composites the step templates (callee transform object, binding
  table, matrix name tuples, produce/consume names for the
  data-movement classifier).
* :func:`row_chunks` — the row partitioning of data-parallel rules,
  memoised on its ``(height, chunk_count)`` arguments.

Everything cached here is immutable with respect to the configuration
and the runtime environment, so prepared plans are shared freely
between candidate evaluations, worker threads and sizes.  Nothing here
is keyed by size: sizes follow the data (Sort's quick-sort partitions),
so a per-size table would grow with every input.  The
config-*dependent* residue (selector indices, composite copy-out
classifications under one configuration) is memoised per run by
:class:`~repro.runtime.scheduler.RuntimeState` instead.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.compiler.choices import ChoiceKind, ExecChoice
from repro.compiler.data_movement import CopyOutClass
from repro.lang.rule import Pattern, ResolvedCost, Rule
from repro.lang.transform import Choice, Step, Transform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledProgram, CompiledTransform


#: Global memo of row partitions; the function is pure and its result
#: space is tiny (heights x split factors actually reached by tuning).
_ROW_CHUNK_MEMO: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}


def row_chunks(height: int, chunk_count: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``[0, height)`` into up to ``chunk_count`` near-even ranges.

    Memoised: successive candidates evaluating the same (height, split)
    combination reuse the partition instead of recomputing it.
    """
    key = (height, chunk_count)
    cached = _ROW_CHUNK_MEMO.get(key)
    if cached is not None:
        return cached
    count = max(1, min(chunk_count, height))
    edges = [round(i * height / count) for i in range(count + 1)]
    chunks = tuple(
        (edges[i], edges[i + 1]) for i in range(count) if edges[i] < edges[i + 1]
    )
    if len(_ROW_CHUNK_MEMO) < 65536:  # unbounded growth guard
        _ROW_CHUNK_MEMO[key] = chunks
    return chunks


def _static_cost(rule: Optional[Rule]) -> Optional[ResolvedCost]:
    """Resolve a rule's cost spec once when no field is parametric."""
    if rule is None:
        return None
    cost = rule.cost
    for value in (
        cost.flops_per_item,
        cost.bytes_read_per_item,
        cost.bytes_written_per_item,
        cost.bounding_box,
        cost.kernel_launches,
        cost.cpu_flops_per_item,
    ):
        if callable(value):
            return None
    return cost.resolve({})


class StepPlan:
    """One composite step, pre-resolved against the program.

    Attributes:
        step: The authored step.
        transform_name: Callee transform name.
        callee: The callee transform object.
        bindings: Callee-matrix -> caller-matrix name table.
        matrices: Callee matrix names (inputs then outputs) the child
            environment must bind.
        caller_matrices: The same matrices translated to caller names.
        outputs: Callee output names.
        caller_produces: Caller-side names the step produces.
        caller_consumes: Caller-side names the step consumes.
        dynamic_consumer: Forwarded to the data-movement classifier.
        param_overrides: Parameters replacing the caller's values.
    """

    __slots__ = (
        "step",
        "transform_name",
        "callee",
        "bindings",
        "matrices",
        "caller_matrices",
        "outputs",
        "caller_produces",
        "caller_consumes",
        "dynamic_consumer",
        "param_overrides",
    )

    def __init__(self, step: Step, callee: Transform) -> None:
        self.step = step
        self.transform_name = step.transform
        self.callee = callee
        self.bindings = dict(step.bindings)
        self.matrices = tuple(callee.inputs) + tuple(callee.outputs)
        self.caller_matrices = tuple(
            self.bindings.get(name, name) for name in self.matrices
        )
        self.outputs = tuple(callee.outputs)
        self.caller_produces = tuple(
            self.bindings.get(name, name) for name in callee.outputs
        )
        self.caller_consumes = tuple(
            self.bindings.get(name, name) for name in callee.inputs
        )
        self.dynamic_consumer = step.dynamic_consumer
        self.param_overrides = dict(step.param_overrides)


class ChoicePlan:
    """One execution choice with its dispatch strategy decoded.

    Attributes:
        exec_choice: The compiled execution choice.
        kind: Its :class:`~repro.compiler.choices.ChoiceKind`.
        rule: The underlying rule (None for composites).
        kernel: The generated kernel for OpenCL kinds.
        is_composite: True for composite (step) choices.
        uses_opencl: True for the OpenCL kinds.
        runs_inline: True when the CPU backend runs the rule as one
            inline body (recursive or indivisible rules) instead of
            row chunks.
        recursive: True when the rule's pattern is recursive: its body
            charges its own work, so no cost spec applies.
        static_cost: The rule's cost resolved ahead of time when the
            cost spec has no parameter-dependent fields, else None
            (resolve per invocation).
        steps: Step templates for composite choices.
        intermediates: ``(name, shape_fn)`` pairs for composite
            scratch matrices.
        sequential_steps: True when the composite's steps must run one
            after another.
    """

    __slots__ = (
        "exec_choice",
        "kind",
        "rule",
        "kernel",
        "is_composite",
        "uses_opencl",
        "runs_inline",
        "recursive",
        "static_cost",
        "steps",
        "intermediates",
        "sequential_steps",
    )

    def __init__(self, exec_choice: ExecChoice, program) -> None:
        self.exec_choice = exec_choice
        self.kind = exec_choice.kind
        self.rule = exec_choice.rule
        self.kernel = exec_choice.kernel
        self.is_composite = exec_choice.kind is ChoiceKind.COMPOSITE
        self.uses_opencl = exec_choice.uses_opencl
        rule = exec_choice.rule
        self.recursive = rule is not None and rule.pattern is Pattern.RECURSIVE
        self.runs_inline = rule is not None and (self.recursive or not rule.divisible)
        self.static_cost = _static_cost(rule)
        authored: Choice = exec_choice.choice
        if self.is_composite:
            self.steps: Tuple[StepPlan, ...] = tuple(
                StepPlan(step, program.transform(step.transform))
                for step in authored.steps
            )
            self.intermediates = tuple(authored.intermediates.items())
            self.sequential_steps = not authored.parallel_steps
        else:
            self.steps = ()
            self.intermediates = ()
            self.sequential_steps = False

    def cost_for(self, params) -> ResolvedCost:
        """The resolved cost at ``params`` (static fast path)."""
        static = self.static_cost
        if static is not None:
            return static
        return self.rule.cost.resolve(params)


class TransformPlan:
    """Config-independent lowering state of one compiled transform.

    Attributes:
        name: Transform name.
        compiled: The compiled transform.
        transform: The source transform.
        base_params: Program defaults merged with transform defaults;
            :meth:`params_at` copies this and overlays an invocation's
            passed parameters.
        user_tunables: ``(name, default)`` pairs of the transform's
            user tunables, for configuration lookups.
        choices: One :class:`ChoicePlan` per execution choice.
        num_choices: ``len(choices)``.
        outputs: The transform's output matrix names.
        first_output: ``outputs[0]``: an invocation's size is its
            element count unless ``sized_by_shapes``.
        sized_by_shapes: True when the transform has ``size_of``, so an
            invocation's size needs every bound matrix's shape.
        task_name: Debug label of every invocation task of the
            transform.
        may_copy_out: Every output classified may-copy-out: the table
            each spawned invocation of the transform shares (read
            only).
    """

    __slots__ = (
        "name",
        "compiled",
        "transform",
        "base_params",
        "user_tunables",
        "choices",
        "num_choices",
        "outputs",
        "first_output",
        "sized_by_shapes",
        "task_name",
        "may_copy_out",
        "gpu_ratio_key",
        "split_key",
        "lws_key",
    )

    def __init__(self, compiled: "CompiledTransform", program) -> None:
        transform = compiled.transform
        self.name = transform.name
        self.gpu_ratio_key = f"gpu_ratio_{transform.name}"
        self.split_key = f"split_{transform.name}"
        self.lws_key = f"lws_{transform.name}"
        self.compiled = compiled
        self.transform = transform
        self.base_params: Dict[str, float] = dict(program.default_params)
        self.base_params.update(transform.params)
        self.user_tunables = tuple(
            (name, spec[2]) for name, spec in transform.user_tunables.items()
        )
        self.choices = tuple(
            ChoicePlan(choice, program) for choice in compiled.exec_choices
        )
        self.num_choices = len(self.choices)
        self.outputs = tuple(transform.outputs)
        self.first_output = self.outputs[0]
        self.sized_by_shapes = transform.size_of is not None
        self.task_name = f"invoke:{transform.name}"
        self.may_copy_out: Dict[str, CopyOutClass] = {
            name: CopyOutClass.MAY_COPY_OUT for name in self.outputs
        }

    def params_at(self, size: int, passed: Mapping[str, float]) -> Dict[str, float]:
        """An invocation's parameters before its user tunables: the base
        parameters, overlaid by ``passed``, with ``_size`` set to
        ``size`` unless ``passed`` set it.  A fresh dict."""
        params = {**self.base_params, **passed} if passed else dict(self.base_params)
        if "_size" not in params:
            params["_size"] = float(size)
        return params


class PreparedPlans:
    """Per-:class:`CompiledProgram` cache of transform plans.

    Built lazily (first invocation of each transform) and shared by
    every run of the compiled program, across configurations, sizes,
    and evaluator worker threads.  Reads and writes are safe under the
    GIL: plan construction is idempotent, so a rare duplicate build
    publishes an equivalent object.
    """

    __slots__ = ("_compiled", "_plans")

    def __init__(self, compiled: "CompiledProgram") -> None:
        self._compiled = compiled
        self._plans: Dict[str, TransformPlan] = {}

    def transform_plan(self, name: str) -> TransformPlan:
        """The prepared plan for one transform (building it on demand)."""
        plan = self._plans.get(name)
        if plan is None:
            plan = TransformPlan(
                self._compiled.transform(name), self._compiled.program
            )
            self._plans[name] = plan
        return plan

    def warm_all(self) -> "PreparedPlans":
        """Build every transform's plan now.

        :meth:`~repro.core.fitness.Evaluator.compute_batch_flagged`
        calls this once per batch that simulates, so all its lanes
        share fully-built plan handles instead of racing the lazy
        first-touch path lane by lane.  Idempotent and cheap when
        already warm.
        """
        for name in self._compiled.transforms:
            self.transform_plan(name)
        return self

    def __len__(self) -> int:  # pragma: no cover - diagnostics
        return len(self._plans)

"""Transform invocation: from selector decision to task graph.

An invocation task resolves its transform's *selector* at the dynamic
input size (paper Section 5.1) and expands into the matching execution
strategy:

* **CPU rule** — data-parallel rules split row-wise into chunk tasks
  for the work-stealing backend (split factor and sequential cutoff
  are tunables); recursive/indivisible rules run inline and may spawn
  children through :class:`~repro.lang.spawn.Spawn`.
* **OpenCL kernel** — the GPU task quartet is enqueued, optionally
  with a CPU portion when the autotuned GPU/CPU ratio is below 8/8
  (work balancing, paper Section 4.3).
* **Composite** — intermediates are allocated, steps become child
  invocations (sequential or task-parallel), and the data-movement
  classification decides each step's copy-out strategy.

Hot-path layout (every simulated run expands hundreds of invocations):

* the config/size-independent half of lowering (merged parameter
  defaults and ``_size``, static cost resolution, dispatch decoding,
  composite step templates, the shared task name and may-copy-out
  table) comes pre-computed from the compiled program's
  :class:`~repro.compiler.prepared.PreparedPlans`, and each invocation
  payload holds its transform's plan;
* an invocation's size is its first output's element count, so the
  shapes of its whole environment are built only for composites and
  transforms with ``size_of``;
* a spawn resolves each callee plan once and builds each child task
  directly, with no parameter or copy-class copies: the children share
  the callee's may-copy-out table and task name;
* hot-path objects are built with positional arguments;
* CPU tasks skip every residency check and device invalidation while
  the run has no device buffer (the memory manager's ``has_buffers``);
* the config-dependent residue (selector indices, composite copy-out
  classification under the run's configuration) is memoised per run on
  the :class:`~repro.runtime.scheduler.RuntimeState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.compiler.data_movement import (
    Backend,
    CopyOutClass,
    ScheduledProducer,
    classify_copyouts,
)
from repro.compiler.prepared import ChoicePlan, TransformPlan, row_chunks
from repro.errors import RuntimeFault
from repro.hardware.costmodel import cpu_task_time
from repro.lang.rule import ResolvedCost, Rule, RuleContext
from repro.lang.spawn import Spawn, SubInvoke
from repro.runtime.gpu_manager import GpuInvocationRecord
from repro.runtime.gpu_tasks import (
    CopyInPayload,
    CopyOutPayload,
    ExecutePayload,
    PreparePayload,
)
from repro.runtime.payload import PayloadResult
from repro.runtime.task import Task, TaskKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.scheduler import RuntimeState

#: Fixed cost of resolving a selector and dispatching an invocation.
DISPATCH_COST_S = 5.0e-7
#: Per-child task-creation cost.
TASK_CREATE_COST_S = 1.0e-7
#: Base array behind elided-lane composite intermediates.
_ELIDED_ZERO = np.zeros(1)


def make_invocation_task(
    plan: TransformPlan,
    env: Dict[str, np.ndarray],
    params: Mapping[str, float],
    copy_classes: Mapping[str, CopyOutClass],
    size_hint: Optional[int] = None,
) -> Task:
    """Create a (NEW) CPU task that will expand one invocation of
    ``plan``'s transform.  The payload reads ``params`` and
    ``copy_classes`` and never writes them, so callers may share them
    between tasks."""
    return Task(
        plan.task_name,
        TaskKind.CPU,
        InvocationPayload(plan, env, params, copy_classes, size_hint),
    )


def peek_backend(rt: "RuntimeState", transform_name: str, size: int) -> Backend:
    """Predict whether an invocation will run on the GPU.

    Used by the composite scheduler to classify copy-outs before the
    child invocations actually expand.  Composite children count as
    CPU (their own steps re-classify internally).
    """
    plan = rt.plans.transform_plan(transform_name)
    choice = plan.choices[rt.select_index(transform_name, size, plan.num_choices)]
    if not choice.uses_opencl:
        return Backend.CPU
    ratio = rt.config.tunable(plan.gpu_ratio_key, 8)
    return Backend.GPU if ratio > 0 else Backend.CPU


class _LoweredComposite:
    """Config-resolved composite lowering, memoised per run.

    Attributes:
        inter_shapes: ``(name, shape)`` pairs of the scratch matrices.
        step_classes: Per step, the callee-side copy-out classes its
            child invocation receives.
    """

    __slots__ = ("inter_shapes", "step_classes")

    def __init__(
        self,
        inter_shapes: Tuple[Tuple[str, Tuple[int, ...]], ...],
        step_classes: Tuple[Dict[str, CopyOutClass], ...],
    ) -> None:
        self.inter_shapes = inter_shapes
        self.step_classes = step_classes


@dataclass(slots=True)
class InvocationPayload:
    """Expands one transform invocation according to the configuration.

    Attributes:
        plan: Prepared plan of the transform to invoke.
        env: Matrix bindings (host arrays) for the transform.
        params: Parameters passed by the caller (merged with defaults
            at run time; read only).
        copy_classes: Copy-out classification for this invocation's
            outputs, decided by the caller's schedule (read only).
        size_hint: Optional override of the selector's input size.
    """

    plan: TransformPlan
    env: Dict[str, np.ndarray]
    params: Mapping[str, float]
    copy_classes: Mapping[str, CopyOutClass]
    size_hint: Optional[int] = None

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        rt.stats.spawned_invocations += 1
        plan = self.plan
        size = self.size_hint
        if size is None:
            out = self.env.get(plan.first_output)
            if out is None or plan.sized_by_shapes:
                # size_of, or the error naming the unbound output.
                size = plan.transform.default_size(_shapes(self.env))
            else:
                size = prod(out.shape)
        params = plan.params_at(size, self.params)
        config = rt.config
        for tunable_name, default in plan.user_tunables:
            if tunable_name not in params:
                params[tunable_name] = float(config.tunable(tunable_name, default))

        choice = plan.choices[rt.select_index(plan.name, size, plan.num_choices)]

        if choice.is_composite:
            return self._dispatch_composite(rt, plan, choice, params)
        if choice.uses_opencl:
            ratio = config.tunable(plan.gpu_ratio_key, 8)
            if ratio > 0 and rt.gpu is not None:
                return self._dispatch_opencl(rt, plan, choice, params, ratio)
        return self._dispatch_cpu_rule(rt, plan, choice, params, now)

    # ------------------------------------------------------------------
    # CPU rule dispatch
    # ------------------------------------------------------------------

    def _dispatch_cpu_rule(
        self,
        rt: "RuntimeState",
        plan: TransformPlan,
        choice: ChoicePlan,
        params: Dict[str, float],
        now: float,
    ) -> PayloadResult:
        rule = choice.rule
        if rule is None:
            raise RuntimeFault(f"choice {choice.exec_choice.name!r} has no rule")
        if choice.runs_inline:
            return self._run_inline(rt, rule, choice, params, now)

        out = self.env[rule.writes[0]]
        shape = out.shape
        height = shape[0]
        total_items = prod(shape)
        config = rt.config
        seq_cutoff = config.tunable("seq_par_cutoff", 1024)
        split = config.tunable(plan.split_key, rt.worker_count)
        if total_items <= seq_cutoff:
            split = 1
        chunks = row_chunks(height, split)

        cost = choice.cost_for(params)
        env = self.env
        name = plan.name
        children = tuple(
            Task(
                f"{name}[{r0}:{r1}]",
                TaskKind.CPU,
                CpuChunkPayload(
                    rule, env, params, (r0, r1), cost,
                    max(1, total_items * (r1 - r0) // height),
                ),
            )
            for r0, r1 in chunks
        )
        duration = DISPATCH_COST_S + TASK_CREATE_COST_S * len(children)
        return PayloadResult(duration, children)

    def _run_inline(
        self,
        rt: "RuntimeState",
        rule: Rule,
        choice: ChoicePlan,
        params: Dict[str, float],
        now: float,
    ) -> PayloadResult:
        env = self.env
        memory = rt.memory
        lazy_s = 0.0
        if rule.touches_data and memory.has_buffers:
            for name in rule.reads:
                lazy_s += memory.ensure_host(env[name], now)
        out = env[rule.writes[0]]
        numeric = rt.numeric
        ctx = RuleContext(env, params, (0, out.shape[0]), numeric)
        if not numeric and rule.data_independent and not choice.recursive:
            # Elided lane: flagged leaf bodies neither charge nor spawn
            # (their cost comes from the CostSpec below), so the body
            # call is pure array arithmetic — skip it wholesale.
            spawn = None
        else:
            spawn = rule.body(ctx)
        if rule.touches_data and memory.has_buffers:
            for name in rule.writes:
                memory.invalidate_device(env[name])
        flops, mem_bytes, sequential = ctx.charged
        if not choice.recursive:
            # Indivisible leaf rules are costed by their CostSpec (the
            # same model the OpenCL variants use); recursive drivers
            # account their split/combine work via ctx.charge instead.
            cost = choice.cost_for(params)
            items = prod(out.shape)
            flops += items * cost.effective_cpu_flops_per_item
            read_bytes = cost.bytes_read_per_item
            if cost.strided_access:
                read_bytes *= rt.machine.cpu.strided_penalty
            mem_bytes += items * (read_bytes + cost.bytes_written_per_item)
            sequential = sequential or cost.sequential_fraction >= 1.0
        duration = DISPATCH_COST_S + lazy_s + cpu_task_time(
            flops, mem_bytes, rt.machine.cpu, rt.active_workers(), sequential
        )
        if spawn is None:
            return PayloadResult(duration)
        return _spawn_to_result(rt, spawn, env, params, duration)

    # ------------------------------------------------------------------
    # OpenCL dispatch (GPU quartet + optional CPU portion)
    # ------------------------------------------------------------------

    def _dispatch_opencl(
        self,
        rt: "RuntimeState",
        plan: TransformPlan,
        choice: ChoicePlan,
        params: Dict[str, float],
        ratio: int,
    ) -> PayloadResult:
        rule = choice.rule
        kernel = choice.kernel
        assert rule is not None and kernel is not None
        out = self.env[rule.writes[0]]
        shape = out.shape
        height = shape[0]
        total_items = prod(shape)
        ratio = max(0, min(8, ratio))
        gpu_rows = height * ratio // 8 if rule.divisible else height
        if gpu_rows == 0:
            return self._dispatch_cpu_rule(rt, plan, choice, params, 0.0)

        cost = choice.cost_for(params)
        gpu_items = max(1, total_items * gpu_rows // height)
        lws = rt.config.tunable(
            plan.lws_key,
            rt.gpu.device.preferred_local_size if rt.gpu else 128,
        )
        launch = kernel.launch(gpu_items, cost, lws)
        record = GpuInvocationRecord()

        copy_classes = {
            name: self.copy_classes.get(name, CopyOutClass.MUST_COPY_OUT)
            for name in rule.writes
        }

        children: List[Task] = []
        children.append(
            Task(
                name=f"gpu:prepare:{plan.name}",
                kind=TaskKind.GPU,
                payload=PreparePayload(
                    record=record,
                    outputs=tuple(self.env[name] for name in rule.writes),
                ),
            )
        )
        for name in rule.reads:
            children.append(
                Task(
                    name=f"gpu:copyin:{plan.name}:{name}",
                    kind=TaskKind.GPU,
                    payload=CopyInPayload(record=record, host=self.env[name]),
                )
            )
        children.append(
            Task(
                name=f"gpu:execute:{kernel.name}",
                kind=TaskKind.GPU,
                payload=ExecutePayload(
                    record=record,
                    kernel=kernel,
                    launch=launch,
                    cost=cost,
                    env=self.env,
                    rows=(0, gpu_rows),
                    copy_classes=copy_classes,
                    params=params,
                ),
            )
        )
        for name in rule.writes:
            if copy_classes[name] is CopyOutClass.MUST_COPY_OUT:
                children.append(
                    Task(
                        name=f"gpu:copyout:{plan.name}:{name}",
                        kind=TaskKind.GPU,
                        payload=CopyOutPayload(record=record, matrix_name=name),
                    )
                )

        if gpu_rows < height:
            # CPU portion of the work-balanced split: the remaining
            # rows become ordinary work-stealing chunks.
            split = rt.config.tunable(plan.split_key, rt.worker_count)
            cpu_chunks = row_chunks(height - gpu_rows, split)
            for c0, c1 in cpu_chunks:
                r0, r1 = gpu_rows + c0, gpu_rows + c1
                children.append(
                    Task(
                        name=f"{plan.name}[{r0}:{r1}]",
                        kind=TaskKind.CPU,
                        payload=CpuChunkPayload(
                            rule=rule,
                            env=self.env,
                            params=params,
                            rows=(r0, r1),
                            cost=cost,
                            items=max(1, total_items * (r1 - r0) // height),
                        ),
                    )
                )

        duration = DISPATCH_COST_S + TASK_CREATE_COST_S * len(children)
        return PayloadResult(duration, tuple(children))

    # ------------------------------------------------------------------
    # Composite dispatch (steps)
    # ------------------------------------------------------------------

    def _lower_composite(
        self,
        rt: "RuntimeState",
        plan: TransformPlan,
        choice: ChoicePlan,
        params: Dict[str, float],
        shapes: Mapping[str, Tuple[int, ...]],
    ) -> _LoweredComposite:
        """Resolve a composite's copy-out classification for this run.

        Pure with respect to (plan, configuration, shapes, params) —
        the caller memoises the result per run.
        """
        all_shapes = dict(shapes)
        inter_shapes: List[Tuple[str, Tuple[int, ...]]] = []
        for name, shape_fn in choice.intermediates:
            shape = tuple(int(d) for d in shape_fn(all_shapes, params))
            all_shapes[name] = shape
            inter_shapes.append((name, shape))

        producers: List[ScheduledProducer] = []
        for step_plan in choice.steps:
            child_shapes: Dict[str, Tuple[int, ...]] = {}
            for matrix, caller_name in zip(
                step_plan.matrices, step_plan.caller_matrices
            ):
                shape = all_shapes.get(caller_name)
                if shape is None:
                    raise RuntimeFault(
                        f"step into {step_plan.transform_name!r}: caller matrix "
                        f"{caller_name!r} is not bound"
                    )
                child_shapes[matrix] = shape
            child_size = step_plan.callee.default_size(child_shapes)
            producers.append(
                ScheduledProducer(
                    backend=peek_backend(rt, step_plan.transform_name, child_size),
                    produces=step_plan.caller_produces,
                    consumes=step_plan.caller_consumes,
                    dynamic_consumer=step_plan.dynamic_consumer,
                )
            )

        own_classes = {
            name: self.copy_classes.get(name, CopyOutClass.MUST_COPY_OUT)
            for name in plan.outputs
        }
        final_dynamic = any(c is CopyOutClass.MAY_COPY_OUT for c in own_classes.values())
        final_consumer = (
            Backend.GPU
            if own_classes and all(c is CopyOutClass.REUSED for c in own_classes.values())
            else Backend.CPU
        )
        classes = classify_copyouts(
            producers, final_consumer=final_consumer, final_dynamic=final_dynamic
        )

        step_classes: List[Dict[str, CopyOutClass]] = []
        for i, step_plan in enumerate(choice.steps):
            resolved: Dict[str, CopyOutClass] = {}
            if i in classes:
                step_map = classes[i]
                for matrix, caller_name in zip(
                    step_plan.outputs, step_plan.caller_produces
                ):
                    if caller_name in step_map:
                        resolved[matrix] = step_map[caller_name]
            step_classes.append(resolved)
        return _LoweredComposite(tuple(inter_shapes), tuple(step_classes))

    def _dispatch_composite(
        self,
        rt: "RuntimeState",
        plan: TransformPlan,
        choice: ChoicePlan,
        params: Dict[str, float],
    ) -> PayloadResult:
        shapes = _shapes(self.env)
        memo = rt.composite_memo
        key = (
            plan.name,
            tuple(sorted(shapes.items())),
            tuple(sorted(params.items())),
            tuple(sorted(self.copy_classes.items(), key=lambda kv: kv[0])),
        )
        lowered = memo.get(key)
        if lowered is None:
            lowered = self._lower_composite(rt, plan, choice, params, shapes)
            memo[key] = lowered

        env: Dict[str, np.ndarray] = dict(self.env)
        if rt.numeric:
            for name, shape in lowered.inter_shapes:
                env[name] = np.zeros(shape)
        else:
            # Elided lane: intermediates are never physically read or
            # written, so a read-only broadcast stand-in keeps the
            # shape (and the id-keyed buffer bookkeeping) for free.
            for name, shape in lowered.inter_shapes:
                env[name] = np.broadcast_to(_ELIDED_ZERO, shape)

        child_params = {k: v for k, v in params.items() if k != "_size"}
        children: List[Task] = []
        for step_plan, step_classes in zip(choice.steps, lowered.step_classes):
            child_env: Dict[str, np.ndarray] = {}
            for matrix, caller_name in zip(
                step_plan.matrices, step_plan.caller_matrices
            ):
                array = env.get(caller_name)
                if array is None:
                    raise RuntimeFault(
                        f"step into {step_plan.transform_name!r}: caller matrix "
                        f"{caller_name!r} is not bound"
                    )
                child_env[matrix] = array
            cparams = child_params
            if step_plan.param_overrides:
                cparams = dict(child_params)
                cparams.update(step_plan.param_overrides)
            children.append(
                make_invocation_task(
                    rt.plans.transform_plan(step_plan.transform_name),
                    child_env,
                    cparams,
                    step_classes,
                )
            )
        duration = DISPATCH_COST_S + TASK_CREATE_COST_S * len(children)
        return PayloadResult(
            duration=duration,
            children=tuple(children),
            sequential=choice.sequential_steps,
        )


@dataclass(slots=True)
class CpuChunkPayload:
    """One row-range of a data-parallel rule on the CPU backend."""

    rule: Rule
    env: Dict[str, np.ndarray]
    params: Mapping[str, float]
    rows: Tuple[int, int]
    cost: ResolvedCost
    items: int

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        lazy_s = 0.0
        memory = rt.memory
        env = self.env
        if memory.has_buffers:
            for name in self.rule.reads:
                lazy_s += memory.ensure_host(env[name], now)
        numeric = rt.numeric
        ctx = RuleContext(env, self.params, self.rows, numeric)
        if not numeric and self.rule.data_independent:
            # Elided lane: flagged data-parallel bodies never charge,
            # so skipping the body leaves the CostSpec timing below
            # (and every piece of memory bookkeeping) untouched.
            spawn = None
        else:
            spawn = self.rule.body(ctx)
        if spawn is not None:
            raise RuntimeFault(
                f"data-parallel rule {self.rule.name!r} attempted to spawn"
            )
        if memory.has_buffers:
            for name in self.rule.writes:
                memory.invalidate_device(env[name])
        extra_flops, extra_bytes, _ = ctx.charged
        cost = self.cost
        flops = self.items * cost.effective_cpu_flops_per_item + extra_flops
        read_bytes = cost.bytes_read_per_item
        if cost.strided_access:
            read_bytes *= rt.machine.cpu.strided_penalty
        mem_bytes = (
            self.items * (read_bytes + cost.bytes_written_per_item)
            + extra_bytes
        )
        duration = lazy_s + cpu_task_time(
            flops,
            mem_bytes,
            rt.machine.cpu,
            rt.active_workers(),
            cost.sequential_fraction >= 1.0,
        )
        rt.stats.cpu_seconds += duration
        rt.stats.tasks_executed += 1
        return PayloadResult(duration)


@dataclass(slots=True)
class CombinePayload:
    """Continuation body of a recursive rule (runs after its children)."""

    fn: object
    env: Dict[str, np.ndarray]
    params: Mapping[str, float]
    rows: Tuple[int, int]
    ensure_arrays: Tuple[np.ndarray, ...] = ()

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        lazy_s = 0.0
        memory = rt.memory
        if memory.has_buffers:
            for arr in self.ensure_arrays:
                lazy_s += memory.ensure_host(arr, now)
        ctx = RuleContext(self.env, self.params, self.rows, rt.numeric)
        spawn = self.fn(ctx)  # type: ignore[operator]
        flops, mem_bytes, sequential = ctx.charged
        duration = lazy_s + cpu_task_time(
            flops, mem_bytes, rt.machine.cpu, rt.active_workers(), sequential
        )
        rt.stats.cpu_seconds += duration
        rt.stats.tasks_executed += 1
        if spawn is None:
            return PayloadResult(duration)
        return _spawn_to_result(rt, spawn, self.env, self.params, duration)


def _spawn_to_result(
    rt: "RuntimeState",
    spawn: Spawn,
    env: Dict[str, np.ndarray],
    params: Mapping[str, float],
    duration: float,
) -> PayloadResult:
    """Convert a rule body's :class:`Spawn` into scheduler children.

    Children of one spawn usually invoke one transform, so its plan is
    looked up once; each child shares the callee's may-copy-out table.
    The continuation checks the residency of every child's outputs
    before its combine body reads them.
    """
    combine = spawn.combine
    children: List[Task] = []
    ensure: List[np.ndarray] = []
    plan: Optional[TransformPlan] = None
    for sub in spawn.children:
        if not isinstance(sub, SubInvoke):
            raise RuntimeFault("Spawn children must be SubInvoke descriptors")
        if plan is None or plan.name != sub.transform:
            plan = rt.plans.transform_plan(sub.transform)
        children.append(
            Task(
                plan.task_name,
                TaskKind.CPU,
                InvocationPayload(
                    plan, sub.env, sub.params, plan.may_copy_out, sub.size_hint
                ),
            )
        )
        if combine is not None:
            for name in plan.outputs:
                ensure.append(sub.env[name])

    continuation: Optional[Task] = None
    if combine is not None:
        continuation = Task(
            "combine",
            TaskKind.CPU,
            CombinePayload(combine, env, params, (0, 0), tuple(ensure)),
        )
    return PayloadResult(
        duration + TASK_CREATE_COST_S * len(children),
        tuple(children),
        continuation,
        spawn.sequential,
    )


def _shapes(env: Mapping[str, np.ndarray]) -> Dict[str, Tuple[int, ...]]:
    """The shape of every matrix an invocation binds."""
    return {name: arr.shape for name, arr in env.items()}

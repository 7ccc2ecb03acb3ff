"""The four GPU task classes (paper Section 4.2).

For each execution of a GPU kernel the runtime enqueues, in order:

1. one **prepare** task — allocates device buffers, updates metadata;
2. zero or more **copy-in** tasks — one per input, issuing a
   *non-blocking* write and completing immediately after the call;
3. one **execute** task — initiates the asynchronous kernel, starts
   non-blocking reads for *must copy-out* regions, and records *may
   copy-out* regions as pending (lazy) storage;
4. zero or more **copy-out completion** tasks — poll the status of the
   non-blocking reads, re-queueing themselves while the read is still
   in flight.

There are no dependencies *between* these GPU tasks: the management
thread executes one task at a time and FIFO order is sufficient for
correctness.  CPU tasks, however, may depend on copy-out completion
tasks — that is how results re-enter the work-stealing world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.compiler.data_movement import CopyOutClass
from repro.compiler.kernelgen import GeneratedKernel
from repro.errors import RuntimeFault
from repro.hardware.costmodel import KernelLaunch, kernel_time
from repro.lang.rule import ResolvedCost, RuleContext
from repro.runtime.gpu_manager import GpuInvocationRecord
from repro.runtime.payload import PayloadResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.scheduler import RuntimeState

#: Cost of issuing one non-blocking runtime call from the manager.
_CALL_COST_S = 1.0e-6
#: Cost of the dedup residency check that skips a copy-in.
_CHECK_COST_S = 5.0e-7
#: Base cost of a prepare task plus per-new-buffer allocation cost.
_PREPARE_BASE_S = 1.0e-6
_PREPARE_PER_BUFFER_S = 1.5e-6
#: Cost of polling a non-blocking read's status.
_POLL_COST_S = 5.0e-7


@dataclass(slots=True)
class PreparePayload:
    """Allocate device buffers for a kernel's outputs.

    Attributes:
        record: Shared bookkeeping for this kernel execution.
        outputs: Host arrays the kernel will write.
    """

    record: GpuInvocationRecord
    outputs: Tuple[np.ndarray, ...]

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        created = 0
        for host in self.outputs:
            _, was_created = rt.memory.get_or_create(host)
            created += int(was_created)
        rt.stats.gpu_tasks_executed += 1
        return PayloadResult(
            duration=_PREPARE_BASE_S + _PREPARE_PER_BUFFER_S * created
        )


@dataclass(slots=True)
class CopyInPayload:
    """Copy one input to the device (non-blocking, deduplicated).

    The task completes immediately after issuing the write; the
    transfer itself occupies the copy engine and gates the kernel
    start through ``record.inputs_ready``.
    """

    record: GpuInvocationRecord
    host: np.ndarray

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        gpu = rt.gpu
        if gpu is None:
            raise RuntimeFault("copy-in without a GPU device")
        rt.stats.gpu_tasks_executed += 1
        if rt.memory.device_has_current(self.host):
            # Paper Section 4.3: if the data is already on the GPU the
            # manager marks the copy-in complete without executing it.
            rt.memory.copy_in(self.host)  # counts the dedup
            return PayloadResult(_CHECK_COST_S)
        transfer_s = rt.memory.copy_in(self.host)
        start = max(gpu.copy_free_at, now + _CALL_COST_S)
        finish = start + transfer_s
        gpu.copy_free_at = finish
        self.record.inputs_ready = max(self.record.inputs_ready, finish)
        return PayloadResult(_CALL_COST_S)


@dataclass(slots=True)
class ExecutePayload:
    """Launch the kernel asynchronously and start copy-outs.

    Attributes:
        record: Shared bookkeeping for this kernel execution.
        kernel: The generated kernel to run.
        launch: Launch descriptor (work-items, work-group size, ...).
        cost: Cost metadata resolved at the invocation's parameters.
        env: Host arrays keyed by the rule's matrix names.
        rows: Output row range ``[r0, r1)`` computed on the device.
        copy_classes: Copy-out classification per output matrix name.
        params: Transform parameters for the rule body.
    """

    record: GpuInvocationRecord
    kernel: GeneratedKernel
    launch: KernelLaunch
    cost: ResolvedCost
    env: Dict[str, np.ndarray]
    rows: Tuple[int, int]
    copy_classes: Mapping[str, CopyOutClass]
    params: Mapping[str, float]

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        gpu = rt.gpu
        if gpu is None:
            raise RuntimeFault("kernel execution without a GPU device")
        device = gpu.device
        rt.stats.gpu_tasks_executed += 1

        # Runtime JIT compilation (cached across runs, Section 5.4).
        # Compile time is accounted as startup cost — it inflates
        # autotuning time (Figure 8) but is excluded from the measured
        # execution time, matching the paper's methodology — unless the
        # run explicitly asks for it (charge_compile_in_run).
        binary = rt.jit.compile(self.kernel.source, device.name)
        rt.stats.compile_seconds += binary.compile_time_s

        call_s = _CALL_COST_S
        if rt.charge_compile_in_run:
            call_s += binary.compile_time_s
        start = max(now + call_s, self.record.inputs_ready, gpu.compute_free_at)
        kernel_s = kernel_time(self.launch, device)
        kernel_s += (self.cost.kernel_launches - 1) * device.launch_overhead_s
        end = start + kernel_s
        gpu.compute_free_at = end
        rt.stats.kernel_launches += self.cost.kernel_launches
        rt.stats.kernel_seconds += kernel_s

        # Execute the kernel semantics on the device buffers so the
        # numerical results are real.  Elided batched lanes skip the
        # body (flagged kernel rules never charge or spawn) while the
        # compile, launch-timing and copy-out accounting above/below
        # stay byte-identical.
        rule = self.kernel.rule
        if rt.numeric or not rule.data_independent:
            device_env: Dict[str, np.ndarray] = {}
            for name in set(rule.reads) | set(rule.writes):
                buffer, _ = rt.memory.get_or_create(self.env[name])
                device_env[name] = buffer.device
            ctx = RuleContext(
                device_env, self.params, self.rows, numeric=rt.numeric
            )
            result = rule.body(ctx)
            if result is not None:
                raise RuntimeFault(
                    f"kernel rule {rule.name!r} attempted to spawn child tasks"
                )

        reads_started = 0
        for name in rule.writes:
            host = self.env[name]
            rt.memory.record_device_write(host, self.rows, available_at=end)
            copy_class = self.copy_classes.get(name, CopyOutClass.MUST_COPY_OUT)
            if copy_class is CopyOutClass.MUST_COPY_OUT:
                transfer_s = rt.memory.eager_copy_out(host, self.rows)
                read_start = max(gpu.copy_free_at, end)
                finish = read_start + transfer_s
                gpu.copy_free_at = finish
                self.record.read_finish[name] = finish
                reads_started += 1
            # REUSED: stays on the device for the next GPU rule.
            # MAY_COPY_OUT: lazy — pending rows recorded above; a CPU
            # consumer's residency check triggers the copy if needed.
        return PayloadResult(call_s + _CALL_COST_S * reads_started)


@dataclass(slots=True)
class CopyOutPayload:
    """Check the status of one non-blocking read.

    If the read has finished by the time the manager processes the
    task, the task completes (releasing CPU dependents); otherwise it
    asks to be pushed back to the end of the queue.
    """

    record: GpuInvocationRecord
    matrix_name: str

    def run(self, rt: "RuntimeState", now: float) -> PayloadResult:
        finish = self.record.read_finish.get(self.matrix_name)
        if finish is None:
            raise RuntimeFault(
                f"copy-out completion for {self.matrix_name!r} before its "
                "execute task started the read"
            )
        rt.stats.gpu_tasks_executed += 1
        if finish <= now:
            return PayloadResult(_POLL_COST_S)
        rt.stats.copyout_polls += 1
        return PayloadResult(duration=_POLL_COST_S, requeue_at=finish)

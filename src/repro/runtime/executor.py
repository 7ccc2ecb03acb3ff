"""Top-level program execution entry point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.compiler.data_movement import CopyOutClass
from repro.core.configuration import Configuration, DecisionPath
from repro.errors import RuntimeFault
from repro.hardware.opencl import OpenCLRuntimeModel
from repro.runtime.invocation import make_invocation_task
from repro.runtime.scheduler import RuntimeState
from repro.runtime.stats import RunStats


@dataclass
class RunResult:
    """Result of executing a compiled program once.

    Attributes:
        time_s: End-to-end virtual execution time.
        env: The matrix environment (outputs filled in).
        stats: Runtime statistics.
        path: The run's decision path: each question it asked of its
            configuration, with the answer, in first-asked order.  The
            run's result depends on the configuration only through
            these answers.
    """

    time_s: float
    env: Dict[str, np.ndarray]
    stats: RunStats
    path: DecisionPath

    def output(self, name: str) -> np.ndarray:
        """Convenience accessor for one output matrix."""
        return self.env[name]


def run_program(
    compiled: CompiledProgram,
    config: Configuration,
    env: Mapping[str, np.ndarray],
    params: Optional[Mapping[str, float]] = None,
    seed: int = 0,
    jit: Optional[OpenCLRuntimeModel] = None,
    worker_count: Optional[int] = None,
    charge_compile_in_run: bool = False,
    dedup_copy_ins: bool = True,
    numeric: bool = True,
) -> RunResult:
    """Execute a compiled program under a configuration.

    The entry transform's outputs must be preallocated in ``env``; the
    run fills them in place and reports the virtual execution time.
    The runtime reads ``config`` only through a recording
    :class:`~repro.core.configuration.ConfigurationView`, and the
    result carries the decision path it recorded.

    Args:
        compiled: Compiler output for the target machine.
        config: Choice configuration (autotuned or hand-written).
        env: Matrix bindings for the entry transform — every input and
            (preallocated) output.
        params: Parameter overrides for the entry invocation.
        seed: Seed for the scheduler's randomness (victim selection).
        jit: Shared OpenCL JIT model; pass the same object across runs
            to model the warm IR cache of Section 5.4.  Fresh when
            omitted.
        worker_count: Override the machine's worker-thread count
            (Section 6.1 pins it to the processor count; experiments
            use the machine default).
        charge_compile_in_run: Include OpenCL JIT compile time in the
            reported execution time (it is always recorded in
            ``stats.compile_seconds``); off by default to match the
            paper's timing methodology, where kernel compilation is a
            startup cost that inflates autotuning time instead.
        numeric: False to elide the numeric bodies of
            ``data_independent`` rules (every tuning evaluation of a
            qualifying program; see
            :func:`~repro.core.fitness.lane_batchable`): the
            scheduler, cost model and statistics behave identically,
            but output arrays are left untouched.  Only valid for
            programs whose rules are all flagged ``data_independent``.

    Returns:
        A :class:`RunResult`.

    Raises:
        RuntimeFault: On missing bindings or scheduler deadlock.
    """
    entry = compiled.program.entry_transform
    run_env: Dict[str, np.ndarray] = {}
    for name in tuple(entry.inputs) + tuple(entry.outputs):
        if name not in env:
            raise RuntimeFault(
                f"entry transform {entry.name!r} needs matrix {name!r} in env"
            )
        run_env[name] = env[name]

    rt = RuntimeState(
        compiled,
        config,
        seed=seed,
        jit=jit,
        worker_count=worker_count,
        charge_compile_in_run=charge_compile_in_run,
        dedup_copy_ins=dedup_copy_ins,
        numeric=numeric,
    )
    root = make_invocation_task(
        rt.plans.transform_plan(compiled.program.entry),
        run_env,
        dict(params or {}),
        {name: CopyOutClass.MUST_COPY_OUT for name in entry.outputs},
    )
    rt.submit_root(root)
    total = rt.run_to_completion()
    # Final residency check: any output rows still pending on the
    # device (lazy copy-outs deep in the invocation tree) are copied
    # back now — "the copy-out is performed when the data is
    # requested" (paper Section 3.2).
    for name in entry.outputs:
        total += rt.memory.ensure_host(run_env[name], total)
    return RunResult(time_s=total, env=run_env, stats=rt.stats, path=rt.config.path)

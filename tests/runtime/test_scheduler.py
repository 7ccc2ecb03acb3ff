"""Integration tests for the discrete-event scheduler: work stealing,
push rules, determinism and end-to-end execution."""

import numpy as np
import pytest

from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.errors import RuntimeFault
from repro.hardware.machines import DESKTOP, LAPTOP, SERVER
from repro.runtime.executor import run_program
from repro.runtime.scheduler import RuntimeState
from repro.runtime.task import Task, TaskState

from tests.conftest import make_scale_program, make_stencil_program, scale_env


def compile_scale(machine=DESKTOP):
    return compile_program(make_scale_program(3.0), machine)


class TestEndToEnd:
    def test_scale_on_cpu(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        env = scale_env(1000)
        result = run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 3.0 * env["In"][:1000])
        assert result.time_s > 0

    def test_scale_on_opencl(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Scale",
            Selector.constant(
                compiled.transform("Scale").choice_index("direct/opencl")
            ),
        )
        env = scale_env(1000)
        result = run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 3.0 * env["In"][:1000])
        assert result.stats.kernel_launches == 1

    def test_missing_binding_raises(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        with pytest.raises(RuntimeFault):
            run_program(compiled, config, {"In": np.zeros(10)})

    def test_hybrid_ratio_split_correct(self):
        """Part of the output computed on the GPU, the rest on CPU."""
        compiled = compile_scale()
        for ratio in (1, 4, 7):
            config = default_configuration(compiled.training_info)
            config = config.with_selector("Scale", Selector.constant(1))
            config = config.with_tunable("gpu_ratio_Scale", ratio)
            env = scale_env(1000, seed=ratio)
            run_program(compiled, config, env)
            np.testing.assert_allclose(env["Out"], 3.0 * env["In"][:1000])

    def test_ratio_zero_falls_back_to_cpu(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_selector("Scale", Selector.constant(1))
        config = config.with_tunable("gpu_ratio_Scale", 0)
        env = scale_env(100)
        result = run_program(compiled, config, env)
        assert result.stats.kernel_launches == 0
        np.testing.assert_allclose(env["Out"], 3.0 * env["In"][:100])


class TestDeterminism:
    def test_same_seed_same_time(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        times = set()
        for _ in range(3):
            env = scale_env(5000)
            times.add(run_program(compiled, config, env, seed=11).time_s)
        assert len(times) == 1

    def test_different_worker_counts_change_time(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_tunable("split_Scale", 8)
        env1 = scale_env(200_000)
        t1 = run_program(compiled, config, env1, worker_count=1).time_s
        env4 = scale_env(200_000)
        t4 = run_program(compiled, config, env4, worker_count=4).time_s
        assert t4 < t1


class TestWorkStealing:
    def test_steals_happen_with_many_chunks(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_tunable("split_Scale", 64)
        config = config.with_tunable("seq_par_cutoff", 16)
        env = scale_env(100_000)
        result = run_program(compiled, config, env)
        assert result.stats.steals > 0

    def test_single_worker_never_steals(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_tunable("split_Scale", 16)
        env = scale_env(100_000)
        result = run_program(compiled, config, env, worker_count=1)
        assert result.stats.steals == 0

    def test_parallelism_reduces_time(self):
        """More chunks across more workers => shorter virtual time."""
        compiled = compile_scale()
        serial = default_configuration(compiled.training_info)
        serial = serial.with_tunable("split_Scale", 1)
        parallel = default_configuration(compiled.training_info)
        parallel = parallel.with_tunable("split_Scale", 8)
        parallel = parallel.with_tunable("seq_par_cutoff", 16)
        t_serial = run_program(compiled, serial, scale_env(400_000)).time_s
        t_parallel = run_program(compiled, parallel, scale_env(400_000)).time_s
        assert t_parallel < t_serial


class TestSchedulerInvariants:
    def test_deadlock_detected(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        rt = RuntimeState(compiled, config)
        # A task that depends on a never-completed task: the agenda
        # drains with live tasks remaining.
        ghost = Task("ghost")
        ghost.finish_dependency_creation()
        stuck = Task("stuck")
        stuck.depend_on(ghost)
        stuck.finish_dependency_creation()
        rt._live_tasks += 1  # account `stuck` as live
        with pytest.raises(RuntimeFault):
            rt.run_to_completion()

    def test_active_workers_floor_one(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        rt = RuntimeState(compiled, config)
        assert rt.active_workers() == 1

    def test_gpu_state_absent_without_device(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        rt = RuntimeState(compiled, config)
        assert rt.gpu is not None  # Desktop has a GPU


class TestCompileTimeAccounting:
    def test_compile_time_excluded_by_default(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_selector("Scale", Selector.constant(1))
        env = scale_env(1000)
        result = run_program(compiled, config, env)
        assert result.stats.compile_seconds > 1.0
        assert result.time_s < 1.0

    def test_compile_time_charged_when_requested(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_selector("Scale", Selector.constant(1))
        env = scale_env(1000)
        result = run_program(compiled, config, env, charge_compile_in_run=True)
        assert result.time_s > 1.0

    def test_warm_jit_shared_across_runs(self):
        compiled = compile_scale()
        config = default_configuration(compiled.training_info)
        config = config.with_selector("Scale", Selector.constant(1))
        jit = DESKTOP.fresh_jit()
        run_program(compiled, config, scale_env(100), jit=jit)
        before = jit.total_compile_time_s
        run_program(compiled, config, scale_env(100), jit=jit)
        # Second run only pays the (cheaper) architecture JIT phase.
        delta = jit.total_compile_time_s - before
        assert 0 < delta < before

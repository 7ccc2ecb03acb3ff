"""Cold-vs-prepared equivalence of the prepared-plan layer.

The memoised lowering in :mod:`repro.compiler.prepared` (and the
per-run selector/composite memos on ``RuntimeState``) must be
invisible: evaluating one ``CompiledProgram`` under several
configurations and sizes must produce bit-for-bit the same
``RunResult`` as a fresh compile for each run.
"""

import numpy as np
import pytest

from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.compiler.prepared import PreparedPlans, row_chunks
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP, SERVER
from repro.runtime.executor import run_program

#: Small but structurally interesting apps: a composite with OpenCL
#: kernels, a recursive divide-and-conquer, a polyalgorithm with deep
#: spawn recursion, and the red-black composite with intermediates.
APPS = (
    ("SeparableConv.", 96),
    ("Strassen", 64),
    ("Sort", 1024),
    ("Poisson2D SOR", 32),
)


def _variants(training):
    """Configurations that exercise different lowering paths."""
    base = default_configuration(training)
    splitty = base.relabelled("splitty")
    for name in training.tunables:
        if name.startswith("split_"):
            splitty = splitty.with_tunable(name, 7)
        if name == "seq_par_cutoff":
            splitty = splitty.with_tunable(name, 16)
    flipped = base.relabelled("flipped")
    for name, spec in training.selectors.items():
        flipped = flipped.with_selector(
            name, Selector.constant(spec.num_algorithms - 1)
        )
    for name, spec in training.tunables.items():
        if name.startswith("gpu_ratio_"):
            flipped = flipped.with_tunable(name, 5)
    return (base, splitty, flipped)


def _snapshot(result):
    return (
        result.time_s,
        result.stats.as_dict(),
        {name: array.copy() for name, array in result.env.items()},
    )


@pytest.mark.parametrize("app_name,size", APPS, ids=[a for a, _ in APPS])
@pytest.mark.parametrize("machine", (DESKTOP, SERVER), ids=lambda m: m.codename)
def test_prepared_plans_match_fresh_compile(app_name, size, machine):
    spec = benchmark(app_name)
    env_factory = canonical_env_factory(app_name)
    shared = compile_program(spec.build_program(), machine)
    training = shared.training_info

    runs = [(config, s) for config in _variants(training) for s in (size, size // 2)]
    for config, run_size in runs:
        try:
            config.validate(training)
        except Exception:
            continue
        # Prepared path: the shared compiled program accumulates plan
        # caches across every configuration and size in this loop.
        warm = run_program(shared, config, env_factory(run_size))
        # Cold path: a fresh compile whose plans have never run.
        fresh = compile_program(spec.build_program(), machine)
        cold = run_program(fresh, config, env_factory(run_size))

        warm_time, warm_stats, warm_env = _snapshot(warm)
        cold_time, cold_stats, cold_env = _snapshot(cold)
        assert warm_time == cold_time, (config.label, run_size)
        assert warm_stats == cold_stats, (config.label, run_size)
        assert warm_env.keys() == cold_env.keys()
        for name in warm_env:
            assert np.array_equal(warm_env[name], cold_env[name]), (
                config.label,
                run_size,
                name,
            )


class TestPlanCaching:
    def test_plans_cached_on_compiled_program(self):
        compiled = compile_program(
            benchmark("Strassen").build_program(), DESKTOP
        )
        plans = compiled.plans
        assert isinstance(plans, PreparedPlans)
        assert compiled.plans is plans  # lazily built once
        plan = plans.transform_plan(compiled.program.entry)
        assert plans.transform_plan(compiled.program.entry) is plan
        assert plan.num_choices == len(compiled.entry.exec_choices)

    def test_base_params_merge_program_and_transform_defaults(self):
        compiled = compile_program(
            benchmark("Poisson2D SOR").build_program(), DESKTOP
        )
        plan = compiled.plans.transform_plan("SORLoop")
        # Program-wide default merged with the transform's own params.
        assert plan.base_params["iterations"] == pytest.approx(20.0)

    def test_static_costs_resolved_ahead_of_time(self):
        compiled = compile_program(
            benchmark("Tridiagonal Solver").build_program(), DESKTOP
        )
        plan = compiled.plans.transform_plan("TridiagonalSolve")
        by_name = {c.exec_choice.name: c for c in plan.choices}
        # thomas_direct has a constant cost spec: resolved once.
        thomas = next(c for n, c in by_name.items() if "thomas" in n)
        assert thomas.static_cost is not None
        assert thomas.cost_for({}) is thomas.static_cost
        # pcr's cost fields depend on _size: must resolve per call.
        pcr = next(c for n, c in by_name.items() if n.startswith("pcr"))
        assert pcr.static_cost is None
        assert pcr.cost_for({"_size": 4.0}).kernel_launches == 2


class TestRowChunkMemo:
    def test_memoised_result_matches_recomputation(self):
        for height, count in ((1, 1), (7, 3), (100, 8), (33, 64)):
            chunks = row_chunks(height, count)
            assert chunks is row_chunks(height, count)  # memo hit
            edges = [round(i * height / max(1, min(count, height)) )
                     for i in range(max(1, min(count, height)) + 1)]
            expected = tuple(
                (edges[i], edges[i + 1])
                for i in range(len(edges) - 1)
                if edges[i] < edges[i + 1]
            )
            assert chunks == expected

"""Integration tests for the evolutionary autotuner."""

import pytest

from repro.api import tune_program
from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.fitness import Evaluator
from repro.core.population import Candidate, Population
from repro.core.search import EvolutionaryTuner
from repro.errors import TuningError
from repro.hardware.machines import DESKTOP, SERVER

from tests.conftest import make_stencil_program, scale_env


@pytest.fixture(scope="module")
def compiled():
    return compile_program(make_stencil_program(5), DESKTOP)


def env_factory(n):
    return scale_env(n, seed=1)


class TestPopulation:
    def test_capacity_positive(self):
        with pytest.raises(TuningError):
            Population(0)

    def test_best_of_empty_rejected(self):
        with pytest.raises(TuningError):
            Population(3).best(10)

    def test_prune_keeps_fastest(self):
        population = Population(2)
        for time in (3.0, 1.0, 2.0):
            candidate = Candidate(config=None)  # type: ignore[arg-type]
            candidate.times[10] = time
            population.add(candidate)
        population.prune(10)
        assert len(population) == 2
        assert population.best(10).times[10] == 1.0

    def test_unevaluated_candidates_rank_last(self):
        population = Population(1)
        fast = Candidate(config=None)  # type: ignore[arg-type]
        fast.times[10] = 1.0
        population.add(fast)
        population.add(Candidate(config=None))  # type: ignore[arg-type]
        population.prune(10)
        assert population.best(10) is fast


class TestEvaluator:
    def test_results_cached(self, compiled):
        evaluator = Evaluator(compiled, env_factory)
        first = evaluator.evaluate(
            default_configuration(compiled.training_info), 256
        )
        count = evaluator.evaluations
        second = evaluator.evaluate(
            default_configuration(compiled.training_info), 256
        )
        assert evaluator.evaluations == count
        assert first.time_s == second.time_s

    def test_tuning_time_accumulates_compiles(self, compiled):
        evaluator = Evaluator(compiled, env_factory)
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Stencil", config.selectors["Stencil"].with_algorithm(0, 1)
        )
        evaluator.evaluate(config, 256)
        # OpenCL kernel compiles dominate small tests (Section 5.4).
        assert evaluator.tuning_time_s > 1.0

    def test_accuracy_gate(self, compiled):
        evaluator = Evaluator(
            compiled, env_factory,
            accuracy_fn=lambda env: 1.0,
            accuracy_target=0.5,
        )
        result = evaluator.evaluate(
            default_configuration(compiled.training_info), 128
        )
        assert not result.feasible


class TestTuner:
    def test_improves_on_default(self, compiled):
        evaluator = Evaluator(compiled, env_factory)
        default_time = evaluator.evaluate(
            default_configuration(compiled.training_info), 200_000
        ).time_s
        report = tune_program(compiled, env_factory, max_size=200_000, seed=5)
        assert report.best_time_s <= default_time

    def test_deterministic(self, compiled):
        a = tune_program(compiled, env_factory, max_size=50_000, seed=9)
        b = tune_program(compiled, env_factory, max_size=50_000, seed=9)
        assert a.best.to_json() == b.best.to_json()
        assert a.best_time_s == b.best_time_s

    def test_sizes_grow_to_max(self, compiled):
        tuner = EvolutionaryTuner(compiled, env_factory, max_size=100_000, seed=0)
        sizes = tuner.sizes
        assert sizes[-1] == 100_000
        assert sizes == sorted(sizes)

    def test_small_sizes_skipped_for_opencl(self, compiled):
        """Section 5.4: skip extremely small inputs when kernels must
        be JIT compiled."""
        tuner = EvolutionaryTuner(
            compiled, env_factory, max_size=2**20, min_size=2,
            skip_small_sizes_for_opencl=True,
        )
        assert min(tuner.sizes) >= 2**20 // 64

    def test_min_size_at_max_size_yields_single_final_size(self, compiled):
        """min_size == max_size must not duplicate the final size."""
        tuner = EvolutionaryTuner(
            compiled, env_factory, max_size=4096, min_size=4096,
            skip_small_sizes_for_opencl=False,
        )
        assert tuner.sizes == [4096]

    def test_min_size_above_max_size_yields_single_final_size(self, compiled):
        """min_size > max_size collapses the ramp (no duplicates, no
        sizes beyond max_size)."""
        tuner = EvolutionaryTuner(
            compiled, env_factory, max_size=1024, min_size=999_999,
            skip_small_sizes_for_opencl=False,
        )
        assert tuner.sizes == [1024]

    def test_sizes_never_contain_duplicates(self, compiled):
        for min_size, max_size in ((64, 64), (64, 65), (1024, 64), (1, 4096)):
            tuner = EvolutionaryTuner(
                compiled, env_factory, max_size=max_size, min_size=min_size,
                skip_small_sizes_for_opencl=False,
            )
            assert len(tuner.sizes) == len(set(tuner.sizes)), (
                f"duplicate sizes for min={min_size} max={max_size}: "
                f"{tuner.sizes}"
            )

    def test_growth_of_one_rejected(self, compiled):
        """growth == 1 used to loop forever; it must be a TuningError."""
        with pytest.raises(TuningError):
            EvolutionaryTuner(
                compiled, env_factory, max_size=1024, size_growth=1
            )
        with pytest.raises(TuningError):
            EvolutionaryTuner(
                compiled, env_factory, max_size=1024, size_growth=0
            )

    def test_tuning_still_works_at_degenerate_single_size(self, compiled):
        report = tune_program(
            compiled, env_factory, max_size=2048, min_size=2048, seed=3,
            skip_small_sizes_for_opencl=False,
        )
        assert report.sizes == [2048]
        assert len(report.history) == 1

    def test_label_applied(self, compiled):
        report = tune_program(compiled, env_factory, max_size=10_000, seed=1,
                              label="Desktop Config")
        assert report.best.label == "Desktop Config"

    def test_finds_the_gpu_for_compute_heavy_stencil(self, compiled):
        """On Desktop, the stencil's best backend is OpenCL; the seeded
        population must discover it at the final size."""
        report = tune_program(compiled, env_factory, max_size=400_000, seed=2)
        index = report.best.select_index("Stencil", 400_000)
        choice = compiled.transform("Stencil").exec_choices[
            min(index, compiled.transform("Stencil").num_choices - 1)
        ]
        assert choice.uses_opencl

    def test_tuning_report_counts(self, compiled):
        report = tune_program(compiled, env_factory, max_size=20_000, seed=0)
        assert report.evaluations > 0
        assert report.tuning_time_s > 0
        assert len(report.history) == len(report.sizes)

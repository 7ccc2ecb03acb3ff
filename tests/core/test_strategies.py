"""Tests for the pluggable search strategies and their registry."""

from __future__ import annotations

import pytest

from repro.api import tune_program
from repro.api.config import TunerConfig
from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner, TuningReport
from repro.core.strategies import (
    STRATEGIES,
    SearchStrategy,
    create_strategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
)
from repro.errors import ConfigError, TuningError
from repro.hardware.machines import DESKTOP

from tests.conftest import make_stencil_program, scale_env

ALL_STRATEGIES = tuple(strategy_names())


def env_factory(n):
    return scale_env(n, seed=1)


def tune_stencil(strategy, seed=7, workers=1, backend="serial", max_size=50_000):
    compiled = compile_program(make_stencil_program(5), DESKTOP)
    return tune_program(
        compiled,
        env_factory,
        max_size=max_size,
        seed=seed,
        config=TunerConfig.resolve(
            strategy=strategy, workers=workers, backend=backend, resume=False
        ),
        result_cache=ResultCache(None),
    )


def report_key(report: TuningReport):
    return (
        report.best.to_json(),
        report.best_time_s,
        report.tuning_time_s,
        report.evaluations,
        report.sizes,
        report.history,
        report.strategy,
        report.seed,
    )


class TestRegistry:
    def test_four_strategies_ship_builtin(self):
        assert set(ALL_STRATEGIES) >= {
            "evolutionary", "hillclimb", "random", "bandit",
        }
        assert ALL_STRATEGIES[0] == "evolutionary"  # the default leads

    def test_resolve_explicit_and_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNER_STRATEGY", raising=False)
        assert resolve_strategy(None) == "evolutionary"
        assert resolve_strategy("HillClimb ") == "hillclimb"
        with pytest.raises(TuningError, match="unknown search strategy"):
            resolve_strategy("simulated-annealing")

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNER_STRATEGY", "bandit")
        assert TunerConfig.resolve().strategy == "bandit"
        # The registry itself never reads the environment.
        assert resolve_strategy(None) == "evolutionary"
        monkeypatch.setenv("REPRO_TUNER_STRATEGY", "nonsense")
        with pytest.raises(ConfigError, match="REPRO_TUNER_STRATEGY"):
            TunerConfig.resolve()

    def test_register_strategy_plugs_in(self):
        class Custom(STRATEGIES["hillclimb"]):
            name = "custom-test"

        try:
            register_strategy(Custom)
            assert resolve_strategy("custom-test") == "custom-test"
            assert "custom-test" in strategy_names()
        finally:
            STRATEGIES.pop("custom-test", None)

    def test_a_strategy_implements_five_members(self):
        """Propose, observe and report: a strategy never serialises
        its state, because a killed session reruns from the log."""
        assert SearchStrategy.__abstractmethods__ == {
            "propose", "observe", "finished", "history", "result",
        }

    def test_register_requires_a_name(self):
        class Nameless(SearchStrategy):  # type: ignore[abstract]
            name = "abstract"

        with pytest.raises(TuningError, match="registry name"):
            register_strategy(Nameless)

    def test_tuner_reads_strategy_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNER_STRATEGY", "random")
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        with EvolutionaryTuner(
            compiled, env_factory, max_size=1024,
            config=TunerConfig.resolve(resume=False),
            result_cache=ResultCache(None),
        ) as tuner:
            assert tuner.strategy_name == "random"


class TestAllStrategies:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_deterministic_per_seed(self, strategy):
        a = tune_stencil(strategy, seed=7)
        b = tune_stencil(strategy, seed=7)
        assert report_key(a) == report_key(b)
        assert a.strategy == strategy
        assert a.seed == 7

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_backend_and_depth_invariant(self, strategy):
        """Speculation depth and backend must never change a report —
        the strategy subsystem's core promise."""
        serial = tune_stencil(strategy, seed=7)
        deep = tune_stencil(strategy, seed=7, workers=4, backend="thread")
        assert report_key(deep) == report_key(serial)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_produces_a_competitive_configuration(self, strategy):
        """Every strategy must at least beat the untuned default."""
        from repro.core.configuration import default_configuration
        from repro.core.fitness import Evaluator

        compiled = compile_program(make_stencil_program(5), DESKTOP)
        evaluator = Evaluator(
            compiled, env_factory, result_cache=ResultCache(None)
        )
        default_time = evaluator.evaluate(
            default_configuration(compiled.training_info), 200_000
        ).time_s
        report = tune_stencil(strategy, seed=5, max_size=200_000)
        assert report.best_time_s <= default_time
        assert len(report.history) == len(report.sizes)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_report_carries_provenance(self, strategy):
        report = tune_stencil(strategy, seed=7, max_size=2048)
        assert report.strategy == strategy
        assert report.seed == 7
        assert report.best.label  # labelled by the driver


class TestStrategyBehaviour:
    def test_hillclimb_keeps_a_single_incumbent(self):
        from repro.core.strategies import create_strategy

        compiled = compile_program(make_stencil_program(5), DESKTOP)
        with EvolutionaryTuner(
            compiled, env_factory, max_size=2048, seed=3,
            config=TunerConfig.resolve(strategy="hillclimb", resume=False),
            result_cache=ResultCache(None),
        ) as tuner:
            tuner.tune()
            strategy = tuner._driver.strategy
            assert len(strategy._population.members) == 1

    def test_bandit_accumulates_pulls_and_rewards(self):
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        with EvolutionaryTuner(
            compiled, env_factory, max_size=50_000, seed=3,
            config=TunerConfig.resolve(strategy="bandit", resume=False),
            result_cache=ResultCache(None),
        ) as tuner:
            tuner.tune()
            strategy = tuner._driver.strategy
            assert sum(strategy._pulls) > 0
            # Rewards only ever come from admissions, and every arm's
            # mean reward is a probability.
            assert all(
                r <= p for r, p in zip(strategy._rewards, strategy._pulls)
            )

    def test_random_samples_respect_the_search_space(self):
        from repro.core.strategies import SearchPlan, create_strategy

        compiled = compile_program(make_stencil_program(5), DESKTOP)
        with EvolutionaryTuner(
            compiled, env_factory, max_size=2048, seed=3,
            config=TunerConfig.resolve(strategy="random", resume=False),
            result_cache=ResultCache(None),
        ) as tuner:
            strategy = tuner._driver.strategy
            training = compiled.training_info
            for _ in range(50):
                sample = strategy._sample()
                sample.validate(training)  # must never raise

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_seed_population_shares_the_plan_seeds(self, strategy):
        """Seeds are immutable, so every call hands out the plan's own
        instances (each keys itself once per session), never copies."""
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        with EvolutionaryTuner(
            compiled, env_factory, max_size=2048, seed=3,
            config=TunerConfig.resolve(strategy=strategy, resume=False),
            result_cache=ResultCache(None),
        ) as tuner:
            strategy_object = tuner._driver.strategy
            seeds = tuner._plan.seeds
            for _ in range(2):
                population = strategy_object.seed_population()
                assert len(population) == len(seeds)
                assert all(a is b for a, b in zip(population, seeds))

    def test_unknown_strategy_raises_at_construction(self):
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        with pytest.raises(TuningError, match="unknown search strategy"):
            EvolutionaryTuner(
                compiled, env_factory, max_size=1024,
                config=TunerConfig.resolve(strategy="annealing"),
                result_cache=ResultCache(None),
            )

"""Unit tests for the autotuner's mutation operators (paper 5.2)."""

import random

import pytest

from repro.compiler.compile import compile_program
from repro.compiler.training_info import SelectorSpec, TunableSpec
from repro.core.configuration import default_configuration
from repro.core.mutators import (
    SelectorAddLevel,
    SelectorChangeAlgorithm,
    SelectorRemoveLevel,
    SelectorScaleCutoff,
    TunableMutator,
    mutators_for,
)
from repro.core.selector import Selector
from repro.errors import ConfigurationError
from repro.hardware.machines import DESKTOP

from tests.conftest import make_stencil_program


@pytest.fixture
def training():
    return compile_program(make_stencil_program(5), DESKTOP).training_info


@pytest.fixture
def config(training):
    return default_configuration(training)


def rng(seed=0):
    return random.Random(seed)


SPEC = SelectorSpec(name="Stencil", num_algorithms=3)


class TestSelectorMutators:
    def test_add_level_increases_levels(self, config):
        mutator = SelectorAddLevel(SPEC)
        child = mutator.mutate(config, rng(), current_size=1000)
        assert child is not None
        assert child.selectors["Stencil"].levels == 2
        # Parent untouched.
        assert config.selectors["Stencil"].levels == 1

    def test_add_level_respects_max(self, config):
        mutator = SelectorAddLevel(SelectorSpec(name="Stencil", num_algorithms=3,
                                                max_levels=1))
        assert mutator.mutate(config, rng(), 100) is None

    def test_remove_level_needs_cutoffs(self, config):
        mutator = SelectorRemoveLevel(SPEC)
        assert mutator.mutate(config, rng(), 100) is None
        config = config.with_selector(
            "Stencil", Selector(cutoffs=(10,), algorithms=(0, 1))
        )
        child = mutator.mutate(config, rng(), 100)
        assert child.selectors["Stencil"].levels == 1

    def test_change_algorithm_always_changes(self, config):
        mutator = SelectorChangeAlgorithm(SPEC)
        for seed in range(20):
            child = mutator.mutate(config, rng(seed), 100)
            assert child.selectors["Stencil"] != config.selectors["Stencil"]

    def test_change_algorithm_needs_choices(self, config):
        mutator = SelectorChangeAlgorithm(
            SelectorSpec(name="Stencil", num_algorithms=1)
        )
        assert mutator.mutate(config, rng(), 100) is None

    def test_scale_cutoff(self, config):
        config = config.with_selector(
            "Stencil", Selector(cutoffs=(64,), algorithms=(0, 1))
        )
        mutator = SelectorScaleCutoff(SPEC)
        moved = 0
        for seed in range(10):
            child = mutator.mutate(config, rng(seed), 100)
            if child is not None:
                assert child.selectors["Stencil"].cutoffs != (64,)
                moved += 1
        assert moved > 0


class TestTunableMutators:
    def test_lognormal_stays_in_bounds(self, config):
        spec = TunableSpec(name="lws_Stencil", lo=1, hi=1024, default=256)
        mutator = TunableMutator(spec)
        for seed in range(50):
            child = mutator.mutate(config, rng(seed), 100)
            if child is None:
                continue
            assert spec.lo <= child.tunables["lws_Stencil"] <= spec.hi

    def test_uniform_stays_in_bounds(self, config):
        spec = TunableSpec(name="gpu_ratio_Stencil", lo=0, hi=8, default=8,
                           scale="uniform")
        mutator = TunableMutator(spec)
        values = set()
        for seed in range(60):
            child = mutator.mutate(config, rng(seed), 100)
            if child is not None:
                values.add(child.tunables["gpu_ratio_Stencil"])
        assert values  # something changed
        assert all(0 <= v <= 8 for v in values)
        # Single-step neighbourhood moves must appear.
        assert 7 in values

    def test_mutation_changes_value_or_aborts(self, config):
        spec = TunableSpec(name="seq_par_cutoff", lo=16, hi=2**20, default=1024)
        mutator = TunableMutator(spec)
        for seed in range(20):
            child = mutator.mutate(config, rng(seed), 100)
            if child is not None:
                assert child.tunables["seq_par_cutoff"] != 1024


class TestMutatorGeneration:
    def test_generated_from_training_info(self, training):
        mutators = mutators_for(training)
        kinds = {type(m).__name__ for m in mutators}
        assert "SelectorAddLevel" in kinds
        assert "SelectorChangeAlgorithm" in kinds
        assert "TunableMutator" in kinds

    def test_single_algorithm_selectors_skipped(self, training):
        mutators = mutators_for(training)
        # Stencil has 3 algorithms -> 4 selector mutators; no other
        # transform exists, so all selector mutators target Stencil.
        selector_mutators = [m for m in mutators if hasattr(m, "spec")
                             and isinstance(m.spec, SelectorSpec)]
        assert all(m.spec.name == "Stencil" for m in selector_mutators)

    def test_children_validate(self, training, config):
        mutators = mutators_for(training)
        generator = rng(7)
        for _ in range(200):
            mutator = generator.choice(mutators)
            child = mutator.mutate(config, generator, current_size=4096)
            if child is not None:
                child.validate(training)  # must never be illegal

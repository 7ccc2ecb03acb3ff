"""Mutation operators for the evolutionary autotuner (paper 5.2).

The set of mutator functions is program-specific and generated fully
automatically from the compiler's static analysis (the training
information):

* *selector manipulation* mutators add, remove or change a level in a
  specific selector;
* *tunable manipulation* mutators randomly change a tunable value —
  size-like values are scaled by a lognormal factor (small changes more
  likely than large ones; halving as likely as doubling), categorical
  values are redrawn uniformly.

Every mutator is asexual: one parent configuration in, one child out.
A mutator may return ``None`` when no legal mutation exists (e.g.
removing a level from a constant selector).
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional

from repro.compiler.training_info import SelectorSpec, TrainingInfo, TunableSpec
from repro.core.configuration import Configuration
from repro.core.selector import Selector
from repro.errors import ConfigurationError


class Mutator(abc.ABC):
    """Base class: creates a child configuration from a parent."""

    @abc.abstractmethod
    def mutate(
        self, parent: Configuration, rng: random.Random, current_size: int
    ) -> Optional[Configuration]:
        """Produce a mutated child of ``parent`` (or None if impossible).

        Args:
            parent: Configuration to derive from (immutable; the child
                is built with its ``with_*`` builders).
            rng: Seeded randomness source.
            current_size: Input size the tuner is currently testing;
                size-like mutations centre around it (paper: synthetic
                function manipulation applies changes "based on the
                current input size being tested").
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {getattr(self, 'name', '')}>"


def _lognormal_scale(value: int, rng: random.Random) -> int:
    """Scale a positive integer by 2**N(0,1) (paper Section 5.2)."""
    scaled = int(round(max(1, value) * 2.0 ** rng.gauss(0.0, 1.0)))
    return max(1, scaled)


class SelectorAddLevel(Mutator):
    """Insert a new (cutoff, algorithm) level into one selector."""

    def __init__(self, spec: SelectorSpec) -> None:
        self.name = spec.name
        self.spec = spec

    def mutate(
        self, parent: Configuration, rng: random.Random, current_size: int
    ) -> Optional[Configuration]:
        selector = parent.selectors.get(self.name, Selector.constant(0))
        if selector.levels >= self.spec.max_levels:
            return None
        cutoff = min(
            self.spec.max_input_size, _lognormal_scale(max(2, current_size), rng)
        )
        if cutoff in selector.cutoffs:
            return None
        algorithm = rng.randrange(self.spec.num_algorithms)
        return parent.with_selector(
            self.name, selector.with_level_added(cutoff, algorithm)
        )


class SelectorRemoveLevel(Mutator):
    """Remove one level from one selector (ranges merge)."""

    def __init__(self, spec: SelectorSpec) -> None:
        self.name = spec.name
        self.spec = spec

    def mutate(
        self, parent: Configuration, rng: random.Random, current_size: int
    ) -> Optional[Configuration]:
        selector = parent.selectors.get(self.name)
        if selector is None or not selector.cutoffs:
            return None
        level = rng.randrange(len(selector.cutoffs))
        return parent.with_selector(self.name, selector.with_level_removed(level))


class SelectorChangeAlgorithm(Mutator):
    """Redraw the algorithm of one selector level uniformly."""

    def __init__(self, spec: SelectorSpec) -> None:
        self.name = spec.name
        self.spec = spec

    def mutate(
        self, parent: Configuration, rng: random.Random, current_size: int
    ) -> Optional[Configuration]:
        if self.spec.num_algorithms < 2:
            return None
        selector = parent.selectors.get(self.name, Selector.constant(0))
        level = rng.randrange(selector.levels)
        algorithm = rng.randrange(self.spec.num_algorithms)
        if algorithm == selector.algorithms[level]:
            algorithm = (algorithm + 1) % self.spec.num_algorithms
        return parent.with_selector(
            self.name, selector.with_algorithm(level, algorithm)
        )


class SelectorScaleCutoff(Mutator):
    """Move one selector cutoff by a lognormal factor."""

    def __init__(self, spec: SelectorSpec) -> None:
        self.name = spec.name
        self.spec = spec

    def mutate(
        self, parent: Configuration, rng: random.Random, current_size: int
    ) -> Optional[Configuration]:
        selector = parent.selectors.get(self.name)
        if selector is None or not selector.cutoffs:
            return None
        level = rng.randrange(len(selector.cutoffs))
        new_cutoff = min(
            self.spec.max_input_size,
            _lognormal_scale(selector.cutoffs[level], rng),
        )
        mutated = selector.with_cutoff_scaled(level, new_cutoff)
        if mutated.cutoffs == selector.cutoffs:
            return None
        return parent.with_selector(self.name, mutated)


class TunableMutator(Mutator):
    """Randomly change one tunable value.

    Lognormal-scaled for size-like tunables; uniform redraw for small
    categorical ranges (e.g. the 0..8 GPU/CPU ratio).
    """

    def __init__(self, spec: TunableSpec) -> None:
        self.name = spec.name
        self.spec = spec

    def mutate(
        self, parent: Configuration, rng: random.Random, current_size: int
    ) -> Optional[Configuration]:
        current = parent.tunable(self.name, self.spec.default)
        if self.spec.scale == "lognormal":
            value = self.spec.clamp(_lognormal_scale(current, rng))
        elif rng.random() < 0.5:
            # Small changes are more likely than large ones: half the
            # time take a single step through the ordered range (the
            # GPU/CPU ratio moves in 1/8 increments).
            step = rng.choice((-1, 1))
            value = self.spec.clamp(current + step)
        else:
            value = rng.randint(self.spec.lo, self.spec.hi)
        if value == current:
            return None
        return parent.with_tunable(self.name, value)


def mutators_for(training: TrainingInfo) -> List[Mutator]:
    """Generate the program-specific mutator set from training info.

    Selector mutators are only created for transforms with more than
    one algorithm (a single-choice selector has nothing to mutate
    besides its — meaningless — cutoffs).
    """
    mutators: List[Mutator] = []
    for spec in training.selectors.values():
        if spec.num_algorithms > 1:
            mutators.append(SelectorAddLevel(spec))
            mutators.append(SelectorRemoveLevel(spec))
            mutators.append(SelectorChangeAlgorithm(spec))
            mutators.append(SelectorScaleCutoff(spec))
    for spec in training.tunables.values():
        if spec.cardinality > 1:
            mutators.append(TunableMutator(spec))
    if not mutators:
        raise ConfigurationError(
            f"program {training.program_name!r} has no mutable parameters"
        )
    return mutators

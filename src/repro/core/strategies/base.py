"""The search-strategy protocol spoken by the tuning driver.

A strategy is a *proposal generator*: the driver repeatedly asks it for
the next candidate evaluations (:meth:`SearchStrategy.propose`), fans
them out to the evaluation backend speculatively, and feeds the results
back in the exact order they were proposed
(:meth:`SearchStrategy.observe`).  Because observations arrive in
proposal order — the ordered-commit layer of :mod:`repro.core.fitness`
— a strategy's decision sequence is a pure function of its seed, no
matter which backend ran the simulations or how many proposals were in
flight at once.

Speculation contract
====================

``propose`` may be called again before earlier proposals have been
observed; everything it returns is *speculative* until observed.  When
an observation changes the strategy's internal state in a way that
invalidates the not-yet-observed tail (e.g. the evolutionary strategy
admitting a child, which changes the parent pool later draws should
have seen), ``observe`` returns ``True``; the driver then discards the
tail and asks for fresh proposals.  Strategies that rewind their RNG to
the checkpoint stored with the observed proposal keep their decision
sequence bit-for-bit identical to a fully serial driver — see
:class:`~repro.core.strategies.evolutionary.EvolutionaryStrategy`.

Plugging in a new strategy
==========================

Subclass :class:`SearchStrategy`, implement the five abstract members,
and register the class in
:data:`repro.core.strategies.STRATEGIES` (or call
:func:`repro.core.strategies.register_strategy`).  The constructor
receives a :class:`SearchPlan`; everything else — backends, caching,
stored reports, progress reporting — is the driver's job.  A strategy
never serialises its state: a killed session resumes by running again
from its start, its evaluations served by the evaluation log, so a
strategy only has to be deterministic in its seed.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.training_info import TrainingInfo
from repro.core.configuration import Configuration, default_configuration
from repro.core.fitness import Evaluation
from repro.core.mutators import Mutator
from repro.core.population import Candidate
from repro.core.selector import Selector
from repro.errors import TuningError


@dataclass(frozen=True)
class Proposal:
    """One candidate evaluation requested by a strategy.

    Attributes:
        config: Candidate configuration to evaluate.
        size: Test input size to evaluate at.
        slots: Search-budget slots this proposal consumes when it is
            observed (a strategy drawing from a generation budget folds
            sterile draws — mutators that produced no legal child —
            into the next real proposal).
        token: Strategy-private payload carried back into ``observe``
            (parent candidate, RNG checkpoint, phase tag, ...).  Opaque
            to the driver.
    """

    config: Configuration
    size: int
    slots: int = 1
    token: object = None


@dataclass
class StrategyResult:
    """What a finished strategy hands back to the driver.

    Attributes:
        best: The winning candidate (its config is unlabelled; the
            driver applies the session label).
        best_time_s: The winner's virtual time at the final size.
        history: Best time per completed search round, in order.
    """

    best: Candidate
    best_time_s: float
    history: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class SearchPlan:
    """Everything a strategy needs to know about one tuning session.

    Built once by the tuner/driver from the compiled program; strategies
    must treat it as read-only.

    Attributes:
        training: The compiler's training information (search space).
        mutators: Program-specific mutator set.
        seeds: Initial candidate configurations (the default plus one
            constant selector per algorithm).
        sizes: Exponentially growing test sizes, ending at ``max_size``.
        max_size: Final (testing) input size.
        kernel_count: Number of OpenCL kernels in the program (drives
            the Section 5.4 small-size mitigation).
        population_size: Population capacity for population strategies.
        generations: Base mutation budget per input size.
        seed: Randomness seed; the whole search is deterministic in it.
        warm_start: Provenance of the warm-start donor when the tuner
            injected a prior report's best configurations into
            ``seeds`` (incremental re-tuning); ``None`` for cold
            sessions.  Carried into the report and the checkpoint
            identity — warm and cold sessions never share checkpoints.
    """

    training: TrainingInfo
    mutators: Tuple[Mutator, ...]
    seeds: Tuple[Configuration, ...]
    sizes: Tuple[int, ...]
    max_size: int
    kernel_count: int
    population_size: int
    generations: int
    seed: int
    warm_start: Optional[Dict[str, object]] = None

    def generations_at(self, size: int) -> int:
        """Mutation budget at one size (Section 5.4 scaling).

        Fewer tests at very small sizes when kernels must be JIT
        compiled; extra effort at the final (testing) size, where
        fine-grained tunables pay off.
        """
        generations = self.generations
        if size < self.max_size // 16 and self.kernel_count > 0:
            return max(2, generations // 2)
        if size == self.max_size:
            return generations * 2
        return generations


def seed_configurations(training: TrainingInfo) -> List[Configuration]:
    """Initial population: the default plus one constant-selector
    configuration per (transform, algorithm).

    The paper's tuner runs large numbers of tests on small inputs to
    quickly explore the choice space; seeding every algorithm
    guarantees that coverage before mutation refines cutoffs and
    tunables.
    """
    default = default_configuration(training)
    seeds = [default]
    for name, spec in sorted(training.selectors.items()):
        for algorithm in range(1, spec.num_algorithms):
            seeds.append(default.with_selector(name, Selector.constant(algorithm)))
    return seeds


def fitness_time(evaluation: Evaluation) -> float:
    """Fitness of one evaluation (infinity when infeasible)."""
    return evaluation.time_s if evaluation.feasible else float("inf")


class SearchStrategy(abc.ABC):
    """Abstract search strategy driven by a
    :class:`~repro.core.driver.TuningDriver`.

    Attributes:
        name: Registry name (``"evolutionary"``, ``"hillclimb"``, ...).
    """

    name: str = "abstract"

    def __init__(self, plan: SearchPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)

    def seed_population(self) -> List[Configuration]:
        """The configurations that found (or re-found) the population.

        The default is the plan's seed list — the compiler-derived
        defaults plus any warm-start configurations the tuner injected
        from a prior report (incremental re-tuning).  Population
        strategies call this whenever they (re)build their member set,
        so a subclass can reorder, filter or augment the initial
        candidates without re-implementing size bookkeeping.  Returned
        configurations are the plan's own immutable seeds, shared by
        every call, so each keys itself once per session.
        """
        return list(self.plan.seeds)

    @abc.abstractmethod
    def propose(self, k: int) -> List[Proposal]:
        """Up to ``k`` next candidate evaluations, in commit order.

        May return fewer (or none) when the strategy needs pending
        observations before it can decide what to try next; the driver
        keeps committing outstanding proposals and asks again.  Must
        return at least one proposal when the strategy is not
        :attr:`finished` and has no outstanding proposals (otherwise
        the driver reports a stall).
        """

    @abc.abstractmethod
    def observe(self, proposal: Proposal, evaluation: Evaluation) -> bool:
        """Absorb one committed result (in proposal order).

        Returns:
            True when every proposal handed out after this one is
            invalidated — the driver discards them (dropping their
            speculative evaluations) and calls :meth:`propose` afresh.
        """

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """Whether the search is complete (result available)."""

    @property
    @abc.abstractmethod
    def history(self) -> List[float]:
        """Best time per completed search round so far (grows as the
        search progresses; the driver reports a progress line whenever
        a round completes)."""

    @abc.abstractmethod
    def result(self) -> StrategyResult:
        """The search outcome.

        Raises:
            TuningError: When called before :attr:`finished`.
        """

    # -- shared helpers ------------------------------------------------

    def _require_finished(self) -> None:
        if not self.finished:
            raise TuningError(
                f"strategy {self.name!r} asked for its result before finishing"
            )

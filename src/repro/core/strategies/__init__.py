"""Pluggable search strategies for the autotuner.

The tuning loop lives in :mod:`repro.core.driver`; what to try next is
a :class:`~repro.core.strategies.base.SearchStrategy`.  Four ship
built in:

``evolutionary``
    The paper's bottom-up evolutionary search (the default; bit-for-bit
    identical to the historical hard-wired loop).
``hillclimb``
    Greedy single-incumbent walk; cheapest comparative baseline.
``random``
    Independent sampling, best-of-N per size; saturates asynchronous
    backends perfectly.
``bandit``
    Evolutionary search with UCB1 selection over the mutator arms.

Selection: ``config.strategy`` of the :class:`~repro.api.TunerConfig`
a session runs with (``REPRO_TUNER_STRATEGY`` reaches it through
:meth:`~repro.api.TunerConfig.resolve`); this package never reads the
environment, and ``None`` here means ``evolutionary``.

To add a strategy, subclass ``SearchStrategy`` (see its docstring for
the propose/observe speculation contract) and call
:func:`register_strategy`; the name becomes valid everywhere —
``--strategy=`` on the experiments CLI, the environment knob, session
caches and stored reports.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.core.strategies.bandit import BanditStrategy
from repro.core.strategies.base import (
    Proposal,
    SearchPlan,
    SearchStrategy,
    StrategyResult,
    seed_configurations,
)
from repro.core.strategies.evolutionary import EvolutionaryStrategy
from repro.core.strategies.hillclimb import HillClimbStrategy
from repro.core.strategies.random_search import RandomSearchStrategy
from repro.errors import TuningError

#: The built-in strategy registry (name -> class).
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    EvolutionaryStrategy.name: EvolutionaryStrategy,
    HillClimbStrategy.name: HillClimbStrategy,
    RandomSearchStrategy.name: RandomSearchStrategy,
    BanditStrategy.name: BanditStrategy,
}

#: Default strategy when nothing is selected anywhere.
DEFAULT_STRATEGY = EvolutionaryStrategy.name


def strategy_names() -> tuple:
    """The registered strategy names, default first."""
    names = [DEFAULT_STRATEGY]
    names.extend(sorted(name for name in STRATEGIES if name != DEFAULT_STRATEGY))
    return tuple(names)


def register_strategy(cls: Type[SearchStrategy]) -> Type[SearchStrategy]:
    """Register a strategy class under its ``name`` (usable as a
    decorator).  Re-registering an existing name replaces it."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise TuningError(f"strategy class {cls!r} needs a registry name")
    STRATEGIES[cls.name] = cls
    return cls


def resolve_strategy(strategy: Optional[str]) -> str:
    """Resolve a strategy request to a registered name.

    Args:
        strategy: Registered name (case and surrounding whitespace
            ignored), or None for :data:`DEFAULT_STRATEGY`.

    Raises:
        TuningError: For explicit names that are not registered.
    """
    if strategy is None:
        return DEFAULT_STRATEGY
    name = strategy.strip().lower()
    if name not in STRATEGIES:
        raise TuningError(
            f"unknown search strategy {strategy!r}; "
            f"available: {list(strategy_names())}"
        )
    return name


def create_strategy(strategy: Optional[str], plan: SearchPlan) -> SearchStrategy:
    """Build the selected (or default) strategy."""
    return STRATEGIES[resolve_strategy(strategy)](plan)


__all__ = [
    "BanditStrategy",
    "DEFAULT_STRATEGY",
    "EvolutionaryStrategy",
    "HillClimbStrategy",
    "Proposal",
    "RandomSearchStrategy",
    "STRATEGIES",
    "SearchPlan",
    "SearchStrategy",
    "StrategyResult",
    "create_strategy",
    "register_strategy",
    "resolve_strategy",
    "seed_configurations",
    "strategy_names",
]

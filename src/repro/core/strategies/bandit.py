"""UCB bandit over the mutator set.

The evolutionary strategy draws mutators uniformly; on programs with
rich choice spaces most draws are wasted on operators that rarely
produce improving children (Sort's nine algorithms vs one lucky cutoff
scale).  This strategy treats each mutator as a bandit arm and picks
the next operator by UCB1::

    score(arm) = reward(arm)/pulls(arm) + C * sqrt(ln(total)/pulls(arm))

with a pull counted per draw and a unit reward per *admitted* child
(an improvement event — the only signal the ordered-commit layer makes
deterministic).  Unpulled arms are tried first, in arm order; ties
break on the lowest arm index, so the whole schedule is a pure function
of the seed.

Determinism under speculation: pulls are counted at *draw* time, so
the arm statistics are part of the draw-time state — checkpoints
snapshot them alongside the RNG, and an admission rewinds both before
crediting the reward.  Rewards are only applied at observe time in
commit order.  Reports are therefore identical across backends and
in-flight depths, like the evolutionary strategy.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.mutators import Mutator
from repro.core.population import Candidate
from repro.core.strategies.base import SearchPlan
from repro.core.strategies.evolutionary import EvolutionaryStrategy

#: UCB1 exploration constant.
EXPLORATION = math.sqrt(2.0)


class BanditStrategy(EvolutionaryStrategy):
    """Evolutionary search with UCB1 mutator selection."""

    name = "bandit"

    def __init__(self, plan: SearchPlan) -> None:
        super().__init__(plan)
        self._pulls: List[int] = [0] * len(plan.mutators)
        self._rewards: List[float] = [0.0] * len(plan.mutators)

    def _pick_mutator(self) -> Tuple[int, Mutator]:
        total = sum(self._pulls)
        best_index = -1
        best_score = float("-inf")
        for index, pulls in enumerate(self._pulls):
            if pulls == 0:
                best_index = index
                break
            score = self._rewards[index] / pulls + EXPLORATION * math.sqrt(
                math.log(total) / pulls
            )
            if score > best_score:  # strict: ties keep the lowest index
                best_score = score
                best_index = index
        self._pulls[best_index] += 1
        return best_index, self.plan.mutators[best_index]

    def _checkpoint(self) -> object:
        # Pulls are draw-time state: snapshot them with the RNG so an
        # admission rewinds the discarded draws' pulls too.
        return (self._rng.getstate(), tuple(self._pulls), tuple(self._rewards))

    def _rewind(self, checkpoint: object) -> None:
        rng, pulls, rewards = checkpoint  # type: ignore[misc]
        self._rng.setstate(rng)
        self._pulls = list(pulls)
        self._rewards = list(rewards)

    def _on_admitted(self, child: Candidate, size: int, extra: object) -> None:
        super()._on_admitted(child, size, extra)
        self._rewards[int(extra)] += 1.0  # type: ignore[arg-type]

"""Pure random search over the configuration space.

The classic autotuning baseline: sample configurations independently —
constant algorithm selectors drawn uniformly, size-like tunables drawn
lognormally around their defaults, categorical tunables uniformly —
and keep the fastest.  The size ramp is shared with the other
strategies (samples are evaluated at exponentially growing sizes, and
the per-algorithm seeds plus the incumbent are re-evaluated at every
level), so its reports are directly comparable.

Because samples are independent, no observation ever invalidates an
outstanding proposal: this strategy saturates an asynchronous backend
perfectly and is the yardstick the scheduling tests use.  All sampling
happens eagerly at size entry, so the RNG consumption — and therefore
the report — is identical for any backend, worker count or in-flight
depth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.configuration import Configuration
from repro.core.fitness import Evaluation
from repro.core.population import Candidate
from repro.core.selector import Selector
from repro.core.strategies.base import (
    Proposal,
    SearchPlan,
    SearchStrategy,
    StrategyResult,
    candidate_from_payload,
    candidate_to_payload,
    decode_rng_state,
    encode_rng_state,
    fitness_time,
)
from repro.errors import TuningError


class RandomSearchStrategy(SearchStrategy):
    """Independent uniform/lognormal sampling, best-of-N per size."""

    name = "random"

    def __init__(self, plan: SearchPlan) -> None:
        super().__init__(plan)
        self._history: List[float] = []
        self._size_index = 0
        self._best: Optional[Candidate] = None
        self._queue: List[Configuration] = []
        self._outstanding = 0
        self._finished = False
        self._result: Optional[StrategyResult] = None
        self._enter_size(0)

    # -- protocol ------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def history(self) -> List[float]:
        return self._history

    def result(self) -> StrategyResult:
        self._require_finished()
        assert self._result is not None
        return self._result

    def propose(self, k: int) -> List[Proposal]:
        proposals: List[Proposal] = []
        size = self.plan.sizes[self._size_index]
        while len(proposals) < k and self._queue and not self._finished:
            config = self._queue.pop(0)
            self._outstanding += 1
            proposals.append(Proposal(config=config, size=size))
        return proposals

    def observe(self, proposal: Proposal, evaluation: Evaluation) -> bool:
        time = fitness_time(evaluation)
        candidate = Candidate(config=proposal.config)
        candidate.times[proposal.size] = time
        if (
            self._best is None
            or time < self._best.time_at(proposal.size)
        ):
            self._best = candidate
        self._outstanding -= 1
        if not self._queue and self._outstanding == 0:
            self._finish_size()
        return False

    # -- internals -----------------------------------------------------

    def _enter_size(self, index: int) -> None:
        """Queue the seeds, the incumbent and this size's sample batch.

        All randomness for the size is consumed here, eagerly, so the
        proposal stream is a pure function of the seed regardless of
        how observations interleave.
        """
        self._size_index = index
        size = self.plan.sizes[index]
        queue: List[Configuration] = []
        seen: Set[Configuration] = set()
        if self._best is not None:
            queue.append(self._best.config)
            seen.add(self._best.config)
        for config in self.seed_population():
            if config not in seen:
                seen.add(config)
                queue.append(config)
        for _ in range(self.plan.generations_at(size)):
            sample = self._sample()
            if sample in seen:
                continue  # deterministic either way; skip wasted commits
            seen.add(sample)
            queue.append(sample)
        self._queue = queue
        # A new size restarts the incumbent race: the previous winner
        # is in the queue, so it competes on this size's measurements.
        self._best = None

    def _sample(self) -> Configuration:
        """One independent configuration sample."""
        training = self.plan.training
        selectors = {
            name: Selector.constant(self._rng.randrange(spec.num_algorithms))
            for name, spec in sorted(training.selectors.items())
        }
        tunables = {name: spec.default for name, spec in training.tunables.items()}
        for name, spec in sorted(training.tunables.items()):
            if spec.cardinality <= 1:
                continue
            if spec.scale == "lognormal":
                value = spec.clamp(
                    max(1, int(round(spec.default * 2.0 ** self._rng.gauss(0.0, 2.0))))
                )
            else:
                value = self._rng.randint(spec.lo, spec.hi)
            tunables[name] = value
        return Configuration(
            training.program_name, selectors, tunables, label="default"
        )

    def _finish_size(self) -> None:
        if self._best is None:
            raise TuningError("random search finished a size without results")
        size = self.plan.sizes[self._size_index]
        self._history.append(self._best.time_at(size))
        if self._size_index + 1 < len(self.plan.sizes):
            self._enter_size(self._size_index + 1)
        else:
            self._finished = True
            self._result = StrategyResult(
                best=self._best,
                best_time_s=self._best.time_at(size),
                history=list(self._history),
            )

    # -- checkpoint serialisation ---------------------------------------

    def state_payload(self) -> Dict[str, object]:
        if self._outstanding:
            raise TuningError(
                "strategy state requested with proposals outstanding"
            )
        return {
            "strategy": self.name,
            "size_index": self._size_index,
            "history": list(self._history),
            "rng": encode_rng_state(self._rng.getstate()),
            "best": None if self._best is None else candidate_to_payload(self._best),
            "queue": [config.canonical_key() for config in self._queue],
            "finished": self._finished,
        }

    def restore_state(self, payload: Dict[str, object]) -> None:
        if payload.get("strategy") != self.name:
            raise TuningError(
                f"checkpoint belongs to strategy {payload.get('strategy')!r}, "
                f"not {self.name!r}"
            )
        self._size_index = int(payload["size_index"])  # type: ignore[arg-type]
        self._history = [float(t) for t in payload["history"]]  # type: ignore[union-attr]
        self._rng.setstate(decode_rng_state(payload["rng"]))
        best = payload["best"]
        self._best = None if best is None else candidate_from_payload(best)
        self._queue = [
            Configuration.from_json(str(text))
            for text in payload["queue"]  # type: ignore[union-attr]
        ]
        self._outstanding = 0
        self._finished = bool(payload["finished"])
        self._result = None
        if self._finished:
            size = self.plan.sizes[self._size_index]
            assert self._best is not None
            self._result = StrategyResult(
                best=self._best,
                best_time_s=self._best.time_at(size),
                history=list(self._history),
            )

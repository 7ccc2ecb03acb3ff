"""The paper's bottom-up evolutionary search as a pluggable strategy.

This is the algorithm that used to be hard-wired into
``EvolutionaryTuner`` (paper Section 5.2), reshaped into the
propose/observe protocol so the driver can stream its candidate
evaluations to any backend asynchronously:

* mutation is **asexual** — each child has a single parent;
* a child joins the population **only if it outperforms its parent**;
* test input sizes **grow exponentially**, exploiting optimal
  substructure (a good configuration for size n seeds size 2n);
* the mutator set is generated automatically from the compiler's
  static analysis;
* after the final size, the winner's tunables get a greedy local
  refinement pass.

Determinism under speculation
=============================

The decision sequence must be bit-for-bit identical to the historical
serial loop no matter how many proposals are in flight.  Three rules
make that hold:

* every *draw* (parent choice, mutator choice, mutation) snapshots a
  checkpoint of the RNG (and any other draw-time state) right after
  the draw;
* observations arrive in draw order; a non-admission changes nothing a
  later draw depends on (membership is fixed within a size, and draws
  never read fitness values), so speculative draws made before the
  observation stand;
* an admission changes the parent pool, so ``observe`` rewinds to the
  admitted draw's checkpoint and returns True — the driver discards
  every later proposal, exactly like the historical window discard.

Sterile draws (a mutator that produced no legal child) consume
generation budget but nothing evaluates them; they are folded into the
``slots`` of the next real proposal so they are only charged when that
proposal survives to be observed — matching the serial loop, where a
sterile draw after an admitted child was never counted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.fitness import Evaluation
from repro.core.mutators import Mutator
from repro.core.population import Candidate, Population
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


class EvolutionaryStrategy(SearchStrategy):
    """Population-based asexual evolutionary search (the default)."""

    name = "evolutionary"

    def __init__(self, plan: SearchPlan) -> None:
        super().__init__(plan)
        self._population = Population(plan.population_size)
        self._history: List[float] = []
        self._phase = "members"
        self._size_index = 0
        self._member_queue: List[Candidate] = []
        #: Proposals handed out and not yet observed/discarded.
        self._outstanding = 0
        #: Member-evaluation proposals among the outstanding (strategies
        #: whose draws read fitness values gate on this — see hillclimb).
        self._members_outstanding = 0
        # Generation budget accounting (see module docstring).
        self._remaining = 0
        self._claimed = 0
        self._sterile = 0
        # Greedy refinement state (runs at the final size).
        self._refine_names: List[str] = sorted(plan.training.tunables)
        self._refine_pass = 0
        self._refine_index = 0
        self._refine_improved = False
        self._refine_current: Optional[Candidate] = None
        self._refine_queue: List = []
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
        while len(proposals) < k and not self._finished:
            if self._phase == "members":
                if self._member_queue:
                    candidate = self._member_queue.pop(0)
                    self._outstanding += 1
                    self._members_outstanding += 1
                    proposals.append(
                        Proposal(
                            config=candidate.config,
                            size=self._current_size(),
                            slots=0,
                            token=("member", candidate),
                        )
                    )
                    continue
                # Every member handed out: open the mutation budget.
                self._phase = "generations"
                self._remaining = self.plan.generations_at(self._current_size())
                self._claimed = 0
                self._sterile = 0
                continue
            if self._phase == "generations":
                if self._remaining - self._claimed - self._sterile <= 0:
                    self._settle()
                    if self._phase == "generations":
                        break  # waiting on observations
                    continue
                if not self._ready_to_draw():
                    break  # draws would read unsettled fitness values
                drawn = self._draw_child(self._current_size())
                if drawn is None:
                    self._sterile += 1
                    continue
                parent, child, extra = drawn
                checkpoint = self._checkpoint()
                slots = self._sterile + 1
                self._sterile = 0
                self._claimed += slots
                self._outstanding += 1
                proposals.append(
                    Proposal(
                        config=child.config,
                        size=self._current_size(),
                        slots=slots,
                        token=("child", parent, child, checkpoint, extra),
                    )
                )
                continue
            if self._phase == "refine":
                if self._refine_queue:
                    config = self._refine_queue.pop(0)
                    self._outstanding += 1
                    proposals.append(
                        Proposal(
                            config=config,
                            size=self.plan.max_size,
                            slots=0,
                            token=("refine",),
                        )
                    )
                    continue
                break  # window in flight; observe() advances the tunable
            raise TuningError(f"unknown strategy phase {self._phase!r}")
        return proposals

    def observe(self, proposal: Proposal, evaluation: Evaluation) -> bool:
        time = fitness_time(evaluation)
        kind = proposal.token[0]
        if kind == "member":
            candidate = proposal.token[1]
            candidate.times[proposal.size] = time
            self._outstanding -= 1
            self._members_outstanding -= 1
            self._settle()
            return False
        if kind == "child":
            _, parent, child, checkpoint, extra = proposal.token
            child.times[proposal.size] = time
            self._outstanding -= 1
            self._remaining -= proposal.slots
            self._claimed -= proposal.slots
            # Paper: children are admitted only when they outperform
            # the parent they were created from.
            if time < parent.time_at(proposal.size):
                self._rewind(checkpoint)
                self._on_admitted(child, proposal.size, extra)
                # Everything drawn after the admitted child assumed the
                # old parent pool: discard it all.
                self._claimed = 0
                self._sterile = 0
                self._outstanding = 0
                self._members_outstanding = 0
                self._settle()
                return True
            self._settle()
            return False
        if kind == "refine":
            candidate = Candidate(config=proposal.config)
            candidate.times[proposal.size] = time
            self._outstanding -= 1
            assert self._refine_current is not None
            if time < self._refine_current.time_at(proposal.size):
                self._refine_current = candidate
                self._refine_improved = True
            if not self._refine_queue and self._outstanding == 0:
                self._refine_index += 1
                self._load_refine_window()
            return False
        raise TuningError(f"unknown proposal token {kind!r}")

    # -- phase machinery -----------------------------------------------

    def _current_size(self) -> int:
        return self.plan.sizes[self._size_index]

    def _enter_size(self, index: int) -> None:
        """Start one size level: re-inject missing per-algorithm seeds
        and queue every member for evaluation at the new size.

        An algorithm that loses at small sizes (a GPU kernel paying
        launch and transfer overheads) must still be considered at the
        sizes where it wins; evaluations are memoised, so re-seeding
        costs one run per seed per size at most.
        """
        self._size_index = index
        present = {c.config for c in self._population.members}
        for config in self.seed_population():
            if config not in present:
                self._population.add(Candidate(config=config))
        self._member_queue = list(self._population.members)
        self._phase = "members"

    def _settle(self) -> None:
        """Commit trailing sterile draws and close the size when done.

        Only at quiescence: with proposals outstanding, an admission
        could still rewind past the sterile draws.
        """
        if self._phase != "generations" or self._outstanding:
            return
        self._remaining -= self._sterile
        self._sterile = 0
        if self._remaining <= 0:
            self._finish_size()

    def _finish_size(self) -> None:
        size = self._current_size()
        self._population.prune(size)
        self._history.append(self._population.best(size).time_at(size))
        if self._size_index + 1 < len(self.plan.sizes):
            self._enter_size(self._size_index + 1)
        else:
            self._enter_refine()

    def _enter_refine(self) -> None:
        self._phase = "refine"
        self._refine_pass = 0
        self._refine_index = 0
        self._refine_improved = False
        self._refine_current = self._population.best(self.plan.max_size)
        self._load_refine_window()

    def _load_refine_window(self) -> None:
        """Queue the neighbour evaluations for the current tunable.

        Greedy local refinement of the winner's tunables: one step
        through the range for categorical values, one doubling/halving
        for size-like values, two passes, stop early when a full pass
        finds no improvement.  Windows are a barrier per tunable — the
        next tunable's neighbours derive from the (possibly updated)
        current configuration.
        """
        while True:
            if self._refine_index >= len(self._refine_names):
                self._refine_pass += 1
                if self._refine_pass >= 2 or not self._refine_improved:
                    self._finish_search()
                    return
                self._refine_index = 0
                self._refine_improved = False
            if not self._refine_names:
                self._finish_search()
                return
            name = self._refine_names[self._refine_index]
            spec = self.plan.training.tunables[name]
            assert self._refine_current is not None
            value = self._refine_current.config.tunable(name, spec.default)
            if spec.scale == "lognormal":
                neighbours = (value * 2, max(1, value // 2))
            else:
                neighbours = (value + 1, value - 1)
            queue = []
            for neighbour in neighbours:
                clamped = spec.clamp(neighbour)
                if clamped == value:
                    continue
                queue.append(self._refine_current.config.with_tunable(name, clamped))
            if queue:
                self._refine_queue = queue
                return
            self._refine_index += 1

    def _finish_search(self) -> None:
        assert self._refine_current is not None
        self._phase = "done"
        self._finished = True
        self._result = StrategyResult(
            best=self._refine_current,
            best_time_s=self._refine_current.time_at(self.plan.max_size),
            history=list(self._history),
        )

    # -- draw hooks (specialised by hillclimb/bandit) --------------------

    def _ready_to_draw(self) -> bool:
        """Whether a mutation draw may happen now.

        Evolutionary draws read only the member *list* (fixed within a
        size) and the RNG, so they never wait.  Strategies whose parent
        selection reads fitness values override this to wait for the
        member evaluations to settle.
        """
        return True

    def _pick_parent(self, size: int) -> Candidate:
        return self._rng.choice(self._population.members)

    def _pick_mutator(self) -> Tuple[int, Mutator]:
        # randrange consumes the RNG exactly like random.choice did in
        # the historical loop (both call _randbelow once).
        index = self._rng.randrange(len(self.plan.mutators))
        return index, self.plan.mutators[index]

    def _draw_child(
        self, size: int
    ) -> Optional[Tuple[Candidate, Candidate, object]]:
        """One serial-order mutation draw (may produce no child)."""
        parent = self._pick_parent(size)
        extra, mutator = self._pick_mutator()
        child_config = mutator.mutate(parent.config, self._rng, size)
        if child_config is None:
            return None
        try:
            child_config.validate(self.plan.training)
        except Exception:
            return None
        return parent, Candidate(config=child_config), extra

    def _checkpoint(self) -> object:
        """Draw-time state snapshot, taken right after a draw."""
        return self._rng.getstate()

    def _rewind(self, checkpoint: object) -> None:
        """Restore draw-time state to an admitted draw's checkpoint."""
        self._rng.setstate(checkpoint)

    def _on_admitted(self, child: Candidate, size: int, extra: object) -> None:
        self._population.add(child)

    # -- checkpoint serialisation ---------------------------------------

    def state_payload(self) -> Dict[str, object]:
        if self._outstanding:
            raise TuningError(
                "strategy state requested with proposals outstanding"
            )
        members = self._population.members
        payload: Dict[str, object] = {
            "strategy": self.name,
            "phase": self._phase,
            "size_index": self._size_index,
            "history": list(self._history),
            "rng": encode_rng_state(self._rng.getstate()),
            "population": [candidate_to_payload(c) for c in members],
            # Identity-based indices: equal-content duplicates can
            # coexist in a population, and dataclass equality would
            # collapse them.
            "member_queue": [
                next(i for i, m in enumerate(members) if m is c)
                for c in self._member_queue
            ],
            "remaining": self._remaining,
            "refine": {
                "pass": self._refine_pass,
                "index": self._refine_index,
                "improved": self._refine_improved,
                "current": (
                    None
                    if self._refine_current is None
                    else candidate_to_payload(self._refine_current)
                ),
                "queue": [c.canonical_key() for c in self._refine_queue],
            },
            "finished": self._finished,
        }
        return payload

    def restore_state(self, payload: Dict[str, object]) -> None:
        if payload.get("strategy") != self.name:
            raise TuningError(
                f"checkpoint belongs to strategy {payload.get('strategy')!r}, "
                f"not {self.name!r}"
            )
        from repro.core.configuration import Configuration

        self._phase = str(payload["phase"])
        self._size_index = int(payload["size_index"])  # type: ignore[arg-type]
        self._history = [float(t) for t in payload["history"]]  # type: ignore[union-attr]
        self._rng.setstate(decode_rng_state(payload["rng"]))
        self._population = Population(self.plan.population_size)
        for entry in payload["population"]:  # type: ignore[union-attr]
            self._population.add(candidate_from_payload(entry))
        members = self._population.members
        self._member_queue = [
            members[int(i)] for i in payload["member_queue"]  # type: ignore[union-attr]
        ]
        self._outstanding = 0
        self._members_outstanding = 0
        self._remaining = int(payload["remaining"])  # type: ignore[arg-type]
        self._claimed = 0
        self._sterile = 0
        refine = payload["refine"]
        self._refine_pass = int(refine["pass"])  # type: ignore[index]
        self._refine_index = int(refine["index"])  # type: ignore[index]
        self._refine_improved = bool(refine["improved"])  # type: ignore[index]
        current = refine["current"]  # type: ignore[index]
        self._refine_current = (
            None if current is None else candidate_from_payload(current)
        )
        self._refine_queue = [
            Configuration.from_json(str(text))
            for text in refine["queue"]  # type: ignore[index]
        ]
        self._finished = bool(payload["finished"])
        self._result = None
        if self._finished:
            self._finish_search()

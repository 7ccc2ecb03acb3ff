"""Decision-path reuse: a candidate that answers an earlier simulation's
questions the same way is served from the evaluator's decision tree.

The soundness argument is structural: a simulated run reads its
configuration only through a recording
:class:`~repro.core.configuration.ConfigurationView`, and it is
deterministic given the answers it gets.  These tests pin the
structure (the runtime holds only the view; conflicting paths raise),
the lookup order and what reaches the log, and check the premise itself by
re-simulating every tree hit: during whole tuning sessions of every
app on every standard machine, and for random mutated configurations
against a fresh evaluator.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import tune_program
from repro.api.config import TunerConfig
from repro.apps.registry import all_benchmarks, benchmark, canonical_env_factory
from repro.compiler.compile import CompiledProgram, compile_program
from repro.core.configuration import (
    Configuration,
    ConfigurationView,
    default_configuration,
)
from repro.core.fitness import DecisionTree, Evaluator, PureEvaluation
from repro.core.mutators import mutators_for
from repro.core.parallel import ParallelEvaluator
from repro.core.result_cache import ResultCache
from repro.core.selector import Selector
from repro.errors import TuningError
from repro.hardware.machines import DESKTOP, LAPTOP, SERVER
from repro.runtime.executor import run_program
from repro.runtime.scheduler import RuntimeState

from tests.core.test_parallel_determinism import SMALL_SIZES

APP_NAMES = sorted(SMALL_SIZES)

_COMPILED: Dict[Tuple[str, str], CompiledProgram] = {}


def compiled_app(name: str, machine=DESKTOP) -> CompiledProgram:
    key = (name, machine.codename)
    if key not in _COMPILED:
        _COMPILED[key] = compile_program(benchmark(name).build_program(), machine)
    return _COMPILED[key]


def new_evaluator(app: str, compiled: CompiledProgram, result_cache=None) -> Evaluator:
    spec = benchmark(app)
    return Evaluator(
        compiled,
        canonical_env_factory(app),
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        seed=1,
        result_cache=result_cache if result_cache is not None else ResultCache(None),
    )


def outcome(pure: PureEvaluation):
    return (pure.time_s, pure.accuracy, pure.compile_events)


def leaf(time_s: float) -> PureEvaluation:
    return PureEvaluation(time_s=time_s, accuracy=None, compile_events=())


# ----------------------------------------------------------------------
# Structure: the runtime sees only the recording view
# ----------------------------------------------------------------------


class TestRecordingView:
    def test_the_runtime_holds_only_the_view(self):
        compiled = compiled_app("Strassen")
        config = default_configuration(compiled.training_info)
        rt = RuntimeState(compiled, config)
        assert type(rt.config) is ConfigurationView
        for name in RuntimeState.__slots__:
            assert not isinstance(getattr(rt, name, None), Configuration), name
        view = rt.config
        for name in dir(view):
            if not name.startswith("__"):
                assert not isinstance(getattr(view, name), Configuration), name
        assert not hasattr(view, "__dict__")

    def test_each_question_is_recorded_once_in_first_asked_order(self):
        config = Configuration(
            program_name="P",
            selectors={"A": Selector.constant(2)},
            tunables={"x": 7},
        )
        view = ConfigurationView(config)
        assert view.tunable("x", 1) == 7
        assert view.select_index("A", 64) == 2
        assert view.tunable("x", 1) == 7
        assert view.tunable("y", 3) == 3
        assert view.select_index("B", 64) == 0
        assert view.path == (
            (("tunable", "x", 1), 7),
            (("select", "A", 64), 2),
            (("tunable", "y", 3), 3),
            (("select", "B", 64), 0),
        )
        for question, answer in view.path:
            assert config.answer(question) == answer

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_a_run_returns_the_path_its_answers_came_from(self, app):
        compiled = compiled_app(app)
        evaluator = new_evaluator(app, compiled)
        size = SMALL_SIZES[app]
        numeric = not evaluator.lane_batchable
        config = default_configuration(compiled.training_info)
        (env,) = evaluator._fresh_env_batch(size, 1, numeric=numeric)
        result = run_program(compiled, config, env, seed=1, numeric=numeric)
        assert result.path
        questions = [question for question, _ in result.path]
        assert len(set(questions)) == len(questions)
        for question, answer in result.path:
            assert config.answer(question) == answer


# ----------------------------------------------------------------------
# The decision tree
# ----------------------------------------------------------------------

SELECT_A = ("select", "A", 64)
TUNABLE_X = ("tunable", "x", 0)
TUNABLE_Y = ("tunable", "y", 0)


class TestDecisionTree:
    def test_lookup_follows_only_the_asked_questions(self):
        tree = DecisionTree()
        tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.0))
        tree.grow(((SELECT_A, 0),), leaf(2.0))
        asked = Configuration("P", {"A": Selector.constant(1)}, {"x": 5, "y": 9})
        unasked_differs = Configuration("P", {"A": Selector.constant(1)}, {"x": 5, "y": 1})
        asked_differs = Configuration("P", {"A": Selector.constant(1)}, {"x": 6})
        other_branch = Configuration("P", {"A": Selector.constant(0)}, {"x": 6})
        assert tree.lookup(asked) == leaf(1.0)
        assert tree.lookup(unasked_differs) == leaf(1.0)
        assert tree.lookup(asked_differs) is None
        assert tree.lookup(other_branch) == leaf(2.0)
        assert DecisionTree().lookup(asked) is None

    def test_regrowing_a_recorded_path_is_a_no_op(self):
        tree = DecisionTree()
        tree.grow(((SELECT_A, 1),), leaf(1.0))
        tree.grow(((SELECT_A, 1),), leaf(1.0))
        assert tree.lookup(Configuration("P", {"A": Selector.constant(1)})) == leaf(1.0)

    def test_a_different_next_question_raises(self):
        tree = DecisionTree()
        tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.0))
        with pytest.raises(TuningError, match="conflict"):
            tree.grow(((SELECT_A, 1), (TUNABLE_Y, 5)), leaf(1.0))

    def test_a_different_outcome_at_one_leaf_raises(self):
        tree = DecisionTree()
        tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.0))
        with pytest.raises(TuningError, match="two outcomes"):
            tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.5))

    def test_a_path_that_stops_early_or_runs_on_raises(self):
        tree = DecisionTree()
        tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.0))
        with pytest.raises(TuningError, match="conflict"):
            tree.grow(((SELECT_A, 1),), leaf(1.0))
        with pytest.raises(TuningError, match="conflict"):
            tree.grow(((SELECT_A, 1), (TUNABLE_X, 5), (TUNABLE_Y, 0)), leaf(1.0))

    def test_after_a_conflict_the_tree_serves_nothing(self):
        tree = DecisionTree()
        tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.0))
        with pytest.raises(TuningError, match="conflict"):
            tree.grow(((SELECT_A, 1), (TUNABLE_Y, 5)), leaf(1.0))
        recorded = Configuration("P", {"A": Selector.constant(1)}, {"x": 5})
        with pytest.raises(TuningError, match="conflict"):
            tree.lookup(recorded)
        with pytest.raises(TuningError, match="conflict"):
            tree.grow(((SELECT_A, 1), (TUNABLE_X, 5)), leaf(1.0))


# ----------------------------------------------------------------------
# The evaluator: lookup order, what reaches the log, per-lane walks
# ----------------------------------------------------------------------


def strassen_pair(pin_naive: bool):
    """Two Strassen configurations differing only in ``seq_par_cutoff``.

    The default ``MatMul`` choice never asks for it at size 64; pinned
    to ``naive/cpu`` (a divisible CPU rule) every run asks."""
    compiled = compiled_app("Strassen")
    base = default_configuration(compiled.training_info)
    if pin_naive:
        names = [choice.name for choice in compiled.transforms["MatMul"].exec_choices]
        base = base.with_selector("MatMul", Selector.constant(names.index("naive/cpu")))
    other = base.with_tunable("seq_par_cutoff", 512)
    return compiled, base, other


class TestEvaluatorReuse:
    def test_an_unasked_difference_is_a_hit_that_writes_nothing(self, tmp_path):
        compiled, base, other = strassen_pair(pin_naive=False)
        cache = ResultCache(str(tmp_path))
        evaluator = new_evaluator("Strassen", compiled, cache)
        first = evaluator.compute(base, 64)
        (second,), (path,) = evaluator.compute_batch_flagged([other], 64)
        assert path is None
        assert (evaluator.computed_evaluations, evaluator.path_hits) == (1, 1)
        assert outcome(second) == outcome(first)
        # Only the simulation appended to the log, and its record is
        # what serves the hit: a new evaluator on the same cache loads
        # it into its tree and serves ``other`` without a simulation.
        assert cache.stats.stores == 1
        warm = new_evaluator("Strassen", compiled, ResultCache(str(tmp_path)))
        assert outcome(warm.compute(other, 64)) == outcome(first)
        assert (warm.computed_evaluations, warm.path_hits) == (0, 1)

    def test_an_asked_difference_simulates(self):
        compiled, base, other = strassen_pair(pin_naive=True)
        evaluator = new_evaluator("Strassen", compiled)
        evaluator.compute(base, 64)
        evaluator.compute(other, 64)
        assert (evaluator.computed_evaluations, evaluator.path_hits) == (2, 0)

    def test_an_earlier_lane_serves_a_later_one(self):
        compiled, base, other = strassen_pair(pin_naive=False)
        evaluator = new_evaluator("Strassen", compiled)
        pures, paths = evaluator.compute_batch_flagged([base, other], 64)
        assert paths[1] is None
        for question, answer in paths[0]:
            assert base.answer(question) == other.answer(question) == answer
        assert outcome(pures[0]) == outcome(pures[1])
        assert evaluator.path_hits == 1

    def test_a_repeated_configuration_is_a_tree_hit(self):
        compiled, base, _other = strassen_pair(pin_naive=False)
        evaluator = new_evaluator("Strassen", compiled)
        evaluator.compute(base, 64)
        evaluator.compute(base, 64)
        assert (evaluator.computed_evaluations, evaluator.path_hits) == (1, 1)

    def test_the_loaded_log_answers_every_lookup(self, tmp_path):
        compiled, base, other = strassen_pair(pin_naive=False)
        new_evaluator("Strassen", compiled, ResultCache(str(tmp_path))).compute(base, 64)
        cache = ResultCache(str(tmp_path))
        evaluator = new_evaluator("Strassen", compiled, cache)
        evaluator.compute(other, 64)  # the tree, grown from the log
        evaluator.compute(other, 64)  # the same leaf again
        evaluator.compute(base, 64)  # the leaf the logged path reaches
        assert (evaluator.computed_evaluations, evaluator.path_hits) == (0, 3)
        assert cache.stats.hits == 1  # the log was loaded once

    def test_trees_are_per_size(self):
        compiled, base, other = strassen_pair(pin_naive=False)
        evaluator = new_evaluator("Strassen", compiled)
        evaluator.compute(base, 64)
        evaluator.compute(other, 32)
        assert (evaluator.computed_evaluations, evaluator.path_hits) == (2, 0)


def test_a_conflict_found_on_a_pool_thread_fails_its_commit(monkeypatch):
    """A speculative lane whose path conflicts only loses its answer on
    the thread backend; its commit recomputes in-process and must raise
    rather than take the leaf another path left in the tree."""
    compiled = compiled_app("Strassen")
    first = Configuration("P", {}, {"z": 1})
    conflicting = Configuration("P", {}, {"z": 2})
    walked, release = threading.Event(), threading.Event()

    def simulate(evaluator, config, size, numeric, env):
        if config is conflicting:
            # This lane has missed the tree; let ``first`` grow it.
            walked.set()
            release.wait(timeout=10)
            asked = (SELECT_A, TUNABLE_Y)
        else:
            asked = (SELECT_A, TUNABLE_X)
        return leaf(1.0), tuple((q, config.answer(q)) for q in asked)

    monkeypatch.setattr(Evaluator, "_simulate", simulate)
    spec = benchmark("Strassen")
    evaluator = ParallelEvaluator(
        compiled,
        canonical_env_factory("Strassen"),
        workers=2,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        seed=1,
        result_cache=ResultCache(None),
    )
    try:
        evaluator.prefetch([conflicting], 64)
        assert walked.wait(timeout=10)
        evaluator.evaluate(first, 64)
        release.set()
        # ``conflicting`` answers ``first``'s questions as ``first``
        # did, so a walk of the conflicted tree would reach its leaf.
        with pytest.raises(TuningError, match="conflict"):
            evaluator.evaluate(conflicting, 64)
    finally:
        release.set()
        evaluator.close()


# ----------------------------------------------------------------------
# Differential checks: every tree hit against a simulation
# ----------------------------------------------------------------------


@pytest.fixture
def resimulate_every_hit(monkeypatch) -> List[Tuple[str, bool]]:
    """Make every decision-tree hit also simulate on the evaluator that
    served it; returns one ``(app, outcomes agreed)`` record per hit."""
    checks: List[Tuple[str, bool]] = []
    served = threading.local()
    lookup = DecisionTree.lookup
    compute = Evaluator.compute_batch_flagged

    def recording_lookup(tree, config):
        pure = lookup(tree, config)
        if pure is not None:
            served.hits.append((config, pure))
        return pure

    def checking_compute(evaluator, configs, size):
        served.hits = []
        result = compute(evaluator, configs, size)
        numeric = not evaluator.lane_batchable
        for config, pure in served.hits:
            (env,) = evaluator._fresh_env_batch(size, 1, numeric=numeric)
            again, _path = evaluator._simulate(config, size, numeric, env)
            checks.append(
                (evaluator._compiled.program.name, outcome(again) == outcome(pure))
            )
        return result

    monkeypatch.setattr(DecisionTree, "lookup", recording_lookup)
    monkeypatch.setattr(Evaluator, "compute_batch_flagged", checking_compute)
    return checks


def test_every_tree_hit_of_a_tuning_session_matches_a_simulation(
    resimulate_every_hit,
):
    """Tune every app on every standard machine, serially with the disk
    cache off, re-simulating each tree hit."""
    config = TunerConfig(
        backend="serial", workers=1, cache_dir=None, resume=False, progress=False
    )
    for machine in (DESKTOP, SERVER, LAPTOP):
        for spec in all_benchmarks():
            tune_program(
                compiled_app(spec.name, machine),
                canonical_env_factory(spec.name),
                max_size=min(spec.tuning_size, SMALL_SIZES[spec.name]),
                seed=1,
                accuracy_fn=spec.accuracy_fn,
                accuracy_target=spec.accuracy_target,
                config=config,
                result_cache=ResultCache(None),
            )
    hits = {compiled_app(name).program.name: 0 for name in SMALL_SIZES}
    for program, agreed in resimulate_every_hit:
        assert agreed, f"a {program} tree hit disagrees with its simulation"
        hits[program] += 1
    assert all(hits.values()), hits


@given(
    app=st.sampled_from(APP_NAMES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tree_hits_of_mutated_configurations_match_a_fresh_evaluator(app, seed):
    compiled = compiled_app(app)
    size = SMALL_SIZES[app]
    rng = random.Random(seed)
    base = default_configuration(compiled.training_info)
    mutators = mutators_for(compiled.training_info)
    evaluator = new_evaluator(app, compiled)
    for _ in range(12):
        config = base
        for _ in range(rng.randint(1, 3)):
            config = rng.choice(mutators).mutate(config, rng, size) or config
        hits = evaluator.path_hits
        pure = evaluator.compute(config, size)
        if evaluator.path_hits > hits:
            fresh = new_evaluator(app, compiled).compute(config, size)
            assert outcome(pure) == outcome(fresh), config.canonical_key()

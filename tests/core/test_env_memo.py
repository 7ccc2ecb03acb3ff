"""The evaluator's memoised test-environment handout.

Input generation is hoisted into a process-wide memo; these tests pin
the safety contract: the factory runs once per (factory, program,
size, seed), handed-out environments never alias each other's writable
arrays, and the memoised master is never mutated by evaluations.
"""

import numpy as np
import pytest

from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.fitness import (
    _ENV_MEMO,
    _ENV_MEMO_CAPACITY,
    Evaluator,
    clear_env_memo,
)
from repro.core.result_cache import ResultCache
from repro.hardware.machines import DESKTOP

from tests.conftest import make_scale_program


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_env_memo()
    yield
    clear_env_memo()


def _make_factory(calls):
    def factory(size):
        calls.append(size)
        rng = np.random.default_rng(size)
        return {"In": rng.random(size), "Out": np.zeros(size)}

    return factory


def _evaluator(factory, seed=0):
    compiled = compile_program(make_scale_program(3.0), DESKTOP)
    return compiled, Evaluator(
        compiled, factory, seed=seed, result_cache=ResultCache(None)
    )


class TestEnvMemo:
    def test_factory_runs_once_per_size(self):
        calls = []
        compiled, evaluator = _evaluator(_make_factory(calls))
        config = default_configuration(compiled.training_info)
        for cutoff in (16, 17, 18):
            variant = config.with_tunable("seq_par_cutoff", cutoff)
            evaluator.evaluate(variant, 64)
        assert calls == [64]
        evaluator.evaluate(config, 128)
        assert calls == [64, 128]

    def test_envs_not_aliased_across_evaluations(self):
        calls = []
        compiled, evaluator = _evaluator(_make_factory(calls))
        env_a = evaluator._fresh_env_batch(64, 1)[0]
        env_b = evaluator._fresh_env_batch(64, 1)[0]
        # Writable (output) arrays are private per evaluation.
        assert env_a["Out"] is not env_b["Out"]
        env_a["Out"][:] = 123.0
        assert not np.any(env_b["Out"])
        # Read-only inputs are shared copy-on-write with the master.
        assert env_a["In"] is env_b["In"]
        assert calls == [64]

    def test_master_never_mutated_by_evaluations(self):
        calls = []
        factory = _make_factory(calls)
        compiled, evaluator = _evaluator(factory)
        config = default_configuration(compiled.training_info)
        evaluator.evaluate(config, 64)
        splitty = config.with_tunable("split_Scale", 7)
        splitty = splitty.with_tunable("seq_par_cutoff", 16)
        evaluator.evaluate(splitty, 64)
        # A third handout must still equal a from-scratch build.
        pristine = factory(64)
        handout = evaluator._fresh_env_batch(64, 1)[0]
        for name in pristine:
            assert np.array_equal(handout[name], pristine[name]), name

    def test_same_factory_results_identical_to_unmemoised(self):
        calls = []
        compiled, evaluator = _evaluator(_make_factory(calls))
        config = default_configuration(compiled.training_info)
        first = evaluator.evaluate(config, 64)
        # A separate evaluator (cold decision trees, warm env memo) agrees.
        _, other = _evaluator(_make_factory([]))
        assert other.evaluate(config, 64).time_s == first.time_s

    def test_distinct_seeds_use_distinct_entries(self):
        calls = []
        factory = _make_factory(calls)
        _, evaluator_a = _evaluator(factory, seed=0)
        _, evaluator_b = _evaluator(factory, seed=1)
        evaluator_a._fresh_env_batch(64, 1)[0]
        evaluator_b._fresh_env_batch(64, 1)[0]
        assert calls == [64, 64]

    def test_memo_is_lru_bounded(self):
        calls = []
        compiled, evaluator = _evaluator(_make_factory(calls))
        for size in range(32, 32 + 2 * _ENV_MEMO_CAPACITY):
            evaluator._fresh_env_batch(size, 1)[0]
        assert len(_ENV_MEMO) <= _ENV_MEMO_CAPACITY


class TestBatchedHandout:
    """The copy-on-write contract extends to lane-batched handout."""

    def test_lanes_share_input_masters_once(self):
        calls = []
        compiled, evaluator = _evaluator(_make_factory(calls))
        envs = evaluator._fresh_env_batch(64, 4)
        # One factory call feeds the whole batch...
        assert calls == [64]
        # ...and every lane aliases the same read-only input master.
        first_in = envs[0]["In"]
        assert all(env["In"] is first_in for env in envs)

    def test_lanes_have_private_outputs(self):
        compiled, evaluator = _evaluator(_make_factory([]))
        envs = evaluator._fresh_env_batch(64, 4, numeric=True)
        outs = [env["Out"] for env in envs]
        assert len({id(out) for out in outs}) == len(outs)
        outs[0][:] = 123.0
        for other in outs[1:]:
            assert not np.any(other)

    def test_masters_pristine_after_batched_compute(self):
        calls = []
        factory = _make_factory(calls)
        compiled, evaluator = _evaluator(factory)
        config = default_configuration(compiled.training_info)
        variants = [config]
        for cutoff in (16, 17, 18):
            variant = config.with_tunable("seq_par_cutoff", cutoff)
            variants.append(variant)
        evaluator.compute_batch_flagged(variants, 64)
        # A post-batch handout must still equal a from-scratch build.
        pristine = factory(64)
        handout = evaluator._fresh_env_batch(64, 1)[0]
        for name in pristine:
            assert np.array_equal(handout[name], pristine[name]), name

    def test_batch_results_match_scalar_path(self):
        compiled, evaluator = _evaluator(_make_factory([]))
        config = default_configuration(compiled.training_info)
        variants = [config]
        for cutoff in (16, 18):
            variant = config.with_tunable("seq_par_cutoff", cutoff)
            variants.append(variant)
        batch = evaluator.compute_batch_flagged(variants, 64)[0]
        _, scalar = _evaluator(_make_factory([]))
        for variant, pure in zip(variants, batch):
            assert scalar.compute(variant, 64) == pure

    def test_elided_lane_outputs_are_read_only_stand_ins(self):
        compiled, evaluator = _evaluator(_make_factory([]))
        envs = evaluator._fresh_env_batch(64, 2, numeric=False)
        for env in envs:
            out = env["Out"]
            assert out.shape == (64,)
            assert out.dtype == np.float64
            with pytest.raises(ValueError):
                out[:] = 1.0
        # Inputs stay genuine shared masters even on elided lanes.
        assert envs[0]["In"] is envs[1]["In"]

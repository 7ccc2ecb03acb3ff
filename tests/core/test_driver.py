"""Tests for the asynchronous tuning driver: scheduling, lifecycle,
checkpoint/resume and progress reporting."""

from __future__ import annotations

import os

import pytest

from repro.api import Session, tune_program
from repro.api.config import TunerConfig
from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.driver import CheckpointStore, TuningDriver
from repro.core.parallel import ParallelEvaluator
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner, TuningReport
from repro.errors import TuningError
from repro.hardware.machines import DESKTOP

from tests.conftest import make_stencil_program, scale_env

APP = "SeparableConv."
APP_SIZE = 96


def env_factory(n):
    return scale_env(n, seed=1)


def make_tuner(checkpoint_store=None, result_cache=None, **config_overrides):
    spec = benchmark(APP)
    compiled = compile_program(spec.build_program(), DESKTOP)
    config_overrides.setdefault("resume", False)
    return EvolutionaryTuner(
        compiled,
        canonical_env_factory(APP),
        max_size=APP_SIZE,
        seed=1,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        config=TunerConfig.resolve(**config_overrides),
        result_cache=result_cache if result_cache is not None else ResultCache(None),
        checkpoint_store=checkpoint_store,
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


def make_driver(evaluator, strategy_name="evolutionary", **driver_kwargs):
    """A standalone driver over the benchmark app (plan built via a
    throwaway tuner, whose own evaluator is closed immediately)."""
    from repro.core.strategies import create_strategy

    planner = make_tuner(backend="serial")
    plan = planner._plan
    compiled = planner._compiled
    planner.close()
    driver_kwargs.setdefault("checkpoint_store", CheckpointStore(None))
    driver_kwargs.setdefault("resume", False)
    return TuningDriver(
        compiled,
        evaluator,
        create_strategy(strategy_name, plan),
        plan,
        **driver_kwargs,
    )


class TestScheduling:
    def test_driver_keeps_two_evaluations_in_flight_per_worker(self):
        """The acceptance bar: on a pooled backend the driver queues at
        least ``2 x workers`` speculative evaluations while committing.
        """
        workers = 2
        observed = []

        class Recording(ParallelEvaluator):
            def prefetch(self, configs, size):
                super().prefetch(configs, size)
                observed.append(self.inflight())

        spec = benchmark(APP)
        compiled = compile_program(spec.build_program(), DESKTOP)
        evaluator = Recording(
            compiled,
            canonical_env_factory(APP),
            workers=workers,
            accuracy_fn=spec.accuracy_fn,
            accuracy_target=spec.accuracy_target,
            seed=1,
            result_cache=ResultCache(None),
        )
        with make_driver(evaluator, inflight_per_worker=2) as driver:
            report = driver.run()
        assert report.evaluations > 0
        assert max(observed) >= 2 * workers, (
            f"peak speculative in-flight {max(observed)} never reached "
            f"2 evaluations per worker ({2 * workers})"
        )
        assert driver.stats.max_pending >= 2 * workers

    def test_driver_stats_track_the_pipeline(self):
        tuner = make_tuner(workers=4, backend="thread")
        try:
            report = tuner.tune()
        finally:
            tuner.close()
        stats = tuner.driver.stats
        assert stats.committed == len(tuner.driver._journal)
        assert stats.proposed == stats.committed + stats.discarded
        # The evolutionary strategy admits children, each admission
        # discarding the speculative tail.
        assert stats.invalidations > 0
        assert report.evaluations <= stats.committed  # memoised recommits

    def test_stalled_strategy_is_reported(self):
        from repro.core.strategies.base import SearchStrategy

        class Stalled(SearchStrategy):
            name = "stalled"

            def propose(self, k):
                return []

            def observe(self, proposal, evaluation):
                return False

            @property
            def finished(self):
                return False

            @property
            def history(self):
                return []

            def result(self):
                raise AssertionError

            def state_payload(self):
                return {}

            def restore_state(self, payload):
                pass

        planner = make_tuner(backend="serial")
        plan = planner._plan
        with TuningDriver(
            planner._compiled,
            planner.evaluator,
            Stalled(plan),
            plan,
            checkpoint_store=CheckpointStore(None),
            resume=False,
        ) as driver:
            with pytest.raises(TuningError, match="stalled"):
                driver.run()
        planner.close()


class TestLifecycle:
    def test_close_is_idempotent(self):
        tuner = make_tuner(workers=4, backend="thread")
        tuner.tune()
        tuner.close()
        tuner.close()  # must not raise
        tuner.close()

    def test_tuner_context_manager_closes_on_exception(self, monkeypatch):
        closed = []
        with pytest.raises(RuntimeError):
            with make_tuner(workers=2, backend="thread") as tuner:
                monkeypatch.setattr(
                    tuner.driver,
                    "close",
                    lambda real=tuner.driver.close: (closed.append(True), real())[1],
                )
                raise RuntimeError("boom")
        assert closed == [True]

    def test_driver_context_manager_releases_evaluator(self):
        tuner = make_tuner(workers=2, backend="thread")
        with tuner.driver as driver:
            driver.run()
        assert tuner.evaluator._executor is None  # pool shut down
        tuner.close()

    def test_run_after_close_raises_but_cached_report_survives(self):
        tuner = make_tuner(backend="serial")
        report = tuner.tune()
        tuner.close()
        assert tuner.tune() is report  # memoised result, no new search
        fresh = make_tuner(backend="serial")
        fresh.close()
        with pytest.raises(TuningError, match="closed"):
            fresh.tune()


class _Interrupted(Exception):
    pass


def _interruptable_tuner(store, fail_after, backend="serial", workers=1):
    tuner = make_tuner(
        backend=backend,
        workers=workers,
        checkpoint_store=store,
        checkpoint_every=16,
        resume=True,
    )
    if fail_after is not None:
        evaluator = tuner.evaluator
        state = {"count": 0}
        real = evaluator.evaluate

        def bomb(config, size):
            state["count"] += 1
            if state["count"] > fail_after:
                raise _Interrupted()
            return real(config, size)

        evaluator.evaluate = bomb  # type: ignore[method-assign]
    return tuner


class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return tune_program(
            compile_program(benchmark(APP).build_program(), DESKTOP),
            canonical_env_factory(APP),
            max_size=APP_SIZE,
            seed=1,
            accuracy_fn=benchmark(APP).accuracy_fn,
            accuracy_target=benchmark(APP).accuracy_target,
            config=TunerConfig.resolve(backend="serial", resume=False),
            result_cache=ResultCache(None),
        )

    @pytest.mark.parametrize("resume_backend", ["serial", "thread", "process"])
    def test_killed_session_resumes_byte_identical(
        self, tmp_path, uninterrupted, resume_backend
    ):
        """Kill a session mid-search; resuming — on any backend — must
        produce the byte-identical report of an uninterrupted run."""
        store = CheckpointStore(str(tmp_path))
        tuner = _interruptable_tuner(store, fail_after=90)
        with pytest.raises(_Interrupted):
            with tuner:
                tuner.tune()
        files = os.listdir(tmp_path)
        assert files, "no checkpoint was written before the kill"

        workers = 2 if resume_backend != "serial" else 1
        with _interruptable_tuner(
            store, fail_after=None, backend=resume_backend, workers=workers
        ) as resumed_tuner:
            resumed = resumed_tuner.tune()
            assert resumed_tuner.driver.stats.replayed > 0
        assert report_key(resumed) == report_key(uninterrupted)

    def test_completed_session_resumes_from_final_checkpoint(
        self, tmp_path, uninterrupted
    ):
        store = CheckpointStore(str(tmp_path))
        with _interruptable_tuner(store, fail_after=None) as tuner:
            first = tuner.tune()
        with _interruptable_tuner(store, fail_after=None) as tuner:
            replayed = tuner.tune()
            # A finished checkpoint restores the report without
            # committing a single evaluation.
            assert tuner.evaluator.evaluations == 0
        assert report_key(replayed) == report_key(first)
        assert report_key(replayed) == report_key(uninterrupted)

    def test_resume_off_ignores_checkpoints(self, tmp_path, uninterrupted):
        store = CheckpointStore(str(tmp_path))
        with _interruptable_tuner(store, fail_after=None) as tuner:
            tuner.tune()
        fresh = make_tuner(
            backend="serial", checkpoint_store=store, resume=False
        )
        with fresh:
            report = fresh.tune()
            assert fresh.driver.stats.replayed == 0
            assert fresh.evaluator.evaluations > 0
        assert report_key(report) == report_key(uninterrupted)

    def test_corrupt_checkpoint_is_ignored(self, tmp_path, uninterrupted):
        store = CheckpointStore(str(tmp_path))
        tuner = _interruptable_tuner(store, fail_after=90)
        with pytest.raises(_Interrupted):
            with tuner:
                tuner.tune()
        for name in os.listdir(tmp_path):
            (tmp_path / name).write_text("{ not json")
        with _interruptable_tuner(store, fail_after=None) as tuner:
            report = tuner.tune()
            assert tuner.driver.stats.replayed == 0  # started over
        assert report_key(report) == report_key(uninterrupted)

    @pytest.mark.parametrize(
        "field, text",
        [
            ("journal", "{}"),
            ("journal", "[]"),
            ("journal", "not json"),
            ("journal", '{"program": "x", "selectors": {"T": {}}}'),
            ("report", "not json"),
        ],
    )
    def test_malformed_configuration_in_a_checkpoint_starts_over(
        self, tmp_path, uninterrupted, field, text
    ):
        """A checkpoint whose configuration text does not decode (the
        first journal entry of a partial checkpoint, or the best of a
        complete one) is ignored like any corrupt checkpoint: nothing is
        restored or replayed, and the session starts over."""
        store = CheckpointStore(str(tmp_path))
        if field == "journal":
            tuner = _interruptable_tuner(store, fail_after=90)
            with pytest.raises(_Interrupted):
                with tuner:
                    tuner.tune()
        else:
            with _interruptable_tuner(store, fail_after=None) as tuner:
                tuner.tune()
        identity = tuner._driver._identity()
        entry = store.load(identity)
        if field == "journal":
            assert not entry["complete"] and entry["journal"]
            entry["journal"][0][0] = text
        else:
            assert entry["complete"]
            entry["report"]["best"] = text
        store.save(identity, entry)

        with _interruptable_tuner(store, fail_after=None) as tuner:
            report = tuner.tune()
            assert tuner.driver.stats.replayed == 0
            assert tuner.evaluator.evaluations > 0  # started over
        assert report_key(report) == report_key(uninterrupted)

    def test_incompatible_strategy_state_restarts_cleanly(
        self, tmp_path, uninterrupted
    ):
        """A checkpoint whose strategy state no longer restores (older
        layout, missing keys) must yield a pristine fresh session, not
        a half-restored strategy."""
        store = CheckpointStore(str(tmp_path))
        tuner = _interruptable_tuner(store, fail_after=None)
        identity = tuner._driver._identity()
        store.save(
            identity,
            {
                "complete": False,
                "journal": [],
                # Valid JSON, right strategy name, missing every other
                # key: restore_state raises after mutating some fields.
                "strategy_state": {"strategy": "evolutionary", "phase": "members"},
            },
        )
        with tuner:
            report = tuner.tune()
            assert tuner.driver.stats.replayed == 0
        assert report_key(report) == report_key(uninterrupted)

    def test_resume_without_store_warns_once(self, monkeypatch, capsys):
        import repro.core.driver as driver_module

        monkeypatch.setattr(driver_module, "_RESUME_WARNED", False)
        with make_tuner(
            backend="serial", checkpoint_store=CheckpointStore(None), resume=True
        ) as tuner:
            tuner.tune()
        err = capsys.readouterr().err
        assert "resume requested but checkpointing is disabled" in err

    def test_checkpoints_are_keyed_by_strategy_and_seed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with _interruptable_tuner(store, fail_after=None) as tuner:
            tuner.tune()
        # A different strategy on the same store must not collide.
        other = make_tuner(
            backend="serial",
            checkpoint_store=store,
            resume=True,
            strategy="hillclimb",
        )
        with other:
            report = other.tune()
        assert report.strategy == "hillclimb"
        assert other.evaluator.evaluations > 0  # genuinely searched

    def test_store_from_environment_respects_cache_dir(self, monkeypatch, tmp_path):
        """``REPRO_CACHE_DIR`` reaches the checkpoint store through the
        config an entry point resolves."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Session() as session:
            assert session.checkpoints.enabled
            assert session.checkpoints.directory == os.path.join(
                str(tmp_path), "checkpoints"
            )
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        with Session() as session:
            assert not session.checkpoints.enabled

    def test_store_save_and_clear_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        identity = {"program": "p", "seed": 1}
        store.save(identity, {"complete": False, "journal": []})
        entry = store.load(identity)
        assert entry is not None and entry["journal"] == []
        assert store.load({"program": "other", "seed": 1}) is None
        store.clear(identity)
        assert store.load(identity) is None


class TestProgress:
    def test_one_line_per_round_plus_summary(self):
        lines = []
        spec = benchmark(APP)
        compiled = compile_program(spec.build_program(), DESKTOP)
        report = tune_program(
            compiled,
            canonical_env_factory(APP),
            max_size=APP_SIZE,
            seed=1,
            accuracy_fn=spec.accuracy_fn,
            accuracy_target=spec.accuracy_target,
            config=TunerConfig.resolve(backend="serial", resume=False),
            result_cache=ResultCache(None),
            progress=lines.append,
        )
        rounds = [line for line in lines if " round " in line]
        assert len(rounds) == len(report.sizes)
        assert all("proposed=" in line and "best=" in line for line in rounds)
        assert any("finished" in line for line in lines)
        assert all("strategy=evolutionary" in line for line in rounds)

    def test_silent_by_default(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TUNER_PROGRESS", raising=False)
        compiled = compile_program(make_stencil_program(5), DESKTOP)
        tune_program(
            compiled,
            env_factory,
            max_size=2048,
            seed=1,
            config=TunerConfig.resolve(backend="serial", resume=False),
            result_cache=ResultCache(None),
        )
        assert "[tune]" not in capsys.readouterr().err

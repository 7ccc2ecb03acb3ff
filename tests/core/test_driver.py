"""Tests for the asynchronous tuning driver: scheduling, lifecycle,
resuming killed sessions from the evaluation log, stored reports and
progress reporting."""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import Session, tune_program
from repro.api.config import TunerConfig
from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.driver import CheckpointStore, TuningDriver
from repro.core.parallel import ParallelEvaluator
from repro.core.report import report_to_payload
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner, TuningReport
from repro.errors import TuningError
from repro.hardware.machines import DESKTOP

from tests.conftest import make_stencil_program, scale_env

APP = "SeparableConv."
APP_SIZE = 96


def env_factory(n):
    return scale_env(n, seed=1)


def make_tuner(
    checkpoint_store=None, result_cache=None, on_candidate=None, **config_overrides
):
    """A SeparableConv. tuner.  Its evaluation log and stored reports
    live in ``config_overrides["cache_dir"]``; without one, neither is
    kept."""
    spec = benchmark(APP)
    compiled = compile_program(spec.build_program(), DESKTOP)
    config_overrides.setdefault("resume", False)
    cache_dir = config_overrides.get("cache_dir")
    return EvolutionaryTuner(
        compiled,
        canonical_env_factory(APP),
        max_size=APP_SIZE,
        seed=1,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        config=TunerConfig.resolve(**config_overrides),
        result_cache=(
            result_cache if result_cache is not None else ResultCache(cache_dir)
        ),
        checkpoint_store=(
            checkpoint_store
            if checkpoint_store is not None
            else CheckpointStore.for_cache_dir(cache_dir)
        ),
        on_candidate=on_candidate,
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
        events = []
        tuner = make_tuner(workers=4, backend="thread", on_candidate=events.append)
        try:
            report = tuner.tune()
        finally:
            tuner.close()
        stats = tuner.driver.stats
        assert [event.committed for event in events] == list(
            range(1, stats.committed + 1)
        )
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


def _interruptable_tuner(
    cache_dir,
    fail_after,
    backend="serial",
    workers=1,
    strategy="evolutionary",
    resume=True,
    on_candidate=None,
):
    """A tuner keeping its log and stored report in ``cache_dir``,
    whose commit number ``fail_after + 1`` raises as a kill mid-search
    would (``None``: it never does)."""
    tuner = make_tuner(
        backend=backend,
        workers=workers,
        strategy=strategy,
        cache_dir=str(cache_dir),
        checkpoint_every=16,
        resume=resume,
        on_candidate=on_candidate,
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


def _changed_digit(text: str, field: str) -> str:
    """``text`` with the first digit of a JSON number field changed."""
    at = text.index(f'"{field}": ') + len(f'"{field}": ')
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


def _payload_bytes(report: TuningReport) -> str:
    """A report's canonical bytes, without the ``computed_evaluations``
    gauge."""
    payload = report_to_payload(report)
    payload.pop("computed_evaluations")
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def uninterrupted():
    """Each strategy's uninterrupted serial session with the disk cache
    off: its report and its committed evaluations."""
    runs = {}

    def run(strategy="evolutionary"):
        if strategy not in runs:
            with make_tuner(backend="serial", strategy=strategy) as tuner:
                report = tuner.tune()
            runs[strategy] = (report, tuner.driver.stats.committed)
        return runs[strategy]

    return run


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "strategy, resume_backend",
        [
            ("evolutionary", "serial"),
            ("hillclimb", "serial"),
            ("random", "serial"),
            ("bandit", "serial"),
            ("evolutionary", "thread"),
            ("evolutionary", "process"),
        ],
    )
    def test_killed_session_resumes_byte_identical(
        self, tmp_path, uninterrupted, strategy, resume_backend
    ):
        """Kill a session mid-search and run it again on the same cache
        directory, on any backend: the report is byte-identical to an
        uninterrupted run's.  The killed run leaves its evaluation log
        and nothing under ``checkpoints/``; on serial the two runs
        together simulate exactly what the uninterrupted one did."""
        report, committed = uninterrupted(strategy)
        killed = _interruptable_tuner(
            tmp_path, fail_after=committed // 2, strategy=strategy
        )
        with pytest.raises(_Interrupted):
            with killed:
                killed.tune()
        assert glob.glob(str(tmp_path / "*.log")), "the killed run left no log"
        assert glob.glob(str(tmp_path / "checkpoints" / "*")) == []

        events = []
        workers = 2 if resume_backend != "serial" else 1
        with _interruptable_tuner(
            tmp_path,
            fail_after=None,
            backend=resume_backend,
            workers=workers,
            strategy=strategy,
            on_candidate=events.append,
        ) as resumed_tuner:
            resumed = resumed_tuner.tune()
        assert _payload_bytes(resumed) == _payload_bytes(report)
        # Observers see the whole session, numbered from the first commit.
        assert [event.committed for event in events] == list(
            range(1, committed + 1)
        )
        if resume_backend == "serial":
            assert (
                killed.evaluator.computed_evaluations
                + resumed.computed_evaluations
                == report.computed_evaluations
            )

    def test_sigkilled_process_resumes_from_its_log(self, tmp_path):
        """SIGKILL a process tuning Sort once its log holds 20 records:
        tuning the session again, with ``resume`` off, gives the
        uninterrupted report and simulates only what the log lacks."""
        size = 16384
        spec = benchmark("Sort")
        compiled = compile_program(spec.build_program(), DESKTOP)

        def tune(config):
            return tune_program(
                compiled,
                canonical_env_factory("Sort"),
                max_size=size,
                seed=1,
                accuracy_fn=spec.accuracy_fn,
                accuracy_target=spec.accuracy_target,
                config=config,
            )

        fields = dict(
            backend="serial", workers=1, strategy="evolutionary",
            resume=False, progress=False,
        )
        # On a cold cache of its own, so it counts every simulation.
        uninterrupted = tune(
            TunerConfig.resolve(**fields, cache_dir=str(tmp_path / "cold"))
        )

        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _SORT_CHILD, str(cache_dir), str(size)],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 300
        try:
            while child.poll() is None:
                if _logged_records(cache_dir) >= 20:
                    os.kill(child.pid, signal.SIGKILL)
                    break
                if time.monotonic() > deadline:
                    pytest.fail("the child logged under 20 records in 300 s")
                time.sleep(0.005)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode == -signal.SIGKILL:
            assert glob.glob(str(cache_dir / "checkpoints" / "*")) == []
        else:
            assert child.returncode == 0  # finished before the kill
        logged = _logged_records(cache_dir)
        assert logged >= 20

        resumed = tune(TunerConfig.resolve(**fields, cache_dir=str(cache_dir)))
        assert _payload_bytes(resumed) == _payload_bytes(uninterrupted)
        assert resumed.computed_evaluations == (
            uninterrupted.computed_evaluations - logged
        )

    def test_completed_session_resumes_from_final_checkpoint(
        self, tmp_path, uninterrupted
    ):
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            first = tuner.tune()
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            replayed = tuner.tune()
            # A finished session's stored report is served without
            # committing a single evaluation.
            assert tuner.evaluator.evaluations == 0
        assert report_key(replayed) == report_key(first)
        assert report_key(replayed) == report_key(uninterrupted()[0])

    def test_resume_off_ignores_checkpoints(self, tmp_path, uninterrupted):
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            tuner.tune()
        with _interruptable_tuner(tmp_path, fail_after=None, resume=False) as fresh:
            report = fresh.tune()
            assert fresh.evaluator.evaluations > 0  # tuned again...
            assert fresh.evaluator.computed_evaluations == 0  # ...from the log
        assert report_key(report) == report_key(uninterrupted()[0])

    def test_corrupt_checkpoint_is_ignored(self, tmp_path, uninterrupted):
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            tuner.tune()
        checkpoints = tmp_path / "checkpoints"
        names = sorted(os.listdir(checkpoints))
        assert names
        for name in names:
            (checkpoints / name).write_text("{ not json")
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            report = tuner.tune()
            assert tuner.evaluator.evaluations > 0  # started over
        assert report_key(report) == report_key(uninterrupted()[0])
        assert sorted(os.listdir(checkpoints / "quarantine")) == names

    def test_a_changed_digit_in_a_stored_report_is_not_served(
        self, tmp_path, uninterrupted
    ):
        """One changed digit of a finished report's ``best_time_s``
        still parses, but no longer matches the file's checksum: the
        rerun tunes again instead of serving the changed time."""
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            tuner.tune()
        (path,) = glob.glob(str(tmp_path / "checkpoints" / "tune_*.json"))
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_changed_digit(text, "best_time_s"))
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            report = tuner.tune()
            assert tuner.evaluator.evaluations > 0
        assert report_key(report) == report_key(uninterrupted()[0])

    @pytest.mark.parametrize(
        "text", ["not json", '{"program": "x", "selectors": {"T": {}}}']
    )
    def test_malformed_configuration_in_a_checkpoint_starts_over(
        self, tmp_path, uninterrupted, text
    ):
        """A finished report whose best configuration does not decode is
        ignored like any corrupt checkpoint, though its checksum holds:
        the session tunes again."""
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            tuner.tune()
        store = CheckpointStore.for_cache_dir(str(tmp_path))
        identity = tuner._driver._identity()
        entry = store.load(identity)
        assert entry["complete"]
        entry["report"]["best"] = text
        store.save(identity, entry)
        assert store.load(identity)["report"]["best"] == text

        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            report = tuner.tune()
            assert tuner.evaluator.evaluations > 0  # started over
        assert report_key(report) == report_key(uninterrupted()[0])

    @pytest.mark.parametrize("checkpoint_every", [0, 16])
    def test_the_log_syncs_every_checkpoint_every_commits(
        self, tmp_path, checkpoint_every
    ):
        syncs = []

        class Counting(ResultCache):
            def sync(self):
                syncs.append(self.directory)
                super().sync()

        with make_tuner(
            backend="serial",
            cache_dir=str(tmp_path),
            checkpoint_every=checkpoint_every,
            result_cache=Counting(str(tmp_path)),
        ) as tuner:
            tuner.tune()
            stats = tuner.driver.stats
            expected = stats.committed // checkpoint_every if checkpoint_every else 0
            assert stats.checkpoints_written == expected
            assert len(syncs) == expected
        assert len(syncs) == expected + 1  # the evaluator's close

    def test_without_a_log_nothing_syncs(self):
        with make_tuner(backend="serial", checkpoint_every=1) as tuner:
            tuner.tune()
            assert tuner.driver.stats.checkpoints_written == 0

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
        with _interruptable_tuner(tmp_path, fail_after=None) as tuner:
            tuner.tune()
        # A different strategy on the same store must not collide.
        with _interruptable_tuner(
            tmp_path, fail_after=None, strategy="hillclimb"
        ) as other:
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

    def test_store_save_and_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        identity = {"program": "p", "seed": 1}
        store.save(identity, {"complete": True, "report": {"seed": 1}})
        entry = store.load(identity)
        assert entry is not None and entry["report"] == {"seed": 1}
        assert store.load({"program": "other", "seed": 1}) is None
        with open(store.path_for(identity), encoding="utf-8") as handle:
            assert len(json.load(handle)["checksum"]) == 16


#: A child process tuning Sort serially into a cache directory.
_SORT_CHILD = """
import sys

from repro.api import TunerConfig, tune_program
from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.hardware.machines import DESKTOP

spec = benchmark("Sort")
tune_program(
    compile_program(spec.build_program(), DESKTOP),
    canonical_env_factory("Sort"),
    max_size=int(sys.argv[2]),
    seed=1,
    accuracy_fn=spec.accuracy_fn,
    accuracy_target=spec.accuracy_target,
    config=TunerConfig.resolve(
        backend="serial", workers=1, strategy="evolutionary",
        resume=False, progress=False, cache_dir=sys.argv[1],
    ),
)
"""


def _logged_records(cache_dir) -> int:
    """Complete records in the evaluation logs under ``cache_dir``."""
    count = 0
    for path in glob.glob(os.path.join(str(cache_dir), "*.log")):
        with open(path, "rb") as handle:
            context = json.loads(handle.readline())
        count += len(ResultCache(str(cache_dir)).get(context) or ())
    return count

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

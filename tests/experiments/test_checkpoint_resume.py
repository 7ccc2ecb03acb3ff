"""Batch-level resume: a killed ``Session.run_batch`` must resume to
byte-identical reports on every backend.

The kill is simulated by making candidate evaluation raise after a
fixed number of commits, inside the first session's search, so the
evaluation log holds part of that session.  The resumed batch runs
under each session backend (``serial``, ``thread``, ``process``)
against the same ``REPRO_CACHE_DIR``; its final reports must match an
uninterrupted baseline field for field (``computed_evaluations``
excepted — resuming legitimately changes how much physical simulation
happened).
"""

from __future__ import annotations

import os

import pytest

from repro.api import Session, TunerConfig
from repro.core.fitness import Evaluator
from repro.core.report import TuningReport
from repro.experiments.runner import clear_sessions

PAIRS = [("Strassen", "Desktop"), ("Poisson2D SOR", "Desktop")]

#: Evaluations before the injected kill: past the first log sync
#: (every 64 commits) and inside the first session's search.
KILL_AFTER = 100


class _Killed(Exception):
    pass


def _report_key(report: TuningReport):
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


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Uninterrupted batch in its own cache dir (so its logs and
    stored reports cannot leak into the kill/resume runs)."""
    cache = tmp_path_factory.mktemp("baseline_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    clear_sessions()
    try:
        with Session(
            TunerConfig.resolve(
                tune_many_workers=1, backend="serial", resume=False
            )
        ) as api_session:
            sessions = api_session.run_batch(PAIRS)
        return {key: _report_key(s.report) for key, s in sessions.items()}
    finally:
        clear_sessions()
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


def _kill_then_resume(monkeypatch, tmp_path, resume_backend, workers):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_sessions()

    state = {"count": 0}
    real = Evaluator.evaluate

    def bomb(self, config, size):
        state["count"] += 1
        if state["count"] > KILL_AFTER:
            raise _Killed()
        return real(self, config, size)

    monkeypatch.setattr(Evaluator, "evaluate", bomb)
    with pytest.raises(_Killed):
        with Session(
            TunerConfig.resolve(
                tune_many_workers=1, backend="serial", resume=True
            )
        ) as api_session:
            api_session.run_batch(PAIRS)
    monkeypatch.setattr(Evaluator, "evaluate", real)
    logs = [name for name in os.listdir(tmp_path) if name.endswith(".log")]
    assert logs, "the killed batch left no evaluation log behind"

    clear_sessions()
    with Session(
        TunerConfig.resolve(
            tune_many_workers=workers, backend=resume_backend, resume=True
        )
    ) as api_session:
        sessions = api_session.run_batch(PAIRS)
    clear_sessions()
    return {key: _report_key(s.report) for key, s in sessions.items()}


def test_killed_tune_many_resumes_byte_identical_serial(
    monkeypatch, tmp_path, baseline
):
    resumed = _kill_then_resume(monkeypatch, tmp_path, "serial", workers=1)
    assert resumed == baseline


@pytest.mark.slow
def test_killed_tune_many_resumes_byte_identical_thread(
    monkeypatch, tmp_path, baseline
):
    resumed = _kill_then_resume(monkeypatch, tmp_path, "thread", workers=2)
    assert resumed == baseline


@pytest.mark.slow
def test_killed_tune_many_resumes_byte_identical_process(
    monkeypatch, tmp_path, baseline
):
    resumed = _kill_then_resume(monkeypatch, tmp_path, "process", workers=2)
    assert resumed == baseline

"""Batch tuning (`Session.run_batch`): concurrency must be invisible
in the results, and the session cache must be thread-safe."""

from __future__ import annotations

import threading

import pytest

from repro.api import Session, TunerConfig, tune_program
from repro.apps.registry import benchmark
from repro.compiler.compile import compile_program
from repro.errors import ConfigError
from repro.experiments import runner
from repro.experiments.runner import DEFAULT_SEED, clear_sessions
from repro.hardware.machines import DESKTOP, LAPTOP, SERVER

#: Four cheap (benchmark, machine) pairs spanning machines and apps.
PAIRS = [
    ("Strassen", DESKTOP),
    ("Strassen", SERVER),
    ("Poisson2D SOR", LAPTOP),
    ("SVD", DESKTOP),
]


@pytest.fixture(autouse=True)
def fresh_session_cache():
    clear_sessions()
    yield
    clear_sessions()


def batch(pairs, **config_overrides):
    """Run one batch through a fresh Session on the environment config
    plus explicit overrides (`workers` = concurrent sessions)."""
    with Session(TunerConfig.resolve(**config_overrides)) as session:
        return session.run_batch(pairs, seed=DEFAULT_SEED)


def sequential_best(name: str, machine, seed: int) -> str:
    """Reference: a plain sequential autotune call for one pair."""
    spec = benchmark(name)
    compiled = compile_program(spec.build_program(), machine)
    report = tune_program(
        compiled,
        lambda size: spec.make_env(size, seed=0),
        max_size=spec.tuning_size,
        seed=seed,
        label=f"{machine.codename} Config",
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
    )
    return report.best.to_json()


def test_run_batch_matches_sequential_autotune():
    """Acceptance: 4 pairs, 4 workers — byte-identical winners."""
    sessions = batch(PAIRS, tune_many_workers=4)
    assert len(sessions) == len(PAIRS)
    for name, machine in PAIRS:
        concurrent = sessions[(name, machine.codename)].report.best.to_json()
        reference = sequential_best(name, machine, DEFAULT_SEED)
        assert concurrent == reference, f"{name} on {machine.codename} diverged"


def test_run_batch_populates_the_session_cache():
    with Session(TunerConfig.resolve(tune_many_workers=2)) as session:
        sessions = session.run_batch(PAIRS[:2], seed=DEFAULT_SEED)
        for name, machine in PAIRS[:2]:
            cached = session.tune(name, machine, seed=DEFAULT_SEED)
            assert cached is sessions[(name, machine.codename)]


def test_run_batch_deduplicates_pairs():
    sessions = batch(
        [PAIRS[0], PAIRS[0], ("Strassen", "Desktop")], tune_many_workers=2
    )
    assert len(sessions) == 1


def test_run_batch_accepts_machine_codenames():
    sessions = batch([("Strassen", "Desktop")], tune_many_workers=1)
    assert ("Strassen", "Desktop") in sessions


def test_session_for_is_single_flight_under_contention():
    """Concurrent callers for one key share a single tuning run."""
    results = []
    barrier = threading.Barrier(4)
    config = TunerConfig.resolve()

    def worker():
        barrier.wait()
        results.append(
            runner.session_for("Strassen", DESKTOP, DEFAULT_SEED, config)
        )

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 4
    assert all(session is results[0] for session in results)


def report_fields(session):
    report = session.report
    return (
        report.best.to_json(),
        report.best_time_s,
        report.tuning_time_s,
        report.evaluations,
        report.sizes,
        report.history,
    )


def test_run_batch_process_backend_matches_serial():
    """Process-sharded batches: byte-identical reports, full sessions."""
    sharded = batch(PAIRS, tune_many_workers=4, backend="process")
    clear_sessions()
    serial = batch(PAIRS, tune_many_workers=1, backend="serial")
    assert len(sharded) == len(PAIRS)
    for name, machine in PAIRS:
        key = (name, machine.codename)
        assert report_fields(sharded[key]) == report_fields(serial[key]), (
            f"process shard diverged on {key}"
        )
        # Rebuilt sessions must be complete (compiled program included).
        assert sharded[key].compiled.program.name == serial[key].compiled.program.name


def test_run_batch_process_backend_populates_the_session_cache():
    with Session(
        TunerConfig.resolve(tune_many_workers=2, backend="process")
    ) as session:
        sessions = session.run_batch(PAIRS[:2], seed=DEFAULT_SEED)
        for name, machine in PAIRS[:2]:
            cached = session.tune(name, machine, seed=DEFAULT_SEED)
            assert cached is sessions[(name, machine.codename)]


def test_a_one_pair_process_batch_counts_its_cache_traffic(tmp_path):
    """With one pair left to tune, a process batch tunes it in this
    process: its log appends must reach the session's cache handle,
    as a sharded batch's shard counters do."""
    config = TunerConfig.resolve(
        backend="process", workers=1, tune_many_workers=2, cache_dir=str(tmp_path)
    )
    with Session(config) as session:
        session.tune("Strassen", DESKTOP, seed=DEFAULT_SEED)
        before = session.result_cache.stats.stores
        sessions = session.run_batch(
            [("Strassen", DESKTOP), ("Tridiagonal Solver", DESKTOP)],
            seed=DEFAULT_SEED,
        )
        report = sessions[("Tridiagonal Solver", "Desktop")].report
        assert report.computed_evaluations > 0
        assert (
            session.result_cache.stats.stores - before
            == report.computed_evaluations
        )


def test_run_batch_serial_backend_tunes_sequentially():
    sessions = batch(PAIRS[:2], tune_many_workers=4, backend="serial")
    assert len(sessions) == 2


def test_run_batch_forwards_backend_on_the_sequential_path(monkeypatch):
    """An explicit backend must reach the tuner even when the batch
    degenerates to the sequential path (e.g. `serial` must stay serial
    under a process-backend environment)."""
    captured = []
    real = runner._tune_one

    def spy(name, machine, seed, config, **kwargs):
        captured.append(config.backend)
        return real(name, machine, seed, config, **kwargs)

    monkeypatch.setattr(runner, "_tune_one", spy)
    batch(PAIRS[:1], tune_many_workers=1, backend="serial")
    assert captured == ["serial"]


def test_no_fork_config_never_returns_process(monkeypatch):
    """Sessions tuned on worker threads or inside shard children must
    never fork evaluation pools, whatever the environment says."""
    cases = [
        # (REPRO_TUNER_BACKEND, REPRO_TUNER_WORKERS, expected)
        ("process", "2", "thread"),
        ("process", "1", "serial"),
        (None, "2", "thread"),
        (None, None, "serial"),
        ("serial", "2", "serial"),
        ("thread", None, "thread"),
        ("auto", "3", "thread"),
    ]
    for backend_env, workers_env, expected in cases:
        environ = {}
        if backend_env is not None:
            environ["REPRO_TUNER_BACKEND"] = backend_env
        if workers_env is not None:
            environ["REPRO_TUNER_WORKERS"] = workers_env
        demoted = runner._no_fork_config(TunerConfig.resolve(environ=environ))
        assert demoted.backend == expected, (backend_env, workers_env)
        # A demotion must never read as a user-forced choice.
        if demoted.backend != backend_env:
            assert not demoted.is_explicit("backend")


def test_workers_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_TUNE_MANY_WORKERS", "7")
    with Session() as session:
        assert session.config.tune_many_workers == 7
    monkeypatch.setenv("REPRO_TUNE_MANY_WORKERS", "bogus")
    with pytest.raises(ConfigError, match="REPRO_TUNE_MANY_WORKERS"):
        Session()
    monkeypatch.delenv("REPRO_TUNE_MANY_WORKERS")
    with Session() as session:
        assert session.config.tune_many_workers == 4

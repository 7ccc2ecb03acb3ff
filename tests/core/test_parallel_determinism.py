"""Determinism lockdown for the parallel tuning engine.

The contract under test: ``EvolutionaryTuner`` with N speculative
workers — on *any* evaluation backend (``serial``, ``thread``,
``process``, ``cluster``) — produces a :class:`TuningReport`
*identical* to the serial tuner: same winning configuration
(byte-for-byte JSON), same history, same evaluation count, same
virtual tuning time — for every registered benchmark at small sizes;
and a warm disk cache replays a cold session exactly (while physically
simulating nothing).  Cluster legs run the full TCP wire protocol
against an in-process loopback fleet; robustness variants (a worker
killed mid-run, a worker joining late) live in ``tests/cluster``.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.api import tune_program
from repro.api.config import TunerConfig
from repro.apps.registry import all_benchmarks, benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.backends import BACKEND_NAMES
from repro.core.parallel import ParallelEvaluator
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner, TuningReport
from repro.hardware.machines import DESKTOP, LAPTOP, SERVER

from tests.conftest import make_stencil_program, scale_env

#: Small per-app tuning sizes keeping the whole suite fast.
SMALL_SIZES = {
    "Black-Sholes": 4096,
    "Poisson2D SOR": 64,
    "SeparableConv.": 96,
    "Sort": 4096,
    "Strassen": 64,
    "SVD": 48,
    "Tridiagonal Solver": 256,
}

APP_NAMES = [spec.name for spec in all_benchmarks()]

#: Process/cluster-backend legs kept in the fast tier; spawning a pool
#: (or loopback fleet) per app is the expensive part, so the rest of
#: the matrix runs as `slow`.
FAST_POOLED_APPS = {"Strassen", "Poisson2D SOR"}

#: The full (app x backend) determinism matrix.
BACKEND_MATRIX = [
    pytest.param(
        name,
        backend,
        marks=[pytest.mark.slow]
        if backend in ("process", "cluster") and name not in FAST_POOLED_APPS
        else [],
        id=f"{name}-{backend}",
    )
    for name in APP_NAMES
    for backend in BACKEND_NAMES
]


def report_key(report: TuningReport):
    """Everything a TuningReport observable promises (sans the
    physical-compute counter, which legitimately varies with cache
    warmth)."""
    return (
        report.best.to_json(),
        report.best_time_s,
        report.tuning_time_s,
        report.evaluations,
        report.sizes,
        report.history,
    )


def tune_app(name: str, workers: int, machine=DESKTOP, seed: int = 1,
             result_cache=None, backend=None, strategy=None,
             batch_lanes=None) -> TuningReport:
    spec = benchmark(name)
    compiled = compile_program(spec.build_program(), machine)
    return tune_program(
        compiled,
        canonical_env_factory(name),
        max_size=min(spec.tuning_size, SMALL_SIZES[name]),
        seed=seed,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        config=TunerConfig.resolve(
            workers=workers, backend=backend, strategy=strategy,
            batch_lanes=batch_lanes,
        ),
        result_cache=result_cache,
    )


def tune_app_with_hits(name: str, result_cache, batch_lanes: int):
    """A one-worker serial :func:`tune_app` session, plus how many of
    its candidates the evaluator served from a decision tree
    (:attr:`~repro.core.fitness.Evaluator.path_hits`)."""
    spec = benchmark(name)
    compiled = compile_program(spec.build_program(), DESKTOP)
    with EvolutionaryTuner(
        compiled,
        canonical_env_factory(name),
        max_size=min(spec.tuning_size, SMALL_SIZES[name]),
        seed=1,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        config=TunerConfig.resolve(
            workers=1, backend="serial", batch_lanes=batch_lanes
        ),
        result_cache=result_cache,
    ) as tuner:
        return tuner.tune(), tuner.evaluator.path_hits


#: Serial baselines, tuned once per app and shared by every matrix leg.
_BASELINES: Dict[str, TuningReport] = {}


def baseline_report(name: str) -> TuningReport:
    if name not in _BASELINES:
        _BASELINES[name] = tune_app(
            name, workers=1, backend="serial", result_cache=ResultCache(None)
        )
    return _BASELINES[name]


@pytest.mark.parametrize("name,backend", BACKEND_MATRIX)
def test_backend_matrix_report_identical_to_serial(name, backend):
    """The acceptance matrix: every backend, every registered app.

    All legs run with the disk layer disabled so the pooled backends
    genuinely evaluate on their workers (threads or processes) instead
    of replaying the baseline's cache entries.
    """
    tuned = tune_app(
        name, workers=4, backend=backend, result_cache=ResultCache(None)
    )
    assert report_key(tuned) == report_key(baseline_report(name)), (
        f"backend={backend} diverged from serial on {name}"
    )


#: Non-default strategies in the backend matrix: two apps, every
#: backend, against that strategy's own serial baseline.
STRATEGY_MATRIX_APPS = ("Strassen", "SeparableConv.")

_STRATEGY_BASELINES: Dict[str, TuningReport] = {}


def strategy_baseline(name: str, strategy: str) -> TuningReport:
    key = f"{name}:{strategy}"
    if key not in _STRATEGY_BASELINES:
        _STRATEGY_BASELINES[key] = tune_app(
            name, workers=1, backend="serial",
            result_cache=ResultCache(None), strategy=strategy,
        )
    return _STRATEGY_BASELINES[key]


@pytest.mark.parametrize("name", STRATEGY_MATRIX_APPS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_nondefault_strategy_backend_invariance(name, backend):
    """The ordered-commit layer preserves per-strategy determinism: a
    non-default strategy's report is identical on every backend too."""
    tuned = tune_app(
        name, workers=4, backend=backend,
        result_cache=ResultCache(None), strategy="hillclimb",
    )
    baseline = strategy_baseline(name, "hillclimb")
    assert tuned.strategy == "hillclimb"
    assert report_key(tuned) == report_key(baseline), (
        f"backend={backend} diverged from serial on {name} (hillclimb)"
    )


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_worker_count_never_changes_the_report(workers):
    """The stencil program across several pool widths and machines
    (disk layer disabled — see above)."""
    for machine in (DESKTOP, SERVER, LAPTOP):
        compiled = compile_program(make_stencil_program(5), machine)
        serial = tune_program(
            compiled, lambda n: scale_env(n, seed=1), max_size=50_000, seed=9,
            config=TunerConfig.resolve(backend="serial"),
            result_cache=ResultCache(None),
        )
        parallel = tune_program(
            compiled, lambda n: scale_env(n, seed=1), max_size=50_000, seed=9,
            config=TunerConfig.resolve(workers=workers, backend="thread"),
            result_cache=ResultCache(None),
        )
        assert report_key(parallel) == report_key(serial), (
            f"workers={workers} diverged on {machine.codename}"
        )


def test_parallel_evaluator_prefetch_does_not_change_accounting(compiled_stencil):
    """Speculative prefetch of configurations that are never committed
    must not touch the logical counters."""
    from repro.core.configuration import default_configuration
    from repro.core.selector import Selector

    with ParallelEvaluator(
        compiled_stencil, lambda n: scale_env(n, seed=1), workers=4,
        result_cache=ResultCache(None),
    ) as evaluator:
        base = default_configuration(compiled_stencil.training_info)
        gpu = base.with_selector("Stencil", Selector.constant(1))
        evaluator.prefetch([base, gpu], 1024)
        committed = evaluator.evaluate(base, 1024)
        assert evaluator.evaluations == 1
        # The speculative gpu result may already be computed, but only
        # commits count.
        assert evaluator.tuning_time_s == pytest.approx(
            committed.time_s + evaluator.jit.total_compile_time_s
        )


@pytest.mark.parametrize("name", APP_NAMES)
def test_batched_serial_identical_to_scalar_serial(name):
    """The serial backend ignores ``batch_lanes``: a serial session
    with ``batch_lanes=4`` produces a TuningReport byte-identical to
    the one-lane serial baseline — whether the app's evaluations are
    elided (Black-Scholes, SeparableConv., Strassen, Poisson2D SOR,
    Tridiagonal) or numeric (Sort's data-dependent pivot, SVD's
    accuracy hook)."""
    batched = tune_app(
        name, workers=1, backend="serial",
        result_cache=ResultCache(None), batch_lanes=4,
    )
    assert report_key(batched) == report_key(baseline_report(name)), (
        f"batch_lanes=4 diverged from scalar serial on {name}"
    )


#: Batched pooled legs: the lane-batchable poster child on the thread
#: backend, plus one process and one cluster leg on a fast pooled app.
BATCHED_POOLED_LEGS = [
    ("SeparableConv.", "thread"),
    ("Strassen", "process"),
    ("Strassen", "cluster"),
]


@pytest.mark.parametrize(
    "name,backend",
    [pytest.param(n, b, id=f"{n}-{b}-batched") for n, b in BATCHED_POOLED_LEGS],
)
def test_batched_pooled_identical_to_serial(name, backend):
    """Batch lanes compose with speculative pooled prefetch: one
    submission carries the whole chunk, results fan back out per lane,
    and the ordered-commit layer keeps the report identical."""
    tuned = tune_app(
        name, workers=4, backend=backend,
        result_cache=ResultCache(None), batch_lanes=4,
    )
    assert report_key(tuned) == report_key(baseline_report(name)), (
        f"backend={backend} batch_lanes=4 diverged from serial on {name}"
    )


def test_serial_batch_lanes_do_not_speculate():
    """The serial backend ignores ``batch_lanes``: every evaluation it
    commits is either simulated or served from a decision tree, never
    speculated, and its report is the one-lane one."""
    wide, path_hits = tune_app_with_hits(
        "SeparableConv.", ResultCache(None), batch_lanes=8
    )
    narrow = tune_app(
        "SeparableConv.", workers=1, backend="serial",
        result_cache=ResultCache(None), batch_lanes=1,
    )
    assert path_hits > 0
    assert wide.computed_evaluations + path_hits == wide.evaluations
    assert report_key(wide) == report_key(narrow)


def test_batch_lanes_env_knob(monkeypatch, compiled_stencil):
    """The knob reaches the resolved config and, through it, the pooled
    evaluator's submission width; the serial evaluator carries none."""
    monkeypatch.setenv("REPRO_TUNER_BATCH_LANES", "4")
    monkeypatch.delenv("REPRO_TUNER_BACKEND", raising=False)
    for workers, lanes in (("1", None), ("2", 4)):
        monkeypatch.setenv("REPRO_TUNER_WORKERS", workers)
        tuner = EvolutionaryTuner(
            compiled_stencil, lambda n: scale_env(n, seed=1), max_size=1024
        )
        try:
            assert tuner.config.batch_lanes == 4
            assert getattr(tuner.evaluator, "batch_lanes", None) == lanes
        finally:
            tuner.close()


def test_cold_vs_warm_disk_cache_equivalence(tmp_path):
    """A warm cache must replay the cold session bit-for-bit while
    simulating nothing, decision-tree hits included (they are written
    through to the disk cache).  Pinned to ``batch_lanes=1``: the
    computed + path hits == evaluations identity is a scalar-serial
    contract (lane batching may speculatively compute whole chunks
    that are later discarded, legitimately inflating the physical
    counter)."""
    cold, path_hits = tune_app_with_hits(
        "SeparableConv.", ResultCache(str(tmp_path)), batch_lanes=1
    )
    warm = tune_app("SeparableConv.", workers=1, backend="serial",
                    result_cache=ResultCache(str(tmp_path)), batch_lanes=1)
    assert report_key(warm) == report_key(cold)
    assert path_hits > 0
    assert cold.computed_evaluations + path_hits == cold.evaluations
    assert warm.computed_evaluations == 0


def test_cold_parallel_vs_warm_serial_equivalence(tmp_path):
    """Cache written by a thread-pool session must satisfy a serial one.

    The warm sessions here (and below) pin ``batch_lanes=1``: a scalar
    serial replay computes exactly the committed sequence, which every
    cold session writes through — so ``computed_evaluations == 0`` is
    guaranteed regardless of how wide the cold session speculated.
    """
    cold = tune_app("Tridiagonal Solver", workers=4, backend="thread",
                    result_cache=ResultCache(str(tmp_path)))
    warm = tune_app("Tridiagonal Solver", workers=1, backend="serial",
                    result_cache=ResultCache(str(tmp_path)), batch_lanes=1)
    assert report_key(warm) == report_key(cold)
    assert warm.computed_evaluations == 0


def test_cold_process_vs_warm_serial_equivalence(tmp_path):
    """Worker *processes* write through the shared disk cache with
    requester-compatible keys: a serial session on the same directory
    must replay a cold process-backend session without simulating."""
    cold = tune_app("Strassen", workers=2, backend="process",
                    result_cache=ResultCache(str(tmp_path)))
    warm = tune_app("Strassen", workers=1, backend="serial",
                    result_cache=ResultCache(str(tmp_path)), batch_lanes=1)
    assert report_key(warm) == report_key(cold)
    assert warm.computed_evaluations == 0


def test_cold_cluster_vs_warm_serial_equivalence(tmp_path):
    """Loopback cluster workers run in-process but write through the
    same shared disk cache with requester-compatible keys: a serial
    session on the same directory must replay a cold cluster-backend
    session without simulating."""
    cold = tune_app("Strassen", workers=2, backend="cluster",
                    result_cache=ResultCache(str(tmp_path)))
    warm = tune_app("Strassen", workers=1, backend="serial",
                    result_cache=ResultCache(str(tmp_path)), batch_lanes=1)
    assert report_key(warm) == report_key(cold)
    assert warm.computed_evaluations == 0


def test_tuner_exposes_parallel_evaluator_only_when_asked(
    monkeypatch, compiled_stencil
):
    monkeypatch.delenv("REPRO_TUNER_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_TUNER_BACKEND", raising=False)
    serial = EvolutionaryTuner(
        compiled_stencil, lambda n: scale_env(n, seed=1), max_size=1024
    )
    parallel = EvolutionaryTuner(
        compiled_stencil, lambda n: scale_env(n, seed=1), max_size=1024,
        config=TunerConfig.resolve(workers=4),
    )
    try:
        assert not isinstance(serial.evaluator, ParallelEvaluator)
        assert isinstance(parallel.evaluator, ParallelEvaluator)
        assert parallel.evaluator.workers == 4
    finally:
        serial.close()
        parallel.close()


def test_workers_env_knob(monkeypatch, compiled_stencil):
    monkeypatch.setenv("REPRO_TUNER_WORKERS", "3")
    monkeypatch.delenv("REPRO_TUNER_BACKEND", raising=False)
    tuner = EvolutionaryTuner(
        compiled_stencil, lambda n: scale_env(n, seed=1), max_size=1024
    )
    try:
        assert isinstance(tuner.evaluator, ParallelEvaluator)
        assert tuner.evaluator.workers == 3
    finally:
        tuner.close()

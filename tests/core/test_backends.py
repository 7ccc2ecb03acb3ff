"""Unit tests for the pluggable evaluation-backend layer."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.config import TunerConfig
from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.backends import (
    EvaluationRequest,
    ProcessBackendUnavailable,
    ProcessEvaluator,
    create_evaluator,
    evaluate_request,
    resolve_process_target,
)
from repro.core.configuration import Configuration
from repro.core.fitness import Evaluator
from repro.core.parallel import ParallelEvaluator, PooledEvaluator
from repro.core.result_cache import ResultCache, execution_model_hash
from repro.core.search import TuningReport, report_from_payload, report_to_payload
from repro.core.selector import Selector
from repro.errors import ConfigError, TuningError
from repro.hardware.machines import DESKTOP

from tests.conftest import scale_env
from tests.core.test_decision_paths import strassen_pair


@pytest.fixture()
def strassen_desktop():
    spec = benchmark("Strassen")
    return compile_program(spec.build_program(), DESKTOP)


class TestBackendSelection:
    """``REPRO_TUNER_BACKEND`` reaches the backend layer only through
    :meth:`TunerConfig.resolve`; :func:`create_evaluator` follows the
    config it is handed."""

    def test_default_backend_unset_is_auto(self, monkeypatch, compiled_stencil):
        monkeypatch.delenv("REPRO_TUNER_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_TUNER_WORKERS", raising=False)
        config = TunerConfig.resolve()
        assert config.backend == "auto"
        with create_evaluator(
            compiled_stencil, lambda n: scale_env(n, seed=1), config
        ) as evaluator:
            assert type(evaluator) is Evaluator

    @pytest.mark.parametrize("raw,expected", [
        ("serial", "serial"),
        ("thread", "thread"),
        ("process", "process"),
        ("cluster", "cluster"),
        ("  Process \n", "process"),
        ("THREAD", "thread"),
        ("auto", "auto"),
        ("", "auto"),
    ])
    def test_default_backend_env_values(self, raw, expected):
        config = TunerConfig.resolve(environ={"REPRO_TUNER_BACKEND": raw})
        assert config.backend == expected
        # An environment choice suggests a backend; it never forces one.
        assert not config.is_explicit("backend")

    def test_explicit_unrecognised_backend_still_raises(self):
        with pytest.raises(ConfigError, match="unknown backend 'bogus'"):
            TunerConfig(backend="bogus")

    def test_resolve_explicit_is_forced(self):
        assert TunerConfig(backend="process").is_explicit("backend")
        assert TunerConfig.resolve(environ={}, backend=" Serial ").backend == "serial"
        assert TunerConfig.resolve(environ={}, backend="serial").is_explicit("backend")
        assert not TunerConfig().is_explicit("backend")

    def test_resolve_none_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNER_BACKEND", "thread")
        config = TunerConfig.resolve(backend=None)
        assert config.backend == "thread"
        assert config.provenance["backend"] == "env:REPRO_TUNER_BACKEND"

    def test_resolve_rejects_unknown_explicit_names(self):
        with pytest.raises(ConfigError, match="unknown backend 'fleet'"):
            TunerConfig.resolve(environ={}, backend="fleet")


class TestCreateEvaluator:
    def test_auto_picks_serial_then_thread(self, compiled_stencil):
        env = lambda n: scale_env(n, seed=1)
        serial = create_evaluator(compiled_stencil, env)
        pooled = create_evaluator(compiled_stencil, env, TunerConfig(workers=3))
        try:
            assert type(serial) is Evaluator
            assert isinstance(pooled, ParallelEvaluator)
        finally:
            serial.close()
            pooled.close()

    def test_forced_serial_ignores_worker_count(self, compiled_stencil):
        with create_evaluator(
            compiled_stencil, lambda n: scale_env(n, seed=1),
            TunerConfig(backend="serial", workers=8),
        ) as evaluator:
            assert type(evaluator) is Evaluator

    def test_forced_process_on_registry_app(self, strassen_desktop):
        with create_evaluator(
            strassen_desktop, canonical_env_factory("Strassen"),
            TunerConfig(backend="process", workers=2),
            result_cache=ResultCache(None),
        ) as evaluator:
            assert isinstance(evaluator, ProcessEvaluator)
            assert evaluator.target.app == "Strassen"
            assert evaluator.target.machine == "Desktop"

    def test_forced_process_on_unregistered_program_raises(self, compiled_stencil):
        with pytest.raises(ProcessBackendUnavailable, match="not a registered"):
            create_evaluator(
                compiled_stencil, lambda n: scale_env(n, seed=1),
                TunerConfig(backend="process", workers=2),
            )

    def test_forced_process_with_noncanonical_env_raises(self, strassen_desktop):
        spec = benchmark("Strassen")
        with pytest.raises(ProcessBackendUnavailable, match="canonical_env_factory"):
            create_evaluator(
                strassen_desktop, lambda n: spec.make_env(n, 0),
                TunerConfig(backend="process", workers=2),
            )

    def test_forced_process_with_wrong_benchmarks_canonical_env_raises(
        self, strassen_desktop
    ):
        """Another benchmark's canonical factory must not pass: workers
        would rebuild Strassen inputs while the requester's local
        fallback path evaluates SVD inputs."""
        with pytest.raises(ProcessBackendUnavailable, match="canonical_env_factory"):
            create_evaluator(
                strassen_desktop, canonical_env_factory("SVD"),
                TunerConfig(backend="process", workers=2),
            )

    def test_env_selected_process_falls_back_for_unregistered_programs(
        self, compiled_stencil
    ):
        """The env knob is global: it must degrade, not break, tuning of
        hand-built programs."""
        environ = {"REPRO_TUNER_BACKEND": "process"}
        env = lambda n: scale_env(n, seed=1)
        pooled = create_evaluator(
            compiled_stencil, env, TunerConfig.resolve(environ=environ, workers=3)
        )
        single = create_evaluator(
            compiled_stencil, env, TunerConfig.resolve(environ=environ, workers=1)
        )
        try:
            assert isinstance(pooled, ParallelEvaluator)
            assert type(single) is Evaluator
        finally:
            pooled.close()
            single.close()

    def test_forced_cluster_on_registry_app(self, strassen_desktop):
        from repro.core.backends import ClusterEvaluator

        with create_evaluator(
            strassen_desktop, canonical_env_factory("Strassen"),
            TunerConfig(backend="cluster", workers=2),
            result_cache=ResultCache(None),
        ) as evaluator:
            assert isinstance(evaluator, ClusterEvaluator)
            assert evaluator.target.app == "Strassen"

    def test_forced_cluster_on_unregistered_program_raises(self, compiled_stencil):
        """The cluster backend ships requests to workers that rebuild
        from the registry, so it shares the process backend's
        registered-program requirement."""
        with pytest.raises(ProcessBackendUnavailable, match="not a registered"):
            create_evaluator(
                compiled_stencil, lambda n: scale_env(n, seed=1),
                TunerConfig(backend="cluster", workers=2),
            )

    def test_env_selected_cluster_falls_back_for_unregistered_programs(
        self, compiled_stencil
    ):
        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_BACKEND": "cluster"}, workers=3
        )
        pooled = create_evaluator(
            compiled_stencil, lambda n: scale_env(n, seed=1), config
        )
        try:
            assert isinstance(pooled, ParallelEvaluator)
        finally:
            pooled.close()

    def test_config_fields_reach_the_evaluator(self, strassen_desktop):
        """One config carries every evaluator knob: workers, lanes and
        the cluster fleet settings."""
        config = TunerConfig(
            backend="cluster", workers=2, batch_lanes=3, cluster_workers=5,
            cluster_heartbeat_s=0.5, cluster_timeout_s=4.0,
            cluster_address="127.0.0.1:1",
        )
        with create_evaluator(
            strassen_desktop, canonical_env_factory("Strassen"), config,
            result_cache=ResultCache(None),
        ) as evaluator:
            assert evaluator.batch_lanes == 3
            assert evaluator.cluster_workers == 5
            assert evaluator.cluster_address == "127.0.0.1:1"
            assert (evaluator.heartbeat_s, evaluator.timeout_s) == (0.5, 4.0)


class TestProcessTarget:
    def test_resolves_canonical_evaluation(self, strassen_desktop):
        target = resolve_process_target(
            strassen_desktop, canonical_env_factory("Strassen"), None
        )
        assert (target.app, target.machine) == ("Strassen", "Desktop")

    def test_rejects_wrong_accuracy_function(self, strassen_desktop):
        with pytest.raises(ProcessBackendUnavailable, match="accuracy"):
            resolve_process_target(
                strassen_desktop, canonical_env_factory("Strassen"),
                lambda env: 0.0,
            )


class TestEvaluateRequest:
    """The worker entry point, exercised in-process."""

    def _request(self, compiled, config, size=64, **overrides):
        from repro.core.fitness import program_fingerprint

        fields = dict(
            app="Strassen",
            machine="Desktop",
            config_jsons=(config.to_json(),),
            size=size,
            seed=1,
            fingerprint=program_fingerprint(compiled),
            model_hash=execution_model_hash(),
            cache_dir=None,
        )
        fields.update(overrides)
        return EvaluationRequest(**fields)

    def test_matches_local_compute(self, strassen_desktop):
        from repro.core.configuration import default_configuration

        config = default_configuration(strassen_desktop.training_info)
        local = Evaluator(
            strassen_desktop, canonical_env_factory("Strassen"),
            seed=1, result_cache=ResultCache(None),
        ).compute(config, 64)
        (result,), _paths = evaluate_request(
            self._request(strassen_desktop, config)
        )
        assert result.time_s == local.time_s
        assert result.compile_events == local.compile_events
        assert result.accuracy == local.accuracy

    def test_a_lane_chunk_answers_like_one_lane_requests(
        self, strassen_desktop, monkeypatch
    ):
        """One request of N lanes answers each lane with the pure
        outcome N one-lane requests give, and with a decision path for
        exactly the lanes it simulated: the path each lane's one-lane
        request reports.  The default configuration never asks for
        ``seq_par_cutoff`` at size 64, so its twin with another cutoff
        follows the same decision path: a tree hit, answered ``None``."""
        from collections import OrderedDict

        from repro.core import backends
        from repro.core.configuration import default_configuration

        twin = default_configuration(strassen_desktop.training_info)
        other_twin = twin.with_tunable(
            "seq_par_cutoff", twin.tunables["seq_par_cutoff"] + 1
        )
        first, second = strassen_variants(strassen_desktop, 2)
        lanes = [first, twin, second, other_twin]
        simulated = []
        simulate = Evaluator._simulate

        def recording_simulate(self, config, *args):
            simulated.append(config.canonical_key())
            return simulate(self, config, *args)

        monkeypatch.setattr(Evaluator, "_simulate", recording_simulate)

        def serve(requests):
            monkeypatch.setattr(backends, "_WORKER_EVALUATORS", OrderedDict())
            simulated.clear()
            return [evaluate_request(request) for request in requests]

        singles = serve(
            [self._request(strassen_desktop, config) for config in lanes]
        )
        ((pures, paths),) = serve([
            self._request(
                strassen_desktop, first,
                config_jsons=tuple(config.to_json() for config in lanes),
            )
        ])
        assert pures == [single_pures[0] for single_pures, _ in singles]
        assert pures[1] == pures[3]
        assert paths[3] is None
        assert [path is not None for path in paths] == [
            config.canonical_key() in simulated for config in lanes
        ]
        assert [single_paths[0] for _, single_paths in singles] == paths

    def test_fingerprint_mismatch_fails_loudly(self, strassen_desktop):
        from repro.core.configuration import default_configuration

        config = default_configuration(strassen_desktop.training_info)
        request = self._request(
            strassen_desktop, config, fingerprint="deadbeef" * 3
        )
        with pytest.raises(TuningError, match="fingerprint"):
            evaluate_request(request)

    def test_model_hash_mismatch_fails_loudly(self, strassen_desktop):
        from repro.core.configuration import default_configuration

        config = default_configuration(strassen_desktop.training_info)
        request = self._request(
            strassen_desktop, config, model_hash="0" * 16
        )
        with pytest.raises(TuningError, match="model"):
            evaluate_request(request)

    def test_request_is_a_frozen_primitive_bundle(self, strassen_desktop):
        """Everything crossing the pipe must be picklable primitives."""
        from repro.core.configuration import default_configuration
        import pickle

        config = default_configuration(strassen_desktop.training_info)
        request = self._request(strassen_desktop, config)
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request
        fields = dataclasses.asdict(request)
        lanes = fields.pop("config_jsons")
        assert isinstance(lanes, tuple)
        assert all(isinstance(lane, str) for lane in lanes)
        for value in fields.values():
            assert value is None or isinstance(value, (str, int))

    def test_the_worker_evaluator_memo_is_bounded(self, strassen_desktop, monkeypatch):
        """A long-lived worker serving many sessions keeps at most the
        memo's capacity of evaluators, and rebuilds a dropped one to the
        same answers."""
        from collections import OrderedDict

        from repro.core import backends
        from repro.core.configuration import default_configuration

        monkeypatch.setattr(backends, "_WORKER_EVALUATORS", OrderedDict())
        capacity = backends._WORKER_EVALUATORS_CAPACITY
        config = default_configuration(strassen_desktop.training_info)
        first = evaluate_request(self._request(strassen_desktop, config, seed=0))
        for seed in range(1, capacity + 2):
            evaluate_request(self._request(strassen_desktop, config, seed=seed))
            assert len(backends._WORKER_EVALUATORS) <= capacity
        assert ("Strassen", "Desktop", 0, None) not in backends._WORKER_EVALUATORS
        again = evaluate_request(self._request(strassen_desktop, config, seed=0))
        assert again == first

    def test_the_worker_memo_rebuilds_only_past_its_capacity(
        self, strassen_desktop, monkeypatch
    ):
        """Sessions sharing a worker interleave their requests.  Up to
        the memo's capacity of interleaved keys each evaluator is built
        once; one key more, requested round-robin, rebuilds on every
        request, so the capacity must exceed the keys a worker serves
        at once."""
        from collections import OrderedDict

        from repro.core import backends
        from repro.core.configuration import default_configuration

        builds = []

        def build(app, machine):
            builds.append((app, machine))
            return strassen_desktop

        monkeypatch.setattr(backends, "_registry_build", build)
        capacity = backends._WORKER_EVALUATORS_CAPACITY
        config = default_configuration(strassen_desktop.training_info)
        requests = [
            self._request(strassen_desktop, config, seed=seed)
            for seed in range(capacity + 1)
        ]

        def builds_serving_round_robin(keys, rounds=3):
            monkeypatch.setattr(backends, "_WORKER_EVALUATORS", OrderedDict())
            builds.clear()
            for _ in range(rounds):
                for request in requests[:keys]:
                    backends._worker_evaluator(request)
            return len(builds)

        assert builds_serving_round_robin(capacity) == capacity
        assert builds_serving_round_robin(capacity + 1) == 3 * (capacity + 1)

    def test_concurrent_slots_share_one_worker_evaluator(
        self, strassen_desktop, monkeypatch
    ):
        """Cluster worker slots are threads: slots asking for one key at
        once all get the same evaluator."""
        import sys
        import threading
        from collections import OrderedDict

        from repro.core import backends
        from repro.core.configuration import default_configuration

        monkeypatch.setattr(backends, "_WORKER_EVALUATORS", OrderedDict())
        request = self._request(
            strassen_desktop, default_configuration(strassen_desktop.training_info)
        )
        slots = 8
        barrier = threading.Barrier(slots)
        served = []

        def slot():
            barrier.wait(timeout=10)
            served.append(backends._worker_evaluator(request))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=slot) for _ in range(slots)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(served) == slots
        assert len({id(evaluator) for evaluator in served}) == 1
        assert list(backends._WORKER_EVALUATORS.values()) == [served[0]]


POOLED_BACKENDS = ("thread", "process", "cluster")


def strassen_variants(compiled, count):
    """``count`` Strassen configurations that each need a simulation.

    ``MatMul`` is pinned to ``naive/cpu``, a divisible CPU rule, so
    every run asks for ``seq_par_cutoff`` and the variants answer it
    differently.  The default ``MatMul`` choice never asks for it at
    size 64, so its variants would share one simulation.
    """
    from repro.core.configuration import default_configuration

    base = default_configuration(compiled.training_info)
    choices = [choice.name for choice in compiled.transforms["MatMul"].exec_choices]
    base = base.with_selector("MatMul", Selector.constant(choices.index("naive/cpu")))
    variants = []
    for cutoff in (1024, 512, 256, 128)[:count]:
        config = base.with_tunable("seq_par_cutoff", cutoff)
        variants.append(config)
    return variants


def strassen_evaluator(compiled, backend, **config_fields):
    config_fields.setdefault("workers", 2)
    return create_evaluator(
        compiled, canonical_env_factory("Strassen"),
        TunerConfig(backend=backend, **config_fields),
        seed=1, result_cache=ResultCache(None),
    )


@pytest.fixture()
def fresh_workers(monkeypatch):
    """Worker evaluators built from scratch, so a process or fleet
    worker simulates what it is sent instead of answering from a tree
    an earlier test grew in this process (fleet workers are threads
    here, and pool processes fork from it)."""
    from collections import OrderedDict

    from repro.core import backends

    monkeypatch.setattr(backends, "_WORKER_EVALUATORS", OrderedDict())


def counting_submissions(evaluator):
    """Wrap ``evaluator._submit``; returns the list of shipped chunks."""
    shipped = []
    submit = evaluator._submit

    def counting_submit(transport, chunk, size):
        shipped.append(list(chunk))
        return submit(transport, chunk, size)

    evaluator._submit = counting_submit
    return shipped


class _CountingDict(dict):
    """A dict that counts its lookups (``get``, ``[]`` and ``in``)."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_a_serial_session_looks_each_commit_up_once(strassen_desktop, monkeypatch):
    """``evaluate`` looks its key up in ``_committed`` once; ``_commit``
    trusts that miss instead of looking again."""
    from repro.api import tune_program

    committed = []
    evaluated = []
    init = Evaluator.__init__
    evaluate = Evaluator.evaluate

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._committed = _CountingDict()
        committed.append(self._committed)

    def counting_evaluate(self, config, size):
        evaluated.append((config, size))
        return evaluate(self, config, size)

    monkeypatch.setattr(Evaluator, "__init__", counting_init)
    monkeypatch.setattr(Evaluator, "evaluate", counting_evaluate)
    tune_program(
        strassen_desktop, canonical_env_factory("Strassen"), 64, seed=1,
        config=TunerConfig(
            backend="serial", workers=1, cache_dir=None, resume=False, progress=False
        ),
    )
    assert len(committed) == 1
    assert len(set(evaluated)) < len(evaluated)  # repeats were looked up too
    assert committed[0].lookups == len(evaluated)


class TestPooledEvaluatorProtocol:
    """The speculative protocol :class:`PooledEvaluator` owns, checked
    through every transport (the cluster one on a self-hosted
    :class:`~repro.cluster.local.LocalCluster`)."""

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_prefetch_then_evaluate_joins_worker_results(
        self, strassen_desktop, backend
    ):
        with strassen_evaluator(strassen_desktop, backend) as evaluator:
            assert isinstance(evaluator, PooledEvaluator)
            (config,) = strassen_variants(strassen_desktop, 1)
            evaluator.prefetch([config], 64)
            assert len(evaluator._inflight) == 1
            joined = evaluator.evaluate(config, 64)
            reference = strassen_evaluator(
                strassen_desktop, "serial"
            ).evaluate(config, 64)
            assert joined == reference
            assert evaluator.evaluations == 1
            assert not evaluator._inflight

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_drop_speculation_harvests_finished_results(
        self, strassen_desktop, backend, fresh_workers
    ):
        """Completed speculative work survives a drop in the decision
        trees, whether the transport's workers grow them (threads) or
        answer with paths (processes, fleets): a later evaluate
        neither simulates nor submits."""
        with strassen_evaluator(strassen_desktop, backend) as evaluator:
            (config,) = strassen_variants(strassen_desktop, 1)
            evaluator.prefetch([config], 64)
            future, _lane = evaluator._inflight[(config, 64)]
            future.result()  # let the worker finish
            evaluator.drop_speculation()
            assert not evaluator._inflight
            assert evaluator.computed_evaluations == 1
            shipped = counting_submissions(evaluator)
            joined = evaluator.evaluate(config, 64)
            assert not shipped
            assert (evaluator.computed_evaluations, evaluator.path_hits) == (1, 1)
        assert joined == strassen_evaluator(strassen_desktop, "serial").evaluate(
            config, 64
        )

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_drop_speculation_discards_queued_work(self, strassen_desktop, backend):
        with strassen_evaluator(strassen_desktop, backend) as evaluator:
            (config,) = strassen_variants(strassen_desktop, 1)
            evaluator.prefetch([config], 64)
            evaluator.drop_speculation()
            assert not evaluator._inflight
            # A later evaluate still works (local compute path).
            assert evaluator.evaluate(config, 64).time_s > 0
            assert evaluator.evaluations == 1

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_one_submission_per_lane_chunk(self, strassen_desktop, backend):
        configs = strassen_variants(strassen_desktop, 3)
        with strassen_evaluator(
            strassen_desktop, backend, batch_lanes=2
        ) as evaluator:
            evaluator.prefetch(configs, 64)
            entries = [evaluator._inflight[(config, 64)] for config in configs]
            assert [lane for _, lane in entries] == [0, 1, 0]
            assert entries[0][0] is entries[1][0]
            assert entries[2][0] is not entries[0][0]
            joined = [evaluator.evaluate(config, 64) for config in configs]
        serial = strassen_evaluator(strassen_desktop, "serial")
        assert joined == [serial.evaluate(config, 64) for config in configs]

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_close_is_idempotent(self, strassen_desktop, backend):
        evaluator = strassen_evaluator(strassen_desktop, backend)
        configs = strassen_variants(strassen_desktop, 2)
        evaluator.prefetch(configs, 64)
        evaluator.close()
        evaluator.close()
        assert not evaluator._inflight
        assert evaluator._executor is None
        assert getattr(evaluator, "_client", None) is None
        assert getattr(evaluator, "_local_cluster", None) is None

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_single_worker_never_spawns_a_pool(self, strassen_desktop, backend):
        with strassen_evaluator(
            strassen_desktop, backend, workers=1
        ) as evaluator:
            (config,) = strassen_variants(strassen_desktop, 1)
            evaluator.prefetch([config], 64)
            assert evaluator._executor is None
            assert evaluator.evaluate(config, 64).time_s > 0

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_prefetch_without_a_transport_computes_nothing(
        self, strassen_desktop, backend
    ):
        """A one-worker pool or a degraded cluster cannot take work, so
        prefetch ignores the hint, as the serial evaluator does: no
        pool starts, nothing is in flight, nothing computes and the
        decision trees stay empty until the configurations are
        evaluated."""
        from repro.cluster import LocalCluster

        configs = strassen_variants(strassen_desktop, 2)
        kwargs = dict(workers=1, batch_lanes=4)
        if backend == "cluster":
            with LocalCluster(workers=1) as fleet:
                dead_address = fleet.address
            kwargs.update(cluster_address=dead_address, cluster_timeout_s=2.0)
        with strassen_evaluator(strassen_desktop, backend, **kwargs) as evaluator:
            evaluator.prefetch(configs, 64)
            assert not evaluator._inflight
            assert evaluator._executor is None
            assert (evaluator.computed_evaluations, evaluator.path_hits) == (0, 0)
            assert not evaluator._trees
            if backend == "cluster":
                assert evaluator.degradations == 1
            joined = [evaluator.evaluate(config, 64) for config in configs]
            assert evaluator.computed_evaluations == 2
        serial = strassen_evaluator(strassen_desktop, "serial", batch_lanes=4)
        serial.prefetch(configs, 64)
        assert serial.computed_evaluations == 0 and not serial._trees
        assert joined == [serial.evaluate(config, 64) for config in configs]

    @pytest.mark.parametrize("lanes", (1, 4))
    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_prefetch_submits_each_distinct_key_once(
        self, strassen_desktop, backend, lanes
    ):
        """A configuration proposed twice in one prefetch call takes one
        lane, not two: no orphaned future, no simulation twice."""
        a, b = strassen_variants(strassen_desktop, 2)
        with strassen_evaluator(
            strassen_desktop, backend, batch_lanes=lanes
        ) as evaluator:
            shipped = counting_submissions(evaluator)
            evaluator.prefetch([a, a, b], 64)
            lanes_shipped = [config for chunk in shipped for config in chunk]
            assert sorted(map(Configuration.canonical_key, lanes_shipped)) == sorted(
                map(Configuration.canonical_key, (a, b))
            )
            joined = [evaluator.evaluate(config, 64) for config in (a, b)]
            # Fewer when a worker's tree already answers a lane.
            assert evaluator.computed_evaluations <= 2
        serial = strassen_evaluator(strassen_desktop, "serial")
        assert joined == [serial.evaluate(config, 64) for config in (a, b)]


class TestRequesterTrees:
    """The requester's decision trees are its only index of known
    outcomes: they decide what is shipped, and workers' paths grow
    them.  ``other`` differs from ``base`` only in a tunable no run
    asks for, so one simulation's path answers both."""

    @pytest.mark.parametrize("lanes", (1, 4))
    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_a_lane_the_tree_answers_is_never_shipped(self, backend, lanes):
        compiled, base, other = strassen_pair(pin_naive=False)
        with strassen_evaluator(compiled, backend, batch_lanes=lanes) as evaluator:
            evaluator.evaluate(base, 64)
            computed = evaluator.computed_evaluations
            shipped = counting_submissions(evaluator)
            evaluator.prefetch([other], 64)
            assert not shipped
            assert not evaluator._inflight
            hits = evaluator.path_hits
            evaluator.evaluate(other, 64)
            assert evaluator.path_hits == hits + 1
            assert evaluator.computed_evaluations == computed

    @pytest.mark.parametrize("backend", ("process", "cluster"))
    def test_a_workers_answer_grows_the_requesters_tree(
        self, backend, fresh_workers
    ):
        compiled, base, other = strassen_pair(pin_naive=False)
        with strassen_evaluator(compiled, backend) as evaluator:
            evaluator.prefetch([base], 64)
            assert evaluator._inflight
            evaluator.evaluate(base, 64)
            assert (evaluator.computed_evaluations, evaluator.path_hits) == (1, 0)

            def no_local_simulation(*args):
                raise AssertionError("the requester simulated")

            evaluator._simulate = no_local_simulation
            evaluator.compute(other, 64)
            assert (evaluator.computed_evaluations, evaluator.path_hits) == (1, 1)

    def test_workers_build_no_key(self, strassen_desktop, fresh_workers, monkeypatch):
        """A worker decodes each lane from its JSON and walks its tree
        with the lane's answers: nothing it does needs a key."""
        from repro.core.fitness import program_fingerprint

        request = EvaluationRequest(
            app="Strassen",
            machine="Desktop",
            config_jsons=tuple(
                config.to_json() for config in strassen_variants(strassen_desktop, 4)
            ),
            size=64,
            seed=1,
            fingerprint=program_fingerprint(strassen_desktop),
            model_hash=execution_model_hash(),
            cache_dir=None,
        )
        builds = []
        canonical_key = Configuration.canonical_key

        def counting_canonical_key(config):
            if config._key is None:
                builds.append(config)
            return canonical_key(config)

        monkeypatch.setattr(Configuration, "canonical_key", counting_canonical_key)
        pures, paths = evaluate_request(request)
        assert len(pures) == 4 and all(path is not None for path in paths)
        assert builds == []

    def test_a_conflicting_answer_fails_only_at_its_commit(self, strassen_desktop):
        """A fleet whose answer conflicts with the requester's tree is
        harvested without raising; the tree keeps the conflict, so the
        next commit at that size raises, as on the thread backend."""
        from repro.cluster import LocalCluster
        from repro.core.fitness import PureEvaluation

        def conflicting(request):
            lanes = len(request.config_jsons)
            pure = PureEvaluation(time_s=1.0, accuracy=None, compile_events=())
            return [pure] * lanes, [((("tunable", "unasked", 0), 0),)] * lanes

        base, first, second = strassen_variants(strassen_desktop, 3)
        with LocalCluster(workers=1, handler=conflicting) as fleet:
            with strassen_evaluator(
                strassen_desktop, "cluster", cluster_address=fleet.address
            ) as evaluator:
                evaluator.evaluate(base, 64)
                evaluator.prefetch([first], 64)
                future, _lane = evaluator._inflight[(first, 64)]
                future.result(timeout=30)
                evaluator.drop_speculation()
                with pytest.raises(TuningError, match="conflict"):
                    evaluator.evaluate(second, 64)
                assert evaluator.evaluations == 1


class TestSpeculativeFailures:
    """A speculative failure surfaces only when its configuration is
    actually evaluated — never through a lane-batch neighbour."""

    @pytest.mark.parametrize("lanes", (1, 2))
    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_failing_lane_does_not_poison_its_chunk(
        self, strassen_desktop, monkeypatch, backend, lanes
    ):
        good, bad = strassen_variants(strassen_desktop, 2)
        reference = strassen_evaluator(strassen_desktop, "serial").evaluate(good, 64)
        bad_key = bad.canonical_key()
        simulate = Evaluator._simulate

        def failing_simulate(self, config, size, *args, **kwargs):
            if config.canonical_key() == bad_key:
                raise TuningError("injected simulation failure")
            return simulate(self, config, size, *args, **kwargs)

        monkeypatch.setattr(Evaluator, "_simulate", failing_simulate)
        with strassen_evaluator(
            strassen_desktop, backend, batch_lanes=lanes
        ) as evaluator:
            evaluator.prefetch([good, bad], 64)
            assert evaluator.evaluate(good, 64) == reference
            assert evaluator.evaluations == 1
            with pytest.raises(TuningError, match="injected"):
                evaluator.evaluate(bad, 64)
            assert evaluator.evaluations == 1

    def test_remote_batch_errors_stay_loud(self, strassen_desktop):
        """Process and cluster workers may fail a frame on a fingerprint
        or model-hash guard, so a failed remote chunk re-raises at the
        commit of any of its keys instead of recomputing locally."""
        good, bad = strassen_variants(strassen_desktop, 2)
        with strassen_evaluator(
            strassen_desktop, "process", batch_lanes=2
        ) as evaluator:
            evaluator._fingerprint = "deadbeef" * 3  # a drifted rebuild
            evaluator.prefetch([good, bad], 64)
            with pytest.raises(TuningError, match="fingerprint"):
                evaluator.evaluate(good, 64)


class TestReportPayloadRoundTrip:
    def test_round_trip(self):
        report = TuningReport(
            best=Configuration(
                program_name="Strassen",
                selectors={"MatMul": Selector.constant(2)},
                tunables={"cutoff": 128},
                label="Desktop Config",
            ),
            best_time_s=1.5e-3,
            tuning_time_s=12.25,
            evaluations=42,
            sizes=[64, 256, 512],
            history=[2e-3, 1.7e-3, 1.5e-3],
            computed_evaluations=40,
        )
        clone = report_from_payload(report_to_payload(report))
        assert clone.best.to_json() == report.best.to_json()
        assert clone.best_time_s == report.best_time_s
        assert clone.tuning_time_s == report.tuning_time_s
        assert clone.evaluations == report.evaluations
        assert clone.sizes == report.sizes
        assert clone.history == report.history
        assert clone.computed_evaluations == report.computed_evaluations

    def test_payload_is_primitive(self):
        report = TuningReport(
            best=Configuration(program_name="X"),
            best_time_s=1.0,
            tuning_time_s=2.0,
            evaluations=3,
            sizes=[4],
            history=[1.0],
        )
        payload = report_to_payload(report)
        import json

        json.dumps(payload)  # JSON-safe, hence picklable primitives

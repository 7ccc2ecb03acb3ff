"""Regression tests for the cross-session evaluation result cache and
the evaluator's accounting invariants."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys

import pytest

from repro.api.config import TunerConfig
from repro.artifacts.keys import engine_key
from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.fitness import Evaluator, program_fingerprint
from repro.core.report import report_to_payload
from repro.core.result_cache import CacheStats, ResultCache, execution_model_hash
from repro.core.search import EvolutionaryTuner
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP, SERVER

from tests.conftest import make_scale_program, make_stencil_program, scale_env


#: A context and a record as evaluators write them.
CONTEXT = {"version": 2, "program": "p", "seed": 1}
PATH = ((("select", "T", 8), 1), (("tunable", "x", 0), 3))
OUTCOME = (0.25, None, (("abc", "gpu"),))


def env_factory(n):
    return scale_env(n, seed=1)


def fresh_evaluator(compiled, cache: ResultCache) -> Evaluator:
    return Evaluator(compiled, env_factory, result_cache=cache)


def gpu_config(compiled):
    config = default_configuration(compiled.training_info)
    config = config.with_selector("Stencil", Selector.constant(1))
    return config


class TestAccounting:
    def test_memo_hits_do_not_inflate_counters(self, compiled_stencil):
        evaluator = fresh_evaluator(compiled_stencil, ResultCache(None))
        config = default_configuration(compiled_stencil.training_info)
        evaluator.evaluate(config, 256)
        evals, time_s = evaluator.evaluations, evaluator.tuning_time_s
        for _ in range(3):
            evaluator.evaluate(config, 256)
        assert evaluator.evaluations == evals == 1
        assert evaluator.tuning_time_s == time_s

    def test_disk_hits_do_not_inflate_counters(self, compiled_stencil, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = gpu_config(compiled_stencil)

        cold = fresh_evaluator(compiled_stencil, cache)
        cold_eval = cold.evaluate(config, 256)
        assert cold.computed_evaluations == 1

        warm = fresh_evaluator(compiled_stencil, ResultCache(str(tmp_path)))
        warm_eval = warm.evaluate(config, 256)
        # Logical accounting is replayed identically...
        assert warm.evaluations == cold.evaluations == 1
        assert warm.tuning_time_s == cold.tuning_time_s
        assert warm_eval == cold_eval
        # ...but nothing was physically simulated.
        assert warm.computed_evaluations == 0
        assert warm.result_cache.stats.hits == 1

    def test_compile_replay_matches_shared_jit_semantics(self, compiled_stencil):
        """Two evaluations sharing a kernel must pay the parse cost
        once (the Section 5.4 IR cache), even though each pure run
        executed against its own cold JIT model."""
        evaluator = fresh_evaluator(compiled_stencil, ResultCache(None))
        config = gpu_config(compiled_stencil)
        evaluator.evaluate(config, 256)
        first_time = evaluator.tuning_time_s
        jit = evaluator.jit
        parse_paid_once = jit.compile_count - jit.ir_hits
        evaluator.evaluate(config, 512)
        assert evaluator.jit.ir_hits > 0
        # Second size re-used the IR: the increment is strictly less
        # than paying the full parse again per compile.
        assert evaluator.tuning_time_s > first_time
        assert jit.compile_count - jit.ir_hits == parse_paid_once


def log_path(evaluator) -> str:
    return evaluator.result_cache.path_for(evaluator._context)


def checksummed(header: bytes, record) -> bytes:
    """One log line as the format defines it."""
    text = json.dumps(record).encode()
    return text + b"\t" + hashlib.sha256(header + text).hexdigest()[:16].encode()


class TestCorruption:
    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # every record lost
            b'[128, [[["select", \n',  # a torn record, ended by a later append
            b"\x00\xff\x13 not json at all\n",
            json.dumps({"key": None}).encode() + b"\n",
            json.dumps([1, 2, 3]).encode() + b"\n",  # no checksum
        ],
    )
    def test_corrupted_records_are_ignored_not_fatal(
        self, compiled_stencil, tmp_path, garbage
    ):
        cache = ResultCache(str(tmp_path))
        evaluator = fresh_evaluator(compiled_stencil, cache)
        config = default_configuration(compiled_stencil.training_info)
        evaluator.evaluate(config, 128)

        path = log_path(evaluator)
        header = open(path, "rb").read().split(b"\n", 1)[0]
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + garbage)

        fresh = fresh_evaluator(compiled_stencil, ResultCache(str(tmp_path)))
        evaluation = fresh.evaluate(config, 128)  # must not raise
        assert evaluation.time_s > 0
        assert fresh.computed_evaluations == 1  # recomputed
        assert fresh.result_cache.stats.invalid == (1 if garbage else 0)
        assert fresh.result_cache.stats.collisions == 0

    def test_a_header_naming_another_context_is_a_counted_miss(
        self, compiled_stencil, tmp_path
    ):
        """A log whose header names another context (two contexts
        sharing a truncated file hash) counts under ``collisions`` +
        ``misses`` — never ``invalid``, which operators watch as a
        corruption signal — and is neither served nor appended to."""
        cache = ResultCache(str(tmp_path))
        evaluator = fresh_evaluator(compiled_stencil, cache)
        config = default_configuration(compiled_stencil.training_info)
        evaluator.evaluate(config, 128)

        path = log_path(evaluator)
        body = open(path, "rb").read().split(b"\n", 1)[1]
        foreign = json.dumps({"other": "context"}).encode() + b"\n" + body
        with open(path, "wb") as handle:
            handle.write(foreign)

        fresh_cache = ResultCache(str(tmp_path))
        fresh = fresh_evaluator(compiled_stencil, fresh_cache)
        evaluation = fresh.evaluate(config, 128)  # recomputes, no crash
        assert evaluation.time_s > 0
        assert fresh.computed_evaluations == 1
        assert fresh_cache.stats.collisions == 1
        assert fresh_cache.stats.misses == 1
        assert fresh_cache.stats.invalid == 0
        assert fresh_cache.stats.stores == 0
        assert open(path, "rb").read() == foreign

    def test_a_malformed_checksummed_record_quarantines_and_recomputes(
        self, compiled_stencil, tmp_path
    ):
        cache = ResultCache(str(tmp_path))
        evaluator = fresh_evaluator(compiled_stencil, cache)
        config = default_configuration(compiled_stencil.training_info)
        evaluator.evaluate(config, 128)
        path = log_path(evaluator)
        header = open(path, "rb").read().split(b"\n", 1)[0]
        with open(path, "ab") as handle:
            # An outcome without its compile events.
            handle.write(b"\n" + checksummed(header, [256, [], [1.0, None]]) + b"\n")

        fresh = fresh_evaluator(compiled_stencil, ResultCache(str(tmp_path)))
        assert fresh.evaluate(config, 128).time_s > 0
        assert fresh.computed_evaluations == 1
        assert fresh.result_cache.stats.quarantined == 1


class TestIsolation:
    def test_disabled_cache_is_inert(self, compiled_stencil):
        cache = ResultCache(None)
        assert not cache.enabled
        assert cache.get(CONTEXT) is None
        cache.put(CONTEXT, 8, PATH, OUTCOME)
        cache.sync()
        cache.quarantine(CONTEXT)
        assert cache.stats == CacheStats()

    def test_different_machines_never_share_entries(self, tmp_path):
        program = make_stencil_program(5)
        desktop = compile_program(program, DESKTOP)
        server = compile_program(program, SERVER)
        assert program_fingerprint(desktop) != program_fingerprint(server)

        cache_dir = str(tmp_path)
        a = fresh_evaluator(desktop, ResultCache(cache_dir))
        config = default_configuration(desktop.training_info)
        a.evaluate(config, 256)

        b = fresh_evaluator(server, ResultCache(cache_dir))
        b.evaluate(default_configuration(server.training_info), 256)
        assert b.computed_evaluations == 1  # desktop entry not reused

    def test_different_programs_never_share_entries(self, tmp_path):
        cache_dir = str(tmp_path)
        stencil = compile_program(make_stencil_program(5), DESKTOP)
        scale = compile_program(make_scale_program(), DESKTOP)
        assert program_fingerprint(stencil) != program_fingerprint(scale)

    def test_accuracy_metric_is_part_of_the_key(self, compiled_stencil, tmp_path):
        """Entries written under one accuracy metric (or none) must
        never satisfy a session using another: the cached accuracy
        drives feasibility decisions."""
        cache_dir = str(tmp_path)
        config = default_configuration(compiled_stencil.training_info)

        plain = Evaluator(
            compiled_stencil, env_factory, result_cache=ResultCache(cache_dir)
        )
        assert plain.evaluate(config, 256).accuracy is None

        def strict_metric(env):
            return 1.0

        strict = Evaluator(
            compiled_stencil, env_factory,
            accuracy_fn=strict_metric, accuracy_target=0.5,
            result_cache=ResultCache(cache_dir),
        )
        evaluation = strict.evaluate(config, 256)
        assert strict.computed_evaluations == 1  # plain entry not reused
        assert evaluation.accuracy == 1.0
        assert not evaluation.feasible

        # And the accuracy-free session never sees the metric entry.
        plain_again = Evaluator(
            compiled_stencil, env_factory, result_cache=ResultCache(cache_dir)
        )
        assert plain_again.evaluate(config, 256).accuracy is None
        assert plain_again.computed_evaluations == 0  # its own entry hits

    def test_env_factory_data_is_part_of_the_key(self, compiled_stencil, tmp_path):
        """Factories differing only in a captured data seed must not
        share entries: the inputs (and so times/accuracies) differ."""
        cache_dir = str(tmp_path)
        config = default_configuration(compiled_stencil.training_info)

        def factory_for(data_seed):
            return lambda n: scale_env(n, seed=data_seed)

        a = Evaluator(
            compiled_stencil, factory_for(0), result_cache=ResultCache(cache_dir)
        )
        a.evaluate(config, 256)
        b = Evaluator(
            compiled_stencil, factory_for(1), result_cache=ResultCache(cache_dir)
        )
        b.evaluate(config, 256)
        assert b.computed_evaluations == 1  # seed-0 entry not reused

        # Same factory shape and data seed → entries are shared.
        c = Evaluator(
            compiled_stencil, factory_for(0), result_cache=ResultCache(cache_dir)
        )
        c.evaluate(config, 256)
        assert c.computed_evaluations == 0

    def test_execution_model_hash_is_stable_within_a_process(self):
        from repro.core.result_cache import execution_model_hash

        assert execution_model_hash() == execution_model_hash()
        assert len(execution_model_hash()) == 16

    def test_seed_is_part_of_the_key(self, compiled_stencil, tmp_path):
        cache_dir = str(tmp_path)
        config = default_configuration(compiled_stencil.training_info)
        a = Evaluator(
            compiled_stencil, env_factory, seed=0,
            result_cache=ResultCache(cache_dir),
        )
        a.evaluate(config, 256)
        b = Evaluator(
            compiled_stencil, env_factory, seed=1,
            result_cache=ResultCache(cache_dir),
        )
        b.evaluate(config, 256)
        assert b.computed_evaluations == 1

    def test_round_trip_preserves_records(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, 8, PATH, OUTCOME)
        cache.put(CONTEXT, 16, PATH, (0.5, 0.125, ()))
        assert cache.get(CONTEXT) == [(8, PATH, OUTCOME), (16, PATH, (0.5, 0.125, ()))]
        assert cache.stats.stores == 2
        assert cache.stats.hits == 1
        # One log, and nothing else: no temp file, no per-entry file.
        assert os.listdir(tmp_path) == [os.path.basename(cache.path_for(CONTEXT))]


class TestPutFailures:
    def test_unserialisable_record_counts_invalid_and_cleans_temp(
        self, tmp_path
    ):
        """A record json can't encode must be swallowed (the cache is
        an accelerator, never a correctness dependency) but *counted*,
        and must not leave a temp file behind."""
        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, 8, PATH, (object(), None, ()))
        assert cache.stats.invalid == 1
        assert cache.stats.stores == 0
        assert cache.get(CONTEXT) is None
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_circular_record_counts_invalid_and_cleans_temp(self, tmp_path):
        """The ValueError branch: a circular record fails json
        serialisation — it must still be counted and leave no temp
        file."""
        cache = ResultCache(str(tmp_path))
        circular = [1.0]
        circular.append(circular)
        cache.put(CONTEXT, 8, PATH, (circular, None, ()))
        assert cache.stats.invalid == 1
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_unwritable_directory_is_silent(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = ResultCache(str(blocker / "sub"))
        cache.put(CONTEXT, 8, PATH, OUTCOME)
        cache.sync()
        assert cache.stats.stores == 0
        assert cache.stats.invalid == 0
        assert cache.stats.write_errors == 3  # 2 retries + final failure


def _append_records(directory: str, writer: int, count: int, barrier) -> None:
    """Spawned writer: ``count`` records of its own into one log."""
    cache = ResultCache(directory)
    barrier.wait(timeout=60)
    for index in range(count):
        cache.put(CONTEXT, writer, PATH, (float(index), None, ()))


class TestConcurrency:
    def test_many_threads_share_one_directory(self, tmp_path):
        """Hammer one directory from many threads mixing appenders and
        readers: every load serves only records that were written, the
        accounting adds up, and no temp files leak."""
        import threading

        cache = ResultCache(str(tmp_path))
        contexts = [dict(CONTEXT, seed=n) for n in range(8)]
        written = [set() for _ in contexts]
        for thread_id in range(0, 16, 2):
            for round_no in range(25):
                n = (thread_id + round_no) % len(contexts)
                written[n].add((round_no, PATH, (float(thread_id), None, ())))
        errors = []
        barrier = threading.Barrier(16)

        def worker(thread_id):
            try:
                barrier.wait(timeout=30)
                for round_no in range(25):
                    n = (thread_id + round_no) % len(contexts)
                    if thread_id % 2 == 0:
                        cache.put(
                            contexts[n], round_no, PATH,
                            (float(thread_id), None, ()),
                        )
                    for record in cache.get(contexts[n]) or ():
                        if record not in written[n]:
                            errors.append((thread_id, n, record))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((thread_id, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        # Exact accounting: every operation landed in exactly one bucket.
        stats = cache.stats
        assert stats.stores == 8 * 25  # every put succeeded
        assert stats.invalid == 0
        assert stats.hits + stats.misses == 16 * 25  # one load each
        # After the dust settles every record is served from disk, once.
        fresh = ResultCache(str(tmp_path))
        for context, records in zip(contexts, written):
            served = fresh.get(context)
            assert len(served) == len(records) and set(served) == records

    def test_processes_append_while_a_reader_loads(self, tmp_path):
        """Three spawned processes append to one log while this one
        loads it: a load mid-write serves only written records, and the
        final load serves all of them, with none counted invalid."""
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        writers = [
            context.Process(
                target=_append_records, args=(str(tmp_path), writer, 100, barrier)
            )
            for writer in range(3)
        ]
        written = {
            (writer, PATH, (float(index), None, ()))
            for writer in range(3)
            for index in range(100)
        }
        for process in writers:
            process.start()
        cache = ResultCache(str(tmp_path))
        barrier.wait(timeout=60)
        loads = 0
        while loads == 0 or any(process.is_alive() for process in writers):
            for record in cache.get(CONTEXT) or ():
                assert record in written
            loads += 1
        for process in writers:
            process.join(timeout=60)
            assert process.exitcode == 0
        fresh = ResultCache(str(tmp_path))
        served = fresh.get(CONTEXT)
        assert len(served) == 300 and set(served) == written
        assert fresh.stats.invalid == 0

    def test_corrupt_line_under_concurrency_counts_invalid(self, tmp_path):
        """A garbage line in a log is skipped by every reader and never
        crashes one; each load counts it, and the good records around
        it are still served.  One bad record never quarantines a log."""
        import threading

        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, 8, PATH, OUTCOME)
        path = cache.path_for(CONTEXT)
        with open(path, "ab") as handle:
            handle.write(b"\n{ truncated\n")
        results = []

        def reader():
            results.append(cache.get(CONTEXT))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results == [[(8, PATH, OUTCOME)]] * 8
        assert cache.stats.invalid == 8
        assert cache.stats.hits == 8
        assert cache.stats.quarantined == 0
        assert os.path.exists(path)


def comparable(report):
    """A report's payload without its wall-clock-work gauge."""
    payload = report_to_payload(report)
    del payload["computed_evaluations"]
    return payload


class TestSessions:
    def _tune(self, compiled, cache_dir):
        cache = ResultCache(cache_dir)
        config = TunerConfig(backend="serial", cache_dir=cache_dir, progress=False)
        with EvolutionaryTuner(
            compiled, env_factory, max_size=1024, seed=5, config=config,
            result_cache=cache,
        ) as tuner:
            report = tuner.tune()
        return report, cache

    def test_a_warm_replay_computes_nothing_and_loads_each_log_once(
        self, compiled_stencil, tmp_path, monkeypatch
    ):
        cold, cold_cache = self._tune(compiled_stencil, str(tmp_path))
        assert cold.computed_evaluations > 0
        # Tree hits append nothing: one record per simulation.
        assert cold_cache.stats.stores == cold.computed_evaluations
        assert glob.glob(str(tmp_path / "*.json")) == []

        gets = []
        real_get = ResultCache.get

        def counting_get(cache, context):
            gets.append(context)
            return real_get(cache, context)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        warm, warm_cache = self._tune(compiled_stencil, str(tmp_path))
        assert warm.computed_evaluations == 0
        assert len(gets) == 1  # one evaluator, one load
        assert warm_cache.stats.stores == 0
        assert comparable(warm) == comparable(cold)

    def test_conflicting_records_quarantine_the_log_and_tune_cold(
        self, compiled_stencil, tmp_path
    ):
        reference, _ = self._tune(compiled_stencil, str(tmp_path / "cold"))
        cache_dir = str(tmp_path / "shared")
        self._tune(compiled_stencil, cache_dir)
        (path,) = glob.glob(os.path.join(cache_dir, "*.log"))
        header, _, body = open(path, "rb").read().partition(b"\n")
        first = next(line for line in body.split(b"\n") if line)
        size, decisions, outcome = json.loads(first.rpartition(b"\t")[0])
        conflicting = [size, decisions, [outcome[0] * 2] + outcome[1:]]
        with open(path, "ab") as handle:
            handle.write(b"\n" + checksummed(header, conflicting) + b"\n")

        report, cache = self._tune(compiled_stencil, cache_dir)
        assert cache.stats.quarantined == 1
        quarantined = os.path.join(cache_dir, "quarantine", os.path.basename(path))
        assert os.path.exists(quarantined)
        assert comparable(report) == comparable(reference)
        assert report.computed_evaluations == reference.computed_evaluations


class TestModelHashConcurrency:
    @pytest.mark.parametrize("key_fn", [execution_model_hash, engine_key])
    def test_concurrent_first_calls_hash_the_tree_once(self, monkeypatch, key_fn):
        """Concurrent first requests in a long-lived daemon must not
        each walk and hash the whole source tree: the double-checked
        lock lets exactly one thread compute while the rest wait."""
        import hashlib
        import threading

        from repro.core import result_cache as module

        original = key_fn()
        monkeypatch.setattr(module, "_SOURCE_HASHES", {})
        computations = []
        real_sha256 = hashlib.sha256

        def counting_sha256(*args, **kwargs):
            computations.append(threading.current_thread().name)
            return real_sha256(*args, **kwargs)

        monkeypatch.setattr(module.hashlib, "sha256", counting_sha256)
        barrier = threading.Barrier(8)
        results = []
        results_lock = threading.Lock()

        def worker():
            barrier.wait(timeout=30)
            value = key_fn()
            with results_lock:
                results.append(value)

        threads = [
            threading.Thread(target=worker, name=f"hash-{i}") for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert len(results) == 8
        assert len(set(results)) == 1
        # One digest per tree walk: exactly one thread did the work.
        assert len(computations) == 1
        assert results[0] == original

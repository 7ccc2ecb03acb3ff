"""Persistence under injected faults: torn writes, full disks,
quarantine, and the checkpoint scan's skip accounting."""

from __future__ import annotations

import json
import os

from repro import faults
from repro.core.driver import (
    CHECKPOINT_VERSION,
    CheckpointScanStats,
    CheckpointStore,
)
from repro.core.result_cache import ResultCache, execution_model_hash

CONTEXT = {"version": 2, "program": "p", "seed": 1}
RECORD = (8, ((("tunable", "x", 0), 1),), (1.5, None, ()))
OTHER = (8, ((("tunable", "x", 0), 2),), (2.5, None, ()))


class TestResultCachePut:
    def test_transient_oserror_is_retried_and_the_record_lands(self, tmp_path):
        faults.install("cache.put=oserror#2")  # first two attempts fail
        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, *RECORD)
        assert cache.stats.stores == 1
        assert cache.stats.write_errors == 2
        assert cache.get(CONTEXT) == [RECORD]

    def test_persistent_oserror_is_swallowed_but_counted(self, tmp_path):
        faults.install("cache.put=oserror")  # every attempt fails
        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, *RECORD)  # must not raise
        assert cache.stats.stores == 0
        assert cache.stats.write_errors == 3  # 2 retries + final failure
        faults.uninstall()
        assert cache.get(CONTEXT) is None

    def test_a_torn_append_is_never_served_and_the_next_one_is(self, tmp_path):
        """A crash mid-append leaves half a record at the log's tail.
        Until another append ends it, it may be an append in flight:
        neither served nor counted.  The next append's leading newline
        ends it: then it is skipped and counted, and the next record is
        served."""
        faults.install("cache.put=torn#1")
        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, *RECORD)
        assert cache.stats.stores == 0
        assert cache.get(CONTEXT) == []
        assert cache.stats.invalid == 0
        faults.uninstall()
        cache.put(CONTEXT, *OTHER)
        assert cache.get(CONTEXT) == [OTHER]
        assert cache.stats.invalid == 1
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_corrupt_log_is_quarantined_not_reread_forever(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(CONTEXT, *RECORD)
        path = cache.path_for(CONTEXT)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"version": half a header')
        assert cache.get(CONTEXT) is None
        assert cache.stats.quarantined == 1
        assert not os.path.exists(path)
        quarantined = os.path.join(
            str(tmp_path), "quarantine", os.path.basename(path)
        )
        assert os.path.exists(quarantined)  # inspectable, not deleted
        # Second lookup: a clean miss, not another corruption event.
        assert cache.get(CONTEXT) is None
        assert cache.stats.quarantined == 1
        assert cache.stats.misses == 2


class TestCheckpointSave:
    def _identity(self, seed=1, version=CHECKPOINT_VERSION, model=None):
        return {
            "version": version,
            "model": execution_model_hash() if model is None else model,
            "seed": seed,
        }

    def test_torn_save_preserves_the_previous_checkpoint(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        identity = self._identity()
        store.save(identity, {"round": 1})
        faults.install("checkpoint.save=torn#1")
        store.save(identity, {"round": 2})  # dies mid-temp-write
        faults.uninstall()
        loaded = store.load(identity)
        assert loaded is not None and loaded["round"] == 1
        # The partial temp file exists but is never scanned or loaded.
        assert any(p.endswith(".tmp") for p in os.listdir(tmp_path))
        store.save(identity, {"round": 2})
        assert store.load(identity)["round"] == 2

    def test_oserror_save_is_swallowed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        identity = self._identity()
        faults.install("checkpoint.save=oserror#1")
        store.save(identity, {"round": 1})  # must not raise
        faults.uninstall()
        assert store.load(identity) is None
        store.save(identity, {"round": 1})
        assert store.load(identity)["round"] == 1

    def test_corrupt_checkpoint_is_quarantined_on_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        identity = self._identity()
        store.save(identity, {"round": 3})
        path = store.path_for(identity)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all")
        assert store.load(identity) is None
        assert not os.path.exists(path)
        assert os.path.exists(
            os.path.join(str(tmp_path), "quarantine", os.path.basename(path))
        )
        # The slot is clean again: a fresh save round-trips.
        store.save(identity, {"round": 4})
        assert store.load(identity)["round"] == 4


class TestFinishedReportsScanStats:
    """Satellite: every skip class is counted, and the scan never
    raises — a store full of garbage boots the daemon with an empty
    index and an honest tally, not a crash."""

    def _seed_store(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        model = execution_model_hash()

        def identity(seed, version=CHECKPOINT_VERSION, mod=model):
            return {"version": version, "model": mod, "seed": seed}

        # One good, complete checkpoint.
        store.save(
            identity(1), {"complete": True, "report": {"seed": 1}}
        )
        # A partial checkpoint as older versions left them: a commit
        # journal and no checksum.
        with open(
            os.path.join(str(tmp_path), "tune_partial.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            json.dump(
                {"complete": False, "journal": [], "identity": identity(2)},
                handle,
            )
        # Complete but written by another checkpoint layout.
        store.save(
            identity(3, version=CHECKPOINT_VERSION + 1),
            {"complete": True, "report": {"seed": 3}},
        )
        # Complete but hashed against different execution-model code.
        store.save(
            identity(4, mod="0123456789abcdef"),
            {"complete": True, "report": {"seed": 4}},
        )
        # Malformed: complete, but the report is not a dict.
        store.save(
            identity(5), {"complete": True, "report": "not-a-dict"}
        )
        # Truncated JSON.
        with open(
            os.path.join(str(tmp_path), "tune_truncated.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            handle.write('{"complete": true, "repo')
        # A non-dict entry.
        with open(
            os.path.join(str(tmp_path), "tune_list.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            json.dump([1, 2, 3], handle)
        # Not a checkpoint filename: never even scanned.
        with open(
            os.path.join(str(tmp_path), "README.txt"), "w", encoding="utf-8"
        ) as handle:
            handle.write("not a checkpoint")
        return store

    def test_every_skip_class_is_counted_and_nothing_raises(self, tmp_path):
        store = self._seed_store(tmp_path)
        yielded = list(store.finished_reports())
        assert [report["seed"] for _identity, report in yielded] == [1]
        stats = store.last_scan
        assert stats is not None
        assert stats.scanned == 7
        assert stats.yielded == 1
        assert stats.unreadable == 1  # the truncated file
        assert stats.malformed == 2  # the list entry + the str report
        assert stats.not_complete == 1
        assert stats.wrong_version == 1
        assert stats.stale_model == 1

    def test_a_changed_digit_is_unreadable_and_never_yielded(self, tmp_path):
        """The file still parses with one digit changed; its checksum
        no longer matches its content, so the scan skips it as
        unreadable, and a load quarantines it."""
        store = CheckpointStore(str(tmp_path))
        identity = {
            "version": CHECKPOINT_VERSION,
            "model": execution_model_hash(),
            "seed": 1,
        }
        store.save(identity, {"complete": True, "report": {"best_time_s": 0.5}})
        path = store.path_for(identity)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"best_time_s": 0.5', '"best_time_s": 0.6'))
        assert list(store.finished_reports()) == []
        assert store.last_scan.unreadable == 1
        assert store.load(identity) is None
        assert not os.path.exists(path)

    def test_caller_supplied_collector_is_used_and_published(self, tmp_path):
        store = self._seed_store(tmp_path)
        mine = CheckpointScanStats()
        list(store.finished_reports(mine))
        assert store.last_scan is mine
        assert mine.yielded == 1 and mine.scanned == 7

    def test_disabled_store_scans_nothing(self):
        store = CheckpointStore(None)
        assert list(store.finished_reports()) == []
        assert store.last_scan.scanned == 0

    def test_missing_directory_is_an_empty_scan(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "never-created"))
        assert list(store.finished_reports()) == []
        assert store.last_scan.scanned == 0

"""The derivation store: location-keyed memo files with the result
cache's durability discipline (atomic writes, quarantine on corruption,
fault-injection through its own ``graph.put`` point).
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.artifacts.store import DerivationStore

LOCATION = {"graph": 1, "node": "rule:T/c", "program": "p"}
PAYLOAD = {"digest": "ab" * 8, "kind": "rule", "key": {"version": 1}}


@pytest.fixture(autouse=True)
def no_leaked_faults():
    faults.uninstall()
    yield
    faults.uninstall()


class TestLayout:
    def test_for_cache_dir_nests_under_graph(self, tmp_path):
        store = DerivationStore.for_cache_dir(str(tmp_path))
        assert store.enabled
        assert store.directory == os.path.join(str(tmp_path), "graph")

    def test_disabled_without_a_cache_dir(self):
        store = DerivationStore.for_cache_dir(None)
        assert not store.enabled
        store.put(LOCATION, PAYLOAD)  # silently dropped
        assert store.get(LOCATION) is None


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = DerivationStore.for_cache_dir(str(tmp_path))
        assert store.get(LOCATION) is None
        store.put(LOCATION, PAYLOAD)
        assert store.get(LOCATION) == PAYLOAD
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.stores == 1

    def test_locations_do_not_cross_talk(self, tmp_path):
        store = DerivationStore.for_cache_dir(str(tmp_path))
        store.put(LOCATION, PAYLOAD)
        other = dict(LOCATION, machine="Desktop")
        assert store.get(other) is None

    def test_replace_in_place(self, tmp_path):
        # `attach` re-records the report node at the same location; the
        # later payload must win.
        store = DerivationStore.for_cache_dir(str(tmp_path))
        store.put(LOCATION, PAYLOAD)
        richer = dict(PAYLOAD, report={"evaluations": 3})
        store.put(LOCATION, richer)
        assert store.get(LOCATION) == richer

    def test_survives_reopen(self, tmp_path):
        DerivationStore.for_cache_dir(str(tmp_path)).put(LOCATION, PAYLOAD)
        fresh = DerivationStore.for_cache_dir(str(tmp_path))
        assert fresh.get(LOCATION) == PAYLOAD


class TestQuarantine:
    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        store = DerivationStore.for_cache_dir(str(tmp_path))
        store.put(LOCATION, PAYLOAD)
        path = store._path_for(LOCATION)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        assert store.get(LOCATION) is None
        assert store.stats.quarantined == 1
        pen = os.path.join(str(tmp_path), "graph", "quarantine")
        assert os.listdir(pen) == [os.path.basename(path)]

    def test_a_changed_byte_that_still_parses_is_quarantined(self, tmp_path):
        """The file still parses with one digit changed; its checksum
        no longer matches its content, so it is corrupt, not served."""
        store = DerivationStore.for_cache_dir(str(tmp_path))
        store.put(LOCATION, dict(PAYLOAD, report={"best_time_s": 0.5}))
        path = store._path_for(LOCATION)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"best_time_s": 0.5', '"best_time_s": 0.6'))
        assert store.get(LOCATION) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 1


class TestFaultInjection:
    def test_graph_put_point_retries_transient_oserror(self, tmp_path):
        store = DerivationStore.for_cache_dir(str(tmp_path))
        faults.install("graph.put=oserror#2")  # first two attempts fail
        store.put(LOCATION, PAYLOAD)
        assert store.get(LOCATION) == PAYLOAD
        assert store.stats.write_errors == 2

    def test_graph_put_never_raises_when_disk_stays_broken(self, tmp_path):
        store = DerivationStore.for_cache_dir(str(tmp_path))
        faults.install("graph.put=oserror")
        store.put(LOCATION, PAYLOAD)  # must not raise
        faults.uninstall()
        assert store.get(LOCATION) is None  # nothing torn was published

    def test_point_is_distinct_from_the_result_cache(self, tmp_path):
        # Chaos plans can break the graph store while evaluations keep
        # caching (and vice versa).
        from repro.core.result_cache import ResultCache

        faults.install("cache.put=oserror")
        store = DerivationStore.for_cache_dir(str(tmp_path))
        store.put(LOCATION, PAYLOAD)
        assert store.get(LOCATION) == PAYLOAD
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, 8, (), (1.0, None, ()))
        assert cache.get({"k": 1}) is None

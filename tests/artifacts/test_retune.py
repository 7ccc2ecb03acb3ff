"""Incremental re-tuning: clean serves, warm starts, determinism.

The expensive fixtures run once per module: one cold tune of the
Strassen benchmark populates a template cache directory, then one
stored rule digest is perturbed — the on-disk signature of "someone
edited that rule".  Every test copies the template so warm runs never
contaminate each other, and every warm run replays most evaluations
from the template's disk cache.
"""

from __future__ import annotations

import json
import shutil
from types import SimpleNamespace

import pytest

from repro.api import Session, TunerConfig
from repro.apps.registry import benchmark, canonical_env_factory
from repro.artifacts.graph import DerivationGraph
from repro.artifacts.retune import retune_session
from repro.artifacts.store import DerivationStore
from repro.compiler.compile import compile_program
from repro.core.driver import CheckpointStore
from repro.core.report import report_to_payload
from repro.core.result_cache import ResultCache
from repro.experiments.runner import clear_sessions
from repro.hardware.machines import DESKTOP

APP = "Strassen"
SEED = 3


@pytest.fixture(autouse=True)
def fresh_session_cache():
    clear_sessions()
    yield
    clear_sessions()


def _config(cache_dir, **overrides) -> TunerConfig:
    settings = dict(
        backend="serial", workers=1, progress=False, cache_dir=str(cache_dir)
    )
    settings.update(overrides)
    return TunerConfig.resolve(**settings)


def _payload_bytes(report) -> str:
    """The report payload's canonical bytes, sans the physical-compute
    gauge — ``computed_evaluations`` legitimately varies with cache
    warmth and scheduling (the same carve-out every backend-matrix
    determinism test makes), while everything observable must match
    byte for byte."""
    payload = report_to_payload(report)
    payload.pop("computed_evaluations", None)
    return json.dumps(payload, sort_keys=True)


def _perturb_one_rule(cache_dir: str, strategy: str) -> str:
    """Flip one stored rule node's digest — the store now disagrees
    with that rule's (unchanged) source, exactly as if the rule had
    been edited before the store was written.  Returns the node name."""
    spec = benchmark(APP)
    compiled = compile_program(spec.build_program(), DESKTOP)
    graph = DerivationGraph.build(
        compiled,
        canonical_env_factory(APP),
        size=spec.tuning_size,
        seed=SEED,
        strategy=strategy,
    )
    store = DerivationStore.for_cache_dir(cache_dir)
    node = next(n for n in graph.nodes() if n.kind == "rule")
    location = graph._location(node)
    entry = store.get(location)
    assert entry is not None, "cold run left no graph record"
    entry["digest"] = "0" * 16
    store.put(location, entry)
    return node.name


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """Template cache dir: cold-tuned, then one rule digest perturbed."""
    base = tmp_path_factory.mktemp("retune-template")
    config = _config(base)
    clear_sessions()
    cold = retune_session(APP, DESKTOP, SEED, config)
    assert not cold.clean and not cold.warm_started
    rule_node = _perturb_one_rule(str(base), config.strategy)
    clear_sessions()
    return SimpleNamespace(
        path=base,
        cold_report=cold.report,
        cold_payload=_payload_bytes(cold.report),
        rule_node=rule_node,
        transform=rule_node.split(":", 1)[1].split("/", 1)[0],
    )


def _copy(template, tmp_path) -> str:
    dest = tmp_path / "cache"
    shutil.copytree(template.path, dest)
    return str(dest)


class TestColdAndClean:
    def test_cold_run_has_no_warm_provenance(self, template):
        assert template.cold_report.warm_start_from is None
        # Absent, not null: cold payloads stay byte-identical to every
        # report the engine produced before the graph existed.
        assert "warm_start_from" not in json.loads(template.cold_payload)

    def test_clean_graph_serves_without_a_single_evaluation(self, tmp_path):
        cache = tmp_path / "clean"
        config = _config(cache)
        first = retune_session(APP, DESKTOP, SEED, config)
        clear_sessions()
        seen = []
        second = retune_session(
            APP, DESKTOP, SEED, config, on_candidate=seen.append
        )
        assert second.clean and not second.warm_started
        assert second.sync.clean
        assert seen == []  # no tuner ever ran
        assert _payload_bytes(second.report) == _payload_bytes(first.report)

    def test_a_changed_digit_in_the_report_node_is_not_served(self, tmp_path):
        """One changed digit of the stored report's ``best_time_s``
        still parses, but no longer matches the node file's checksum:
        the graph is dirty, and the session tunes again (from the
        evaluation log) instead of serving the changed time."""
        config = _config(tmp_path)
        first = retune_session(APP, DESKTOP, 1, config)
        (path,) = [
            path
            for path in (tmp_path / "graph").glob("*.json")
            if '"best_time_s": ' in path.read_text()
        ]
        text = path.read_text()
        at = text.index('"best_time_s": ') + len('"best_time_s": ')
        path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :])
        clear_sessions()
        second = retune_session(APP, DESKTOP, 1, config)
        assert not second.clean and not second.warm_started
        assert second.sync.frontier == ["report"]
        assert _payload_bytes(second.report) == _payload_bytes(first.report)
        assert (tmp_path / "graph" / "quarantine" / path.name).exists()


class TestWarmStart:
    def test_edited_rule_retunes_only_affected_sites(self, template, tmp_path):
        cache = _copy(template, tmp_path)
        result_cache = ResultCache(cache)
        warm = retune_session(
            APP, DESKTOP, SEED, _config(cache), result_cache=result_cache
        )
        assert not warm.clean and warm.warm_started
        assert warm.sync.frontier == [template.rule_node]
        assert warm.affected == [template.transform]
        provenance = warm.report.warm_start_from
        assert provenance is not None
        assert provenance["program"] == template.cold_report.best.program_name
        assert provenance["best"] == template.cold_report.best.canonical_key()
        assert provenance["frontier"] == [template.rule_node]
        assert template.rule_node in provenance["dirty"]
        # The acceptance bar: warm-started re-tuning computes
        # measurably fewer cold evaluations than the from-scratch run
        # (the rest replay from the template's disk cache).
        assert warm.report.evaluations > 0
        assert result_cache.stats.misses < template.cold_report.evaluations / 2

    def test_warm_run_heals_the_graph(self, template, tmp_path):
        cache = _copy(template, tmp_path)
        config = _config(cache)
        warm = retune_session(APP, DESKTOP, SEED, config)
        clear_sessions()
        served = retune_session(APP, DESKTOP, SEED, config)
        assert served.clean
        assert _payload_bytes(served.report) == _payload_bytes(warm.report)

    def test_warm_report_byte_identical_across_backends(
        self, template, tmp_path
    ):
        payloads = {}
        for backend, workers in (("serial", 1), ("thread", 2), ("process", 2)):
            cache = _copy(template, tmp_path / backend)
            clear_sessions()
            warm = retune_session(
                APP, DESKTOP, SEED,
                _config(cache, backend=backend, workers=workers),
            )
            assert warm.warm_started
            payloads[backend] = _payload_bytes(warm.report)
        assert payloads["serial"] == payloads["thread"] == payloads["process"]

    def test_warm_start_from_round_trips_through_the_journal(
        self, template, tmp_path
    ):
        from repro.core.report import report_from_payload

        cache = _copy(template, tmp_path)
        warm = retune_session(APP, DESKTOP, SEED, _config(cache))
        store = CheckpointStore.for_cache_dir(cache)
        replayed = [
            (identity, report_from_payload(payload))
            for identity, payload in store.finished_reports()
            if "warm_start_from" in payload
        ]
        assert replayed, "warm session left no complete checkpoint"
        identity, report = replayed[0]
        # The identity is salted so warm sessions never share
        # checkpoints with cold ones...
        assert "warm_start" in identity
        # ...and the provenance survives the round trip verbatim.
        assert report.warm_start_from == warm.report.warm_start_from
        assert _payload_bytes(report) == _payload_bytes(warm.report)


class TestSessionIntegration:
    def test_session_retune_installs_and_memoizes(self, template, tmp_path):
        cache = _copy(template, tmp_path)
        with Session(_config(cache, seed=SEED)) as session:
            tuned = session.retune(APP, "Desktop")
            assert tuned.report.warm_start_from is not None
            # The re-tuned session replaces the process-wide entry, so
            # a plain tune() serves it instead of the stale one.
            assert session.tune(APP, DESKTOP) is tuned
            again = session.retune(APP, DESKTOP)
            assert _payload_bytes(again.report) == _payload_bytes(tuned.report)

    def test_retune_config_flag_routes_tune_through_the_graph(
        self, template, tmp_path
    ):
        cache = _copy(template, tmp_path)
        with Session(_config(cache, seed=SEED, retune=True)) as session:
            tuned = session.tune(APP, DESKTOP)
        assert tuned.report.warm_start_from is not None

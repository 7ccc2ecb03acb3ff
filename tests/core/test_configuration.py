"""Unit tests for choice configuration files: the value, its builders
and its canonical key."""

import copy
import json
import pickle
import random
import sys
import threading
from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import tune_program
from repro.api.config import TunerConfig
from repro.apps.registry import all_benchmarks, benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.configuration import Configuration, default_configuration
from repro.core.mutators import mutators_for
from repro.core.selector import Selector
from repro.core.strategies import strategy_names
from repro.errors import ConfigurationError
from repro.hardware.machines import DESKTOP

from tests.conftest import make_stencil_program

APP_NAMES = sorted(spec.name for spec in all_benchmarks())


@pytest.fixture
def training():
    return compile_program(make_stencil_program(5), DESKTOP).training_info


@lru_cache(maxsize=None)
def app_training(name):
    return compile_program(benchmark(name).build_program(), DESKTOP).training_info


def built_configuration(training, rng, steps, label):
    """A configuration derived from the default through the mutators and
    the builders only."""
    config = default_configuration(training)
    mutators = mutators_for(training)
    for _ in range(steps):
        size = rng.choice((16, 256, 4096, 65536))
        config = rng.choice(mutators).mutate(config, rng, size) or config
    name = rng.choice(sorted(training.tunables))
    spec = training.tunables[name]
    config = config.with_tunable(name, rng.randint(spec.lo, spec.hi))
    if training.selectors:
        name = rng.choice(sorted(training.selectors))
        algorithm = rng.randrange(training.selectors[name].num_algorithms)
        config = config.with_selector(name, Selector.constant(algorithm))
    return config.relabelled(label)


def reference_key(config):
    """The key as the configuration file format defines it."""
    payload = {
        "program": config.program_name,
        "label": config.label,
        "selectors": {
            name: {"cutoffs": list(s.cutoffs), "algorithms": list(s.algorithms)}
            for name, s in config.selectors.items()
        },
        "tunables": dict(config.tunables),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestDefaults:
    def test_default_selects_algorithm_zero(self, training):
        config = default_configuration(training)
        assert config.select_index("Stencil", 10) == 0
        assert config.select_index("Stencil", 10**9) == 0

    def test_default_tunables_match_specs(self, training):
        config = default_configuration(training)
        for name, spec in training.tunables.items():
            assert config.tunables[name] == spec.default

    def test_missing_selector_defaults_to_zero(self, training):
        config = Configuration(program_name="stencil-program")
        assert config.select_index("Anything", 5) == 0

    def test_tunable_fallback(self, training):
        config = Configuration(program_name="stencil-program")
        assert config.tunable("missing", 17) == 17


class TestValidation:
    def test_valid_default(self, training):
        default_configuration(training).validate(training)

    def test_unknown_selector_rejected(self, training):
        config = default_configuration(training).with_selector(
            "Ghost", Selector.constant(0)
        )
        with pytest.raises(ConfigurationError):
            config.validate(training)

    def test_out_of_range_algorithm_rejected(self, training):
        config = default_configuration(training).with_selector(
            "Stencil", Selector.constant(99)
        )
        with pytest.raises(ConfigurationError):
            config.validate(training)

    def test_too_many_levels_rejected(self, training):
        selector = Selector.constant(0)
        for level in range(12):
            selector = selector.with_level_added(2 + level, 0)
        config = default_configuration(training).with_selector("Stencil", selector)
        with pytest.raises(ConfigurationError):
            config.validate(training)

    def test_unknown_tunable_rejected(self, training):
        config = default_configuration(training).with_tunable("bogus", 1)
        with pytest.raises(ConfigurationError):
            config.validate(training)

    def test_out_of_range_tunable_rejected(self, training):
        config = default_configuration(training).with_tunable(
            "gpu_ratio_Stencil", 99
        )
        with pytest.raises(ConfigurationError):
            config.validate(training)


class TestSerialisation:
    def test_json_round_trip(self, training):
        config = default_configuration(training, label="Test Config").with_selector(
            "Stencil", Selector(cutoffs=(64,), algorithms=(0, 2))
        )
        restored = Configuration.from_json(config.to_json())
        assert restored.program_name == config.program_name
        assert restored.label == "Test Config"
        assert restored.selectors["Stencil"] == config.selectors["Stencil"]
        assert restored.tunables == config.tunables

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "{}",
            "[]",
            '{"program": "x", "selectors": {"T": {"algorithms": [0]}}}',
        ],
    )
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ConfigurationError):
            Configuration.from_json(text)

    def test_builders_leave_the_original_unchanged(self, training):
        config = default_configuration(training)
        key = config.canonical_key()
        clone = (
            config.relabelled("clone")
            .with_tunable("seq_par_cutoff", 9999)
            .with_selector("Stencil", Selector.constant(1))
        )
        assert config.tunables["seq_par_cutoff"] != 9999
        assert config.select_index("Stencil", 10) == 0
        assert config.label == "default"
        assert config.canonical_key() == key
        assert clone.tunables["seq_par_cutoff"] == 9999
        assert clone.select_index("Stencil", 10) == 1
        assert clone.label == "clone"

    def test_json_is_deterministic(self, training):
        a = default_configuration(training)
        b = default_configuration(training)
        assert a.to_json() == b.to_json()


class TestImmutability:
    def test_item_assignment_raises(self, training):
        config = default_configuration(training)
        with pytest.raises(TypeError):
            config.selectors["Stencil"] = Selector.constant(1)
        with pytest.raises(TypeError):
            config.tunables["seq_par_cutoff"] = 1
        with pytest.raises(TypeError):
            del config.tunables["seq_par_cutoff"]

    @pytest.mark.parametrize(
        "name", ["program_name", "selectors", "tunables", "label", "_key", "extra"]
    )
    def test_attribute_assignment_raises(self, training, name):
        config = default_configuration(training)
        key = config.canonical_key()
        with pytest.raises(TypeError):
            setattr(config, name, {})
        with pytest.raises(TypeError):
            delattr(config, name)
        assert config.canonical_key() == key

    def test_construction_copies_the_mappings(self):
        selectors = {"T": Selector.constant(1)}
        tunables = {"x": 1}
        config = Configuration("P", selectors, tunables)
        selectors["T"] = Selector.constant(2)
        tunables["x"] = 2
        assert config.select_index("T", 10) == 1
        assert config.tunable("x") == 1

    def test_copy_is_gone(self):
        assert not hasattr(Configuration, "copy")

    def test_relabelling_to_the_same_label_is_the_same_value(self, training):
        config = default_configuration(training)
        assert config.relabelled(config.label) is config


@given(
    app=st.sampled_from(APP_NAMES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=0, max_value=8),
    label=st.text(max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_canonical_key_is_the_reference_json_and_round_trips(app, seed, steps, label):
    training = app_training(app)
    config = built_configuration(training, random.Random(seed), steps, label)
    fresh = built_configuration(training, random.Random(seed), steps, label)
    assert hash(fresh) == hash(fresh.canonical_key())  # hashed before keyed
    key = config.canonical_key()
    assert key == reference_key(config)
    assert config.canonical_key() is key  # built once, then stored
    assert hash(config) == hash(config.canonical_key()) == hash(key)

    restored = Configuration.from_json(key)
    assert restored == config
    assert hash(restored) == hash(config)
    assert restored.canonical_key() == key

    # Equal keys mean equal configurations, and only they do: the same
    # derivation replayed, or the same entries inserted in another
    # order, builds a distinct but equal instance with the same key.
    twin = built_configuration(training, random.Random(seed), steps, label)
    assert twin is not config and twin == config and len({twin, config}) == 1
    reordered = Configuration(
        config.program_name,
        dict(reversed(list(config.selectors.items()))),
        dict(reversed(list(config.tunables.items()))),
        config.label,
    )
    assert reordered.canonical_key() == key and reordered == config
    other = config.with_tunable("__absent__", 1)
    assert other != config and other.canonical_key() != key


@pytest.mark.parametrize(
    "clone",
    [
        lambda config: pickle.loads(pickle.dumps(config)),
        copy.deepcopy,
        copy.copy,
    ],
    ids=["pickle", "deepcopy", "copy"],
)
def test_pickle_and_copies_round_trip(clone):
    training = app_training("Sort")
    config = built_configuration(training, random.Random(5), 6, "Desktop Config")
    key = config.canonical_key()
    restored = clone(config)
    assert restored == config
    assert restored.canonical_key() == key
    with pytest.raises(TypeError):
        restored.tunables["seq_par_cutoff"] = 1


def test_threads_racing_on_first_keys_all_get_the_reference_key():
    """Pool threads may ask a fresh configuration for its key at once:
    each may build it, and every caller still gets the same text."""
    training = app_training("SVD")
    rng = random.Random(11)
    configs = [built_configuration(training, rng, 4, "race") for _ in range(200)]
    expected = [reference_key(config) for config in configs]
    results = [[] for _ in range(8)]
    start = threading.Barrier(len(results))

    def ask(out):
        start.wait(timeout=10)
        out.extend(config.canonical_key() for config in configs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == expected for out in results)
    assert [config.canonical_key() for config in configs] == expected


@pytest.mark.parametrize("strategy", strategy_names())
def test_a_cold_serial_session_builds_each_key_once(
    monkeypatch, tmp_path, strategy
):
    """Every configuration instance of a cold serial session with
    checkpoints builds its canonical key at most once: a rebuilt key
    would be a new string object for the same instance."""
    built = defaultdict(set)
    seen = []  # keeps instances and keys alive, so ids stay unique
    original = Configuration.canonical_key

    def counting(self):
        key = original(self)
        seen.append((self, key))
        built[id(self)].add(id(key))
        return key

    monkeypatch.setattr(Configuration, "canonical_key", counting)
    spec = benchmark("SeparableConv.")
    tune_program(
        compile_program(spec.build_program(), DESKTOP),
        canonical_env_factory("SeparableConv."),
        max_size=96,
        seed=1,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        config=TunerConfig.resolve(
            backend="serial",
            strategy=strategy,
            cache_dir=str(tmp_path),
            checkpoint_every=16,
            resume=False,
        ),
    )
    assert built
    assert max(len(keys) for keys in built.values()) == 1
    # Asked again, every instance returns its stored key, not a rebuilt
    # one.  (Dict operations no longer ask: the key's hash is stored.)
    assert all(original(config) is key for config, key in seen)

"""Layered TunerConfig resolution: precedence, provenance, errors.

The precedence rule lives in exactly one place
(``TunerConfig.resolve``): built-in defaults < ``REPRO_*`` environment
< ``repro.toml`` < explicit arguments.  These tests pin each layer
beating the previous one, the per-field provenance report, the
fail-fast error messages, the one grammar every environment value
follows at every entry point, and that nothing else in the library
reads the environment.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re

import pytest

import repro
from repro.api import Session
from repro.api.config import ENV_BY_FIELD, TunerConfig, _parse_mini_toml
from repro.core.search import EvolutionaryTuner
from repro.errors import ConfigError
from repro.experiments.__main__ import main as experiments_main

from tests.conftest import scale_env


class TestPrecedence:
    def test_defaults_when_nothing_is_set(self):
        config = TunerConfig.resolve(environ={})
        assert config == TunerConfig()
        assert all(
            source == "default" for _, _, source in config.provenance_rows()
        )

    def test_env_beats_default(self):
        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_BACKEND": "process", "REPRO_TUNER_WORKERS": "3"}
        )
        assert config.backend == "process"
        assert config.workers == 3
        assert config.provenance["backend"] == "env:REPRO_TUNER_BACKEND"
        assert config.provenance["strategy"] == "default"

    def test_file_beats_env(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text('backend = "thread"\nworkers = 5\n')
        config = TunerConfig.resolve(
            config_file=str(path),
            environ={"REPRO_TUNER_BACKEND": "process", "REPRO_TUNER_WORKERS": "3"},
        )
        assert config.backend == "thread"
        assert config.workers == 5
        assert config.provenance["backend"] == f"file:{path}"

    def test_arg_beats_file_and_env(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text('backend = "thread"\n')
        config = TunerConfig.resolve(
            config_file=str(path),
            environ={"REPRO_TUNER_BACKEND": "process"},
            backend="serial",
        )
        assert config.backend == "serial"
        assert config.provenance["backend"] == "arg"

    def test_none_overrides_mean_not_set(self):
        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_STRATEGY": "bandit"}, strategy=None
        )
        assert config.strategy == "bandit"

    def test_quiet_beats_progress_env(self):
        """The regression the redesign exists for: an explicit
        progress choice (the CLI's --quiet) must beat
        REPRO_TUNER_PROGRESS=1."""
        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_PROGRESS": "1"}, progress=False
        )
        assert config.progress is False
        assert config.provenance["progress"] == "arg"

    def test_every_field_resolves_from_env(self):
        environ = {
            "REPRO_TUNER_BACKEND": "thread",
            "REPRO_TUNER_WORKERS": "2",
            "REPRO_TUNE_MANY_WORKERS": "8",
            "REPRO_TUNER_STRATEGY": "hillclimb",
            "REPRO_SEED": "17",
            "REPRO_CACHE_DIR": "/tmp/some-cache",
            "REPRO_TUNER_CHECKPOINT_EVERY": "16",
            "REPRO_TUNER_RESUME": "1",
            "REPRO_TUNER_PROGRESS": "yes",
            "REPRO_FULL_SCALE": "1",
        }
        config = TunerConfig.resolve(environ=environ)
        assert config == TunerConfig(
            backend="thread",
            workers=2,
            tune_many_workers=8,
            strategy="hillclimb",
            seed=17,
            cache_dir="/tmp/some-cache",
            checkpoint_every=16,
            resume=True,
            progress=True,
            full_scale=True,
        )

    def test_empty_int_env_values_are_unset(self):
        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_WORKERS": "", "REPRO_SEED": "  "}
        )
        assert config.workers == 1
        assert config.seed == 3
        assert config.provenance["workers"] == "default"

    def test_falsy_cache_dir_disables(self):
        for raw in ("0", "off", "none"):
            config = TunerConfig.resolve(environ={"REPRO_CACHE_DIR": raw})
            assert config.cache_dir is None

    def test_empty_flag_env_values_are_unset(self):
        config = TunerConfig.resolve(environ={"REPRO_TUNER_RESUME": ""})
        assert config.resume is False
        assert config.provenance["resume"] == "default"


#: (case id, repro.toml text, what the fallback reader returns: a dict
#: or ConfigError).  The fallback may be stricter than tomllib, never
#: more lenient or different.
MINI_TOML_CASES = [
    (
        "documented-subset",
        '# comment\nbackend = "thread"  # trailing\nworkers = 4  # inline\n'
        "resume = true\ncluster_heartbeat_s = 0.5\nseed = -3\n"
        '[tuner]\nstrategy = "bandit"\n',
        {
            "backend": "thread",
            "workers": 4,
            "resume": True,
            "cluster_heartbeat_s": 0.5,
            "seed": -3,
            "tuner": {"strategy": "bandit"},
        },
    ),
    ("crlf-and-spaced-header", 'workers = +4\r\n[ tuner ]\r\nfault_spec = ""\r\n',
     {"workers": 4, "tuner": {"fault_spec": ""}}),
    ("comment-right-after-string", 'backend = "serial"#c\n', {"backend": "serial"}),
    ("text-after-closing-quote", 'backend = "thread" junk\n', ConfigError),
    ("repeated-key", "workers = 2\nworkers = 3\n", ConfigError),
    ("repeated-table", "[tuner]\nworkers = 2\n[tuner]\nseed = 1\n", ConfigError),
    ("empty-key", " = 1\n", ConfigError),
    ("escaped-quote", 'backend = "thr\\"ead"\n', ConfigError),
    ("any-escape", 'cache_dir = "C:\\\\cache"\n', ConfigError),
    ("key-and-table-clash", "tuner = 1\n[tuner]\n", ConfigError),
    ("leading-zero", "workers = 04\n", ConfigError),
    ("array", "workers = [4, 5]\n", ConfigError),
    ("unterminated-string", 'backend = "thread\n', ConfigError),
    ("missing-value", "workers =\n", ConfigError),
    ("no-equals", "workers\n", ConfigError),
    ("control-character", "workers = 4\x0c\n", ConfigError),
    ("unclosed-table-header", "workers = 2\n[tuner", ConfigError),
    ("carriage-return-at-end", "workers = 2\r", ConfigError),
    # Valid TOML outside the subset: the fallback is allowed to refuse.
    ("literal-string", "backend = 'thread'\n", ConfigError),
    ("dotted-key", "tuner.workers = 2\n", ConfigError),
]


class TestConfigFile:
    def test_tuner_table_wins_over_top_level(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text(
            'workers = 2\n\n[tuner]\nworkers = 6\nstrategy = "random"\n'
        )
        config = TunerConfig.resolve(config_file=str(path), environ={})
        assert config.workers == 6
        assert config.strategy == "random"

    def test_discovered_via_env_variable(self, tmp_path):
        path = tmp_path / "custom.toml"
        path.write_text('backend = "serial"\n')
        config = TunerConfig.resolve(
            environ={"REPRO_CONFIG_FILE": str(path)}
        )
        assert config.backend == "serial"

    def test_discovered_in_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "repro.toml").write_text("seed = 11\n")
        monkeypatch.chdir(tmp_path)
        assert TunerConfig.resolve(environ={}).seed == 11

    def test_missing_explicit_file_fails(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            TunerConfig.resolve(
                config_file=str(tmp_path / "absent.toml"), environ={}
            )

    def test_unknown_key_fails(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("sneed = 3\n")
        with pytest.raises(ConfigError, match="sneed"):
            TunerConfig.resolve(config_file=str(path), environ={})

    def test_mistyped_value_fails(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text('workers = "four"\n')
        with pytest.raises(ConfigError, match="expected an integer"):
            TunerConfig.resolve(config_file=str(path), environ={})

    def test_mini_toml_parser_matches_needs(self):
        data = _parse_mini_toml(
            "# comment\n"
            'backend = "thread"\n'
            "workers = 4  # inline comment\n"
            "resume = true\n"
            "[tuner]\n"
            'strategy = "bandit"\n',
            "test.toml",
        )
        assert data == {
            "backend": "thread",
            "workers": 4,
            "resume": True,
            "tuner": {"strategy": "bandit"},
        }

    def test_mini_toml_parses_floats(self):
        # Floats became first-class when the cluster heartbeat/timeout
        # knobs landed; a float where an int belongs is still rejected,
        # but at field coercion rather than in the parser.
        assert _parse_mini_toml(
            "cluster_heartbeat_s = 0.5\n", "test.toml"
        ) == {"cluster_heartbeat_s": 0.5}

    def test_mini_toml_rejects_unsupported_values(self):
        with pytest.raises(ConfigError, match="unsupported value"):
            _parse_mini_toml("workers = [4, 5]\n", "test.toml")

    @pytest.mark.parametrize(
        "text,expected",
        [case[1:] for case in MINI_TOML_CASES],
        ids=[case[0] for case in MINI_TOML_CASES],
    )
    def test_mini_toml_fallback_never_disagrees_with_tomllib(self, text, expected):
        if expected is ConfigError:
            with pytest.raises(ConfigError, match=r"test\.toml, line \d+"):
                _parse_mini_toml(text, "test.toml")
        else:
            assert _parse_mini_toml(text, "test.toml") == expected
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11: the fallback is the reader
            return
        try:
            reference = tomllib.loads(text)
        except tomllib.TOMLDecodeError:
            assert expected is ConfigError, "the fallback accepts what tomllib rejects"
        else:
            if expected is not ConfigError:
                assert expected == reference

    @pytest.mark.parametrize(
        "text",
        ["cluster_timeout_s = inf\n", "seed = " + "1" * 5000 + "\n"],
        ids=["infinite-seconds", "past-the-digit-limit"],
    )
    def test_a_bad_number_fails_naming_the_file(self, text, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            TunerConfig.resolve(environ={}, config_file=str(path))
        assert str(path) in str(info.value)

    def test_float_where_int_expected_fails_at_coercion(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("workers = 4.5\n")
        with pytest.raises(ConfigError, match="expected an integer"):
            TunerConfig.resolve(environ={}, config_file=str(path))


#: (case id, variable, raw value, resolved field value, ConfigError,
#: or UNSET for "same as not set").  Every integer knob shares one
#: grammar: surrounding whitespace is ignored, and anything that is not
#: a plain base-10 integer at or above the knob's minimum is an error.
UNSET = object()
WORKER_COUNT_VALUES = [
    ("2", "2", 2),
    ("padded-2", " 2 ", 2),
    ("tab-newline-3", "\t3\n", 3),
    ("plus-4", "+4", 4),
    ("empty", "", UNSET),
    ("blank", "   ", UNSET),
    ("zero", "0", ConfigError),
    ("negative", "-3", ConfigError),
    ("float", "2.0", ConfigError),
    ("fraction", "2.5", ConfigError),
    ("exponent", "1e2", ConfigError),
    ("word", "many", ConfigError),
    ("trailing-word", "2 workers", ConfigError),
    ("underscore", "1_0", ConfigError),
    ("non-ascii-digit", "\u0663", ConfigError),
    ("too-many-digits", "1" * 5000, ConfigError),
]
#: Seconds are an ASCII decimal number, finite, > 0 and no longer than
#: the longest wait the platform supports (``threading.TIMEOUT_MAX``).
SECONDS_VALUES = [
    ("inf", "inf", ConfigError),
    ("overflow", "1e400", ConfigError),
    ("past-the-longest-wait", "1e10", ConfigError),
    ("nan", "nan", ConfigError),
    ("zero", "0", ConfigError),
    ("negative", "-1", ConfigError),
    ("padded-2.5", " 2.5 ", 2.5),
]
STRICT_ENV_CASES = [
    (f"{variable}-{label}", variable, raw, expected)
    for variable in ("REPRO_TUNER_WORKERS", "REPRO_TUNE_MANY_WORKERS")
    for label, raw, expected in WORKER_COUNT_VALUES
] + [
    (f"{variable}-{label}", variable, raw, expected)
    for variable in ("REPRO_CLUSTER_HEARTBEAT_S", "REPRO_CLUSTER_TIMEOUT_S")
    for label, raw, expected in SECONDS_VALUES
] + [
    ("REPRO_CACHE_DIR-padded-path", "REPRO_CACHE_DIR", "  /tmp/repro-cache \n", "/tmp/repro-cache"),
    ("REPRO_CACHE_DIR-empty", "REPRO_CACHE_DIR", "", UNSET),
    ("REPRO_CACHE_DIR-blank", "REPRO_CACHE_DIR", "   ", None),
    ("REPRO_CACHE_DIR-zero", "REPRO_CACHE_DIR", "0", None),
    ("REPRO_CACHE_DIR-off", "REPRO_CACHE_DIR", "off", None),
    ("REPRO_CACHE_DIR-None", "REPRO_CACHE_DIR", "None", None),
    ("REPRO_CACHE_DIR-false", "REPRO_CACHE_DIR", "false", None),
    ("REPRO_FULL_SCALE-off", "REPRO_FULL_SCALE", "off", False),
    ("REPRO_FULL_SCALE-zero", "REPRO_FULL_SCALE", "0", False),
    ("REPRO_FULL_SCALE-one", "REPRO_FULL_SCALE", "1", True),
    ("REPRO_TUNER_BACKEND-padded", "REPRO_TUNER_BACKEND", "  Process \n", "process"),
    ("REPRO_TUNER_BACKEND-bogus", "REPRO_TUNER_BACKEND", "bogus", ConfigError),
    ("REPRO_TUNER_STRATEGY-bogus", "REPRO_TUNER_STRATEGY", "bogus", ConfigError),
    ("REPRO_SEED-word", "REPRO_SEED", "not-a-number", ConfigError),
]
FIELD_BY_ENV = {variable: name for name, variable in ENV_BY_FIELD.items()}


class TestStrictEnv:
    @pytest.mark.parametrize(
        "variable,raw,expected",
        [case[1:] for case in STRICT_ENV_CASES],
        ids=[case[0] for case in STRICT_ENV_CASES],
    )
    def test_env_value(self, variable, raw, expected):
        field_name = FIELD_BY_ENV[variable]
        if expected is ConfigError:
            with pytest.raises(ConfigError, match=variable):
                TunerConfig.resolve(environ={variable: raw})
            return
        config = TunerConfig.resolve(environ={variable: raw})
        if expected is UNSET:
            assert config == TunerConfig()
            assert config.provenance[field_name] == "default"
        else:
            assert getattr(config, field_name) == expected
            assert config.provenance[field_name] == f"env:{variable}"


class TestErrors:
    def test_bad_env_backend_names_the_variable(self):
        with pytest.raises(ConfigError, match="REPRO_TUNER_BACKEND"):
            TunerConfig.resolve(environ={"REPRO_TUNER_BACKEND": "bogus"})

    def test_bad_env_worker_count_fails_fast(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            TunerConfig.resolve(environ={"REPRO_TUNER_WORKERS": "2.0"})

    def test_bad_arg_strategy_lists_alternatives(self):
        with pytest.raises(ConfigError, match="evolutionary"):
            TunerConfig.resolve(environ={}, strategy="simulated-annealing")

    def test_unknown_override_name(self):
        with pytest.raises(ConfigError, match="wokers"):
            TunerConfig.resolve(environ={}, wokers=2)

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError, match="workers"):
            TunerConfig(workers=0)
        with pytest.raises(ConfigError, match="checkpoint_every"):
            TunerConfig(checkpoint_every=-1)
        with pytest.raises(ConfigError, match="resume"):
            TunerConfig(resume="yes")
        with pytest.raises(ConfigError, match="cluster_timeout_s"):
            TunerConfig(cluster_timeout_s=float("inf"))

    @pytest.mark.parametrize("cli", ["repro.experiments", "repro.service"])
    def test_cli_flags_read_as_their_variables(self, cli, monkeypatch, capsys):
        """``1_0`` is not an integer on a command line either."""
        if cli == "repro.experiments":
            assert experiments_main(["config", "--cluster-workers=1_0"]) == 2
            assert "cluster_workers" in capsys.readouterr().out
            return
        import repro.service.__main__ as service_cli

        def no_daemon(config):
            raise AssertionError(f"started a daemon with {config}")

        monkeypatch.setattr(service_cli, "TuningService", no_daemon)
        assert service_cli.main(["--max-jobs=1_0"]) == 2
        assert "service_max_jobs" in capsys.readouterr().err


#: A value of the wrong kind for every field: (repro.toml or argument
#: value, environment text).  The text is None where every text is a
#: value of the field's kind (flags, and optional text without a
#: grammar).
WRONG_KIND = {
    "backend": (5, "bogus"),
    "workers": ("4", "four"),
    "batch_lanes": (4.5, "4.5"),
    "tune_many_workers": ("4", "1_0"),
    "strategy": (True, "annealing"),
    "seed": (3.0, "3.0"),
    "cache_dir": (5, None),
    "checkpoint_every": (True, "yes"),
    "resume": (1, None),
    "retune": ("yes", None),
    "progress": (0, None),
    "full_scale": ("on", None),
    "cluster_address": (7733, None),
    "cluster_workers": ("2", "two"),
    "cluster_heartbeat_s": ("2", "2s"),
    "cluster_timeout_s": (True, "inf"),
    "service_address": (7734, None),
    "service_max_jobs": ("1", "\u0661"),
    "service_rate_limit": (1.0, "1e2"),
    "fault_spec": (42, "not-a-spec"),
}


def _wrong_kind_cases():
    for name in ENV_BY_FIELD:
        value, text = WRONG_KIND[name]
        yield pytest.param(name, "repro.toml", value, id=f"{name}-repro.toml")
        yield pytest.param(name, "argument", value, id=f"{name}-argument")
        if text is not None:
            yield pytest.param(name, "environment", text, id=f"{name}-environment")


@pytest.mark.parametrize("field_name,source,value", list(_wrong_kind_cases()))
def test_a_value_of_the_wrong_kind_fails_naming_its_source(
    field_name, source, value, tmp_path
):
    """Every source's values go through the one kind check, so every
    error names the field, the value and where it came from."""
    if source == "repro.toml":
        path = tmp_path / "repro.toml"
        path.write_text(f"{field_name} = {json.dumps(value)}\n")
        kwargs = {"config_file": str(path), "environ": {}}
        origin = f"the config file {path}"
    elif source == "argument":
        kwargs = {"environ": {}, field_name: value}
        origin = f"the explicit {field_name}= argument"
    else:
        variable = ENV_BY_FIELD[field_name]
        kwargs = {"environ": {variable: value}}
        origin = f"the {variable} environment variable"
    with pytest.raises(ConfigError) as info:
        TunerConfig.resolve(**kwargs)
    message = str(info.value)
    assert message.startswith(f"invalid TunerConfig.{field_name} (from {origin}): ")
    assert repr(value) in message


class TestDerivedViews:
    def test_with_overrides_reprovenances(self):
        config = TunerConfig.resolve(environ={"REPRO_TUNER_WORKERS": "2"})
        updated = config.with_overrides(workers=7)
        assert updated.workers == 7
        assert updated.provenance["workers"] == "arg"
        assert config.workers == 2  # immutable

    def test_with_defaults_only_touches_default_fields(self):
        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_PROGRESS": "0"}
        ).with_defaults(progress=True, workers=9)
        # progress came from the environment: untouched.
        assert config.progress is False
        # workers was still default: takes the new default, keeps
        # "default" provenance so later layers may still beat it.
        assert config.workers == 9
        assert config.provenance["workers"] == "default"

    def test_file_choices_are_explicit_env_choices_are_not(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text('backend = "process"\n')
        from_file = TunerConfig.resolve(config_file=str(path), environ={})
        from_environ = TunerConfig.resolve(
            environ={"REPRO_TUNER_BACKEND": "process"}
        )
        assert from_file.is_explicit("backend")
        assert not from_environ.is_explicit("backend")

    def test_picklable_across_process_boundaries(self):
        import pickle

        config = TunerConfig.resolve(
            environ={"REPRO_TUNER_STRATEGY": "hillclimb"}, workers=2
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.provenance == config.provenance

    def test_provenance_rows_cover_every_field(self):
        rows = TunerConfig().provenance_rows()
        assert [name for name, _, _ in rows] == [
            "backend",
            "workers",
            "batch_lanes",
            "tune_many_workers",
            "strategy",
            "seed",
            "cache_dir",
            "checkpoint_every",
            "resume",
            "retune",
            "progress",
            "full_scale",
            "cluster_address",
            "cluster_workers",
            "cluster_heartbeat_s",
            "cluster_timeout_s",
            "service_address",
            "service_max_jobs",
            "service_rate_limit",
            "fault_spec",
        ]


def _session_config(compiled_scale):
    with Session() as session:
        return session.config


def _tuner_config(compiled_scale):
    with EvolutionaryTuner(compiled_scale, scale_env, max_size=64) as tuner:
        return tuner.config


class TestEntryPoints:
    """One meaning per environment value, however the tuner is entered:
    every entry point resolves through ``TunerConfig.resolve``."""

    ENTRIES = {
        "Session()": _session_config,
        "EvolutionaryTuner(config=None)": _tuner_config,
    }

    @pytest.mark.parametrize("entry", [*ENTRIES, "repro.experiments-config"])
    def test_bad_backend_fails_naming_the_variable(
        self, entry, monkeypatch, capsys, compiled_scale
    ):
        monkeypatch.setenv("REPRO_TUNER_BACKEND", "bogus")
        if entry in self.ENTRIES:
            with pytest.raises(ConfigError, match="REPRO_TUNER_BACKEND"):
                self.ENTRIES[entry](compiled_scale)
        else:
            assert experiments_main(["config"]) == 2
            assert "REPRO_TUNER_BACKEND" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [*ENTRIES, "repro.experiments-config"])
    def test_full_scale_off_means_off(self, entry, monkeypatch, capsys, compiled_scale):
        monkeypatch.setenv("REPRO_FULL_SCALE", "off")
        if entry in self.ENTRIES:
            assert self.ENTRIES[entry](compiled_scale).full_scale is False
        else:
            assert experiments_main(["config"]) == 0
            rows = [line.split() for line in capsys.readouterr().out.splitlines()]
            assert ["full_scale", "False", "environment", "(REPRO_FULL_SCALE)"] in rows


#: Modules allowed to touch the environment: the config resolver, and
#: the fault plane, which reads REPRO_FAULTS at import so a spawned
#: worker process inherits its parent's chaos plan.
ENV_READERS = {"api/config.py", "faults/__init__.py"}


def test_only_the_config_module_reads_the_environment():
    root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name in ENV_READERS:
            continue
        text = path.read_text(encoding="utf-8")
        if re.search(r"\bos\.(environ|getenv)\b|\bfrom os import .*\b(environ|getenv)\b", text):
            offenders.append(f"{name} reads os.environ")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api.config":
                names = [
                    alias.name
                    for alias in node.names
                    if re.match(r"(?i)env_", alias.name)
                ]
                if names:
                    offenders.append(f"{name} imports {names} from repro.api.config")
    assert offenders == []

"""Layered tuner configuration: the single home of every knob.

:class:`TunerConfig` is a frozen dataclass holding every tuner knob,
and :meth:`TunerConfig.resolve` is the only code in the library that
reads a ``REPRO_*`` tuner knob from the environment.  Entry points
(:class:`repro.api.Session`, :func:`repro.api.tune_program`,
``EvolutionaryTuner(config=None)``, the tuning service, both CLIs and
the figure harnesses) resolve a config once and hand it down; the
engine layers below them never consult the environment, and ``None``
there means the built-in default.

Each field is declared once, and that declaration is the one place a
knob's *kind* lives, next to its default and its environment
variable.  The kinds are: an on/off flag, an integer with a minimum,
finite seconds > 0, optional text (where a falsy string means
``None``) and a registered backend or strategy name.  Environment
values and the CLIs' ``--flag=value`` text read through one text
parser (:func:`parse_text`); text that does not parse stays text.
Every value, whatever its source, is then checked against its kind
when the config is constructed.

Sources are layered ``built-in defaults < REPRO_* environment <
repro.toml config file < explicit arguments``; every field records its
provenance (``default``, ``env:VAR``, ``file:PATH`` or ``arg``), and
malformed values fail fast with a :class:`~repro.errors.ConfigError`
naming the field, the bad value and where it came from.  Precedence
is encoded exactly once, here: that is why ``--quiet`` on the
experiments CLI wins over ``REPRO_TUNER_PROGRESS=1`` (the flag
arrives as an argument-layer override).  Construct a
:class:`TunerConfig` directly for fully explicit settings that ignore
the environment.

The config file
===============

``repro.toml`` is looked up as: the explicit ``config_file`` argument,
else the ``REPRO_CONFIG_FILE`` environment variable, else a
``repro.toml`` in the current directory.  Keys are the
:class:`TunerConfig` field names, either at the top level or inside a
``[tuner]`` table::

    # repro.toml
    backend = "process"
    workers = 4

    [tuner]
    strategy = "bandit"     # the [tuner] table wins over top level

Unknown keys and mistyped values are errors — a config file is always
explicit intent.  Parsing uses :mod:`tomllib` when available (Python
3.11+) and falls back to a built-in reader for the flat
string/int/float/bool subset above on older interpreters.  The
fallback never accepts a file :mod:`tomllib` would reject or read
differently: anything outside the subset (escapes, literal strings,
dotted keys, repeated keys or tables) is a ``ConfigError``.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import re
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "DEFAULT_BATCH_LANES",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_CLUSTER_HEARTBEAT_S",
    "DEFAULT_CLUSTER_TIMEOUT_S",
    "DEFAULT_CLUSTER_WORKERS",
    "DEFAULT_SEED",
    "DEFAULT_SERVICE_ADDRESS",
    "DEFAULT_SERVICE_MAX_JOBS",
    "DEFAULT_SERVICE_RATE_LIMIT",
    "DEFAULT_TUNE_MANY_WORKERS",
    "DEFAULT_WORKERS",
    "ENV_CACHE_DIR",
    "ENV_CONFIG_FILE",
    "ENV_FAULTS",
    "FALSY_VALUES",
    "TunerConfig",
    "parse_text",
]

#: Environment variable naming the config file (overrides the
#: ``./repro.toml`` default lookup).
ENV_CONFIG_FILE = "REPRO_CONFIG_FILE"

#: Values that mean "disabled"/"off" for the repo's on-off knobs
#: (``REPRO_CACHE_DIR``, ``REPRO_TUNER_RESUME``,
#: ``REPRO_TUNER_PROGRESS``, ``REPRO_FULL_SCALE`` share this grammar).
FALSY_VALUES = ("", "0", "off", "none", "false")

#: Built-in defaults shared with the engine modules.
DEFAULT_WORKERS = 1
DEFAULT_BATCH_LANES = 1
DEFAULT_TUNE_MANY_WORKERS = 4
DEFAULT_SEED = 3
DEFAULT_CHECKPOINT_EVERY = 64
DEFAULT_CLUSTER_WORKERS = 2
DEFAULT_CLUSTER_HEARTBEAT_S = 2.0
DEFAULT_CLUSTER_TIMEOUT_S = 10.0
DEFAULT_SERVICE_ADDRESS = "127.0.0.1:7734"
DEFAULT_SERVICE_MAX_JOBS = 0  # 0 means "= tune_many_workers"
DEFAULT_SERVICE_RATE_LIMIT = 0  # 0 means "unlimited"

#: How integers and seconds may be written as text: ASCII digits only,
#: so neither ``1_0`` nor non-ASCII digits (which ``int()`` and
#: ``float()`` accept), and no ``inf`` or ``nan``.
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
_SECONDS_TEXT = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class _Kind:
    """What values one knob takes, and how its text reads."""

    #: Whether blank environment text is a value (else it means unset).
    blank_is_value = False

    def from_text(self, text: str) -> object:
        """The value ``text`` spells.  Text that does not parse stays
        text, so :meth:`check` refuses it and names its source."""
        return text

    def check(self, value: object) -> object:
        """``value``, normalised; raises :class:`ConfigError` saying
        what was expected when it is not of this kind."""
        raise NotImplementedError

    def read(self, text: str) -> object:
        """``text`` parsed and checked as this kind: how a CLI flag
        that is not a :class:`TunerConfig` field reads its number."""
        return self.check(self.from_text(text))


class _Flag(_Kind):
    """On/off; as text, anything but a falsy value means on."""

    def from_text(self, text: str) -> object:
        return text.strip().lower() not in FALSY_VALUES

    def check(self, value: object) -> object:
        if not isinstance(value, bool):
            raise ConfigError(f"expected true/false, got {value!r}")
        return value


class _Integer(_Kind):
    """An integer at or above ``minimum``."""

    def __init__(self, minimum: int) -> None:
        self.minimum = minimum

    def from_text(self, text: str) -> object:
        if _INTEGER_TEXT.fullmatch(text.strip()):
            try:
                return int(text)
            except ValueError:  # more digits than int() converts
                pass
        return text

    def check(self, value: object) -> object:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}")
        if value < self.minimum:
            raise ConfigError(f"must be >= {self.minimum}, got {value}")
        return value


class _Seconds(_Kind):
    """Finite seconds > 0, no longer than the longest wait the platform
    supports (a longer timeout makes every wait on it raise
    ``OverflowError``)."""

    def from_text(self, text: str) -> object:
        return float(text) if _SECONDS_TEXT.fullmatch(text.strip()) else text

    def check(self, value: object) -> object:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number of seconds, got {value!r}")
        if not 0 < value <= threading.TIMEOUT_MAX:  # also refuses nan
            raise ConfigError(
                f"must be > 0 and at most {threading.TIMEOUT_MAX:g}, got {value}"
            )
        return float(value)


class _Text(_Kind):
    """Optional text, stripped; a falsy string means ``None``.  A
    ``grammar`` callable, when given, raises :class:`ConfigError` for
    text it does not accept."""

    blank_is_value = True

    def __init__(self, grammar: Optional[Callable[[str], object]] = None) -> None:
        self.grammar = grammar

    def check(self, value: object) -> object:
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"expected a string or None, got {value!r}")
        text = value.strip()
        if text.lower() in FALSY_VALUES:
            return None
        if self.grammar is not None:
            self.grammar(text)
        return text


class _Name(_Kind):
    """A registered backend or search-strategy name, in any case."""

    def __init__(self, what: str) -> None:
        self.what = what

    def check(self, value: object) -> object:
        names = _registered_names(self.what)
        name = value.strip().lower() if isinstance(value, str) else None
        if name not in names:
            raise ConfigError(
                f"unknown {self.what} {value!r}; available: {list(names)}"
            )
        return name


def _registered_names(what: str) -> Tuple[str, ...]:
    """The names a ``"backend"`` or ``"search strategy"`` knob takes."""
    # Function-local imports: both registries import this module.
    if what == "backend":
        from repro.core.backends import BACKEND_NAMES

        return ("auto",) + BACKEND_NAMES
    from repro.core.strategies import strategy_names

    return tuple(strategy_names())


def _fault_grammar(spec: str) -> None:
    # Checked at config time (with provenance) so a typo'd chaos spec
    # fails here instead of silently injecting nothing mid-run.
    # Function-local import: repro.faults imports this module.
    from repro.faults import parse_fault_plan

    parse_fault_plan(spec)


def _knob(default: object, env: str, kind: _Kind):
    """One field's declaration: its default, environment variable and
    kind."""
    return field(default=default, metadata={"env": env, "kind": kind})


@dataclass(frozen=True)
class TunerConfig:
    """Every tuner knob, as one typed, immutable, picklable value.

    Construct it directly for fully explicit settings
    (``TunerConfig(backend="thread", workers=4)``), or with
    :meth:`resolve` for the layered resolution every entry point uses.
    Values are checked against their field's kind on construction;
    invalid ones raise :class:`~repro.errors.ConfigError` with the
    field, value and provenance in the message.

    Attributes:
        backend: Evaluation backend — ``"auto"``, ``"serial"``,
            ``"thread"``, ``"process"`` or ``"cluster"``.  Reports are
            bit-for-bit identical on every backend.
        workers: Speculative evaluation workers per tuning session.
        batch_lanes: Candidate configurations per pooled submission
            (1 = one configuration per submission).  With more than
            one lane the thread, process and cluster backends ship
            whole chunks sharing test-input generation and prepared
            plans — byte-identical reports, fewer submissions.  The
            serial backend ignores it: it never speculates.
        tune_many_workers: Concurrent sessions (thread scheduling) or
            shard processes (process scheduling) for batch tuning.
        strategy: Search strategy name (see
            :mod:`repro.core.strategies`).
        seed: Experiment seed (tuning and scheduling randomness).
        cache_dir: Cross-session evaluation cache directory (None
            disables the disk layer; finished sessions' reports live
            in its ``checkpoints/`` subdirectory).
        checkpoint_every: Commits between evaluation-log syncs (0: the
            log syncs only when the evaluator closes).
        resume: Serve a finished session's stored report; an
            unfinished one reruns from the evaluation cache.
        retune: Route benchmark tuning through the incremental
            re-tuning path (:mod:`repro.artifacts.retune`): consult
            the derivation graph, serve byte-cached reports when every
            node is clean, and warm-start the search from the prior
            report's best configuration otherwise.
        progress: Emit per-round tuning progress lines on stderr.
        full_scale: Run experiments at the paper's exact input sizes.
        cluster_address: ``host:port`` of a running cluster
            coordinator for ``backend="cluster"``; ``None`` self-hosts
            a loopback fleet.
        cluster_workers: Size of the self-hosted loopback fleet
            (ignored when ``cluster_address`` is set — a real fleet's
            width is whatever has joined it).
        cluster_heartbeat_s: Cluster worker heartbeat interval,
            seconds.
        cluster_timeout_s: Cluster connect timeout and dead-worker
            heartbeat threshold, seconds.
        service_address: ``host:port`` the tuning-service daemon binds
            (``python -m repro.service``) and service clients connect
            to; ``None`` uses :data:`DEFAULT_SERVICE_ADDRESS`.
        service_max_jobs: Concurrent tuning jobs the service admits
            (queue the rest); 0 means "as many as
            ``tune_many_workers``" — admission can never exceed the
            session pool's slots either way.
        service_rate_limit: Per-client job admissions per minute on
            the service (0 disables rate limiting).
        fault_spec: Deterministic fault-injection spec for chaos runs
            (see :mod:`repro.faults` for the grammar, e.g.
            ``"seed=42;cluster.send_frame=drop@0.2#3"``); ``None``
            (the default) keeps every injection point a no-op.
        provenance: Field name -> source (``"default"``,
            ``"env:VAR"``, ``"file:PATH"`` or ``"arg"``).  Excluded
            from equality; filled in automatically when omitted.
    """

    backend: str = _knob("auto", "REPRO_TUNER_BACKEND", _Name("backend"))
    workers: int = _knob(DEFAULT_WORKERS, "REPRO_TUNER_WORKERS", _Integer(1))
    batch_lanes: int = _knob(
        DEFAULT_BATCH_LANES, "REPRO_TUNER_BATCH_LANES", _Integer(1)
    )
    tune_many_workers: int = _knob(
        DEFAULT_TUNE_MANY_WORKERS, "REPRO_TUNE_MANY_WORKERS", _Integer(1)
    )
    strategy: str = _knob(
        "evolutionary", "REPRO_TUNER_STRATEGY", _Name("search strategy")
    )
    seed: int = _knob(DEFAULT_SEED, "REPRO_SEED", _Integer(-sys.maxsize))
    cache_dir: Optional[str] = _knob(None, "REPRO_CACHE_DIR", _Text())
    checkpoint_every: int = _knob(
        DEFAULT_CHECKPOINT_EVERY, "REPRO_TUNER_CHECKPOINT_EVERY", _Integer(0)
    )
    resume: bool = _knob(False, "REPRO_TUNER_RESUME", _Flag())
    retune: bool = _knob(False, "REPRO_TUNER_RETUNE", _Flag())
    progress: bool = _knob(False, "REPRO_TUNER_PROGRESS", _Flag())
    full_scale: bool = _knob(False, "REPRO_FULL_SCALE", _Flag())
    cluster_address: Optional[str] = _knob(None, "REPRO_CLUSTER_ADDRESS", _Text())
    cluster_workers: int = _knob(
        DEFAULT_CLUSTER_WORKERS, "REPRO_CLUSTER_WORKERS", _Integer(1)
    )
    cluster_heartbeat_s: float = _knob(
        DEFAULT_CLUSTER_HEARTBEAT_S, "REPRO_CLUSTER_HEARTBEAT_S", _Seconds()
    )
    cluster_timeout_s: float = _knob(
        DEFAULT_CLUSTER_TIMEOUT_S, "REPRO_CLUSTER_TIMEOUT_S", _Seconds()
    )
    service_address: Optional[str] = _knob(None, "REPRO_SERVICE_ADDRESS", _Text())
    service_max_jobs: int = _knob(
        DEFAULT_SERVICE_MAX_JOBS, "REPRO_SERVICE_MAX_JOBS", _Integer(0)
    )
    service_rate_limit: int = _knob(
        DEFAULT_SERVICE_RATE_LIMIT, "REPRO_SERVICE_RATE_LIMIT", _Integer(0)
    )
    fault_spec: Optional[str] = _knob(None, "REPRO_FAULTS", _Text(_fault_grammar))
    provenance: Mapping[str, str] = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    # -- validation ----------------------------------------------------

    def __post_init__(self) -> None:
        set_attr = object.__setattr__
        for name, spec in _FIELDS.items():
            try:
                set_attr(self, name, spec.metadata["kind"].check(getattr(self, name)))
            except ConfigError as exc:
                self._fail(name, str(exc))
        if not self.provenance:
            set_attr(
                self,
                "provenance",
                {
                    name: ("default" if getattr(self, name) == spec.default else "arg")
                    for name, spec in _FIELDS.items()
                },
            )

    def _fail(self, field_name: str, message: str) -> None:
        source = self.provenance.get(field_name, "arg")
        origin = {
            "default": "the built-in default",
            "arg": f"the explicit {field_name}= argument",
        }.get(source)
        if origin is None:
            kind, _, where = source.partition(":")
            origin = (
                f"the {where} environment variable"
                if kind == "env"
                else f"the config file {where}"
            )
        raise ConfigError(
            f"invalid TunerConfig.{field_name} (from {origin}): {message}"
        ) from None

    # -- layered resolution --------------------------------------------

    @classmethod
    def resolve(
        cls,
        config_file: Optional[str] = None,
        environ: Optional[Mapping[str, str]] = None,
        **overrides: object,
    ) -> "TunerConfig":
        """Strict layered resolution: defaults < env < file < args.

        Args:
            config_file: Explicit config-file path (must exist);
                ``None`` consults ``REPRO_CONFIG_FILE`` and then a
                ``repro.toml`` in the current directory.
            environ: Environment mapping (``os.environ`` when None;
                injectable for tests).
            **overrides: Explicit per-field values.  ``None`` means
                "not set here" so optional keyword arguments thread
                through unchanged; everything else lands in the
                argument layer, which beats every other source.

        Raises:
            ConfigError: For unknown fields/keys or malformed values,
                with the offending source named in the message.
        """
        environ = os.environ if environ is None else environ
        cls._check_field_names(overrides, "argument")
        values: Dict[str, object] = {}
        prov: Dict[str, str] = {name: "default" for name in _FIELDS}
        for name, spec in _FIELDS.items():
            env_name, kind = spec.metadata["env"], spec.metadata["kind"]
            raw = environ.get(env_name)
            # An empty variable is unset, and so is a blank one unless
            # blank text is a value of the knob's kind.
            if not raw or not (raw.strip() or kind.blank_is_value):
                continue
            values[name] = kind.from_text(raw)
            prov[name] = f"env:{env_name}"
        path = cls._find_config_file(config_file, environ)
        if path is not None:
            for field_name, value in _load_config_file(path).items():
                values[field_name] = value
                prov[field_name] = f"file:{path}"
        for field_name, value in overrides.items():
            if value is None:
                continue
            values[field_name] = value
            prov[field_name] = "arg"
        return cls(provenance=prov, **values)

    # -- derived views --------------------------------------------------

    def with_overrides(self, **overrides: object) -> "TunerConfig":
        """A copy with ``overrides`` applied at the argument layer
        (their provenance becomes ``"arg"``)."""
        self._check_field_names(overrides, "argument")
        if not overrides:
            return self
        prov = dict(self.provenance)
        for field_name in overrides:
            prov[field_name] = "arg"
        return dataclasses.replace(self, provenance=prov, **overrides)

    def with_defaults(self, **defaults: object) -> "TunerConfig":
        """A copy whose still-at-default fields take new default values
        (provenance stays ``"default"``).  The experiments CLI uses
        this to default ``progress`` on without beating an explicit
        environment or flag choice."""
        self._check_field_names(defaults, "argument")
        updates = {
            field_name: value
            for field_name, value in defaults.items()
            if self.provenance.get(field_name, "default") == "default"
        }
        if not updates:
            return self
        return dataclasses.replace(self, **updates)

    def is_explicit(self, field_name: str) -> bool:
        """Whether a field was set by an argument or the config file
        (the sources that *force* a choice rather than suggest it —
        e.g. a forced ``backend="process"`` raises when unavailable
        instead of falling back)."""
        source = self.provenance.get(field_name, "arg")
        return source == "arg" or source.startswith("file:")

    def provenance_rows(self) -> List[Tuple[str, str, str]]:
        """(field, rendered value, source) rows for every field, in
        declaration order — the ``repro.experiments config``
        subcommand prints exactly this."""
        rows: List[Tuple[str, str, str]] = []
        for name in _FIELDS:
            value = getattr(self, name)
            rendered = "-" if value is None else str(value)
            rows.append((name, rendered, self.provenance.get(name, "default")))
        return rows

    # -- internals ------------------------------------------------------

    @staticmethod
    def _check_field_names(mapping: Mapping[str, object], kind: str) -> None:
        unknown = sorted(set(mapping) - set(ENV_BY_FIELD))
        if unknown:
            raise ConfigError(
                f"unknown TunerConfig {kind}(s) {unknown}; "
                f"valid fields: {sorted(ENV_BY_FIELD)}"
            )

    @staticmethod
    def _find_config_file(
        explicit: Optional[str], environ: Mapping[str, str]
    ) -> Optional[str]:
        if explicit is not None:
            if not pathlib.Path(explicit).is_file():
                raise ConfigError(f"config file not found: {explicit!r}")
            return explicit
        raw = environ.get(ENV_CONFIG_FILE)
        if raw is not None and raw.strip() and raw.strip().lower() not in FALSY_VALUES:
            path = raw.strip()
            if not pathlib.Path(path).is_file():
                raise ConfigError(
                    f"config file named by {ENV_CONFIG_FILE} not found: {path!r}"
                )
            return path
        default = pathlib.Path("repro.toml")
        if default.is_file():
            return str(default)
        return None


#: Every knob's declaration, by field name, in declaration order.
_FIELDS: Dict[str, dataclasses.Field] = {
    spec.name: spec for spec in dataclasses.fields(TunerConfig) if spec.metadata
}

#: Field name -> environment variable.
ENV_BY_FIELD: Dict[str, str] = {
    name: spec.metadata["env"] for name, spec in _FIELDS.items()
}
ENV_CACHE_DIR = ENV_BY_FIELD["cache_dir"]
ENV_FAULTS = ENV_BY_FIELD["fault_spec"]


def parse_text(field_name: str, text: str) -> object:
    """``text`` read as a value of ``field_name``: the one grammar of
    ``REPRO_*`` variables and the CLIs' ``--flag=value`` text.

    Text that does not parse stays text, so constructing the config
    refuses it and names the flag or variable it came from.
    """
    return _FIELDS[field_name].metadata["kind"].from_text(text)


def _load_config_file(path: str) -> Dict[str, object]:
    """Load a ``repro.toml`` into a field -> value map (construction
    checks each value against its field's kind)."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = None
    try:
        data = tomllib.loads(text) if tomllib else _parse_mini_toml(text, path)
    except ValueError as exc:  # TOMLDecodeError, or int()'s digit limit
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    table: Dict[str, object] = {}
    for key, value in data.items():
        if key == "tuner" and isinstance(value, dict):
            continue  # merged after top-level keys so it wins
        if isinstance(value, dict):
            raise ConfigError(
                f"unexpected table [{key}] in config file {path}; "
                "tuner knobs live at the top level or under [tuner]"
            )
        table[key] = value
    tuner_table = data.get("tuner")
    if isinstance(tuner_table, dict):
        table.update(tuner_table)
    TunerConfig._check_field_names(table, f"config-file key in {path}")
    return table


#: What the fallback reader accepts: TOML bare keys (quoted and dotted
#: keys are outside its subset), decimal numbers without leading zeros
#: or underscores, and no control characters other than tab.
_BARE_KEY = re.compile(r"[A-Za-z0-9_-]+")
_INTEGER = re.compile(r"[+-]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[+-]?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


def _is_comment(rest: str) -> bool:
    """Whether the text after a value or header is blank or a comment."""
    rest = rest.strip(" \t")
    return not rest or rest.startswith("#")


def _parse_mini_toml(text: str, path: str) -> Dict[str, object]:
    """Minimal TOML-subset reader for interpreters without tomllib.

    Supports exactly what a ``repro.toml`` needs: ``key = value``
    lines with bare keys and string (double-quoted, without escapes),
    integer, float and boolean values, ``#`` comments, and
    ``[section]`` headers.  Everything else — including a repeated key
    or table, which TOML forbids — raises :class:`ConfigError` naming
    the file and line, so the reader may be stricter than
    :mod:`tomllib` but never reads a file differently.
    """
    data: Dict[str, object] = {}
    current: Dict[str, object] = data
    # Only CRLF ends a line like LF; a lone CR is a control character.
    lines = text.replace("\r\n", "\n").split("\n")
    for line_number, raw_line in enumerate(lines, start=1):
        where = f"malformed config file {path}, line {line_number}"
        if _CONTROL.search(raw_line):
            raise ConfigError(f"{where}: control character in {raw_line!r}")
        line = raw_line.strip(" \t")
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            header, closed, rest = line[1:].partition("]")
            name = header.strip(" \t")
            if not closed or not _BARE_KEY.fullmatch(name) or not _is_comment(rest):
                raise ConfigError(f"{where}: unsupported table header {raw_line!r}")
            if name in data:
                raise ConfigError(f"{where}: table [{name}] defined twice")
            current = data[name] = {}
            continue
        key, sep, value_text = line.partition("=")
        key = key.strip(" \t")
        if not sep or not _BARE_KEY.fullmatch(key):
            raise ConfigError(f"{where}: expected 'key = value', got {raw_line!r}")
        if key in current:
            raise ConfigError(f"{where}: key {key!r} defined twice")
        current[key] = _parse_mini_value(value_text.strip(" \t"), where)
    return data


def _parse_mini_value(text: str, where: str) -> object:
    """One value of the fallback reader's subset."""
    if text.startswith('"'):
        end = text.find('"', 1)
        if end < 0:
            raise ConfigError(f"{where}: unterminated string")
        body, rest = text[1:end], text[end + 1 :]
        if "\\" in body:
            raise ConfigError(f"{where}: escape sequences are not supported")
        if not _is_comment(rest):
            raise ConfigError(f"{where}: unexpected text after string: {rest!r}")
        return body
    value = text.partition("#")[0].strip(" \t")
    if value in ("true", "false"):
        return value == "true"
    if _INTEGER.fullmatch(value):
        return int(value)
    if _FLOAT.fullmatch(value):
        return float(value)
    raise ConfigError(
        f"{where}: unsupported value {value!r} (string/int/float/bool only)"
    )

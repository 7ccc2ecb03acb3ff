"""Choice configuration files (paper Sections 3 and 5.1).

Autotuning produces a *choice configuration file* holding every
decision the runtime consults: one selector per transform (algorithmic
choices, including if/when to use the GPU) plus the discrete tunables
(local work sizes, GPU/CPU workload ratios, split factors, cutoffs).
Configurations serialise to JSON so they can be stored, migrated
between machines (the Figure 7 experiments), and fed back to the
compiler.

A :class:`Configuration` is an immutable value.  The autotuner tests
thousands of candidates and compares, hashes, ships and reports each
by its compact canonical JSON (:meth:`Configuration.canonical_key`);
since nothing can change after construction, each instance builds that
key once and carries it.  New candidates are derived with the
``with_*`` builders or constructed from plain dicts.

A simulated run never holds the configuration itself: it reads it
through a :class:`ConfigurationView`, which can answer only two kinds of
:data:`Question` and records the run's :data:`DecisionPath`.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.compiler.training_info import TrainingInfo
from repro.errors import ConfigurationError
from repro.core.selector import Selector

#: One question a run asks of its configuration:
#: ``("select", transform_name, size)`` (see
#: :meth:`Configuration.select_index`) or ``("tunable", name, default)``
#: (see :meth:`Configuration.tunable`).
Question = Tuple[str, str, int]

#: The ``(question, answer)`` pairs one run asked, in first-asked order.
DecisionPath = Tuple[Tuple[Question, int], ...]

#: Attribute assignment past :meth:`Configuration.__setattr__`, which
#: refuses every assignment once an instance exists.
_set = object.__setattr__

#: The encoder of :meth:`Configuration.canonical_key`, built once where
#: ``json.dumps`` with these options would build one per call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Configuration:
    """A complete assignment of choices for one compiled program.

    An immutable value: :attr:`selectors` and :attr:`tunables` are
    read-only mappings copied at construction, and assigning to an item
    or an attribute raises :class:`TypeError`.  Derive a changed
    configuration with :meth:`with_selector`, :meth:`with_tunable` or
    :meth:`relabelled`, or build plain dicts and construct once.
    Because nothing can change after construction, each instance builds
    its :meth:`canonical_key` at most once, and equality and hashing use
    that key; the key's hash is stored with it, so a dict operation on a
    configuration costs no Python call once the key exists.  Neither is
    pickled (:meth:`__reduce__` rebuilds from plain dicts, and ``str``
    hashes differ between processes).

    Attributes:
        program_name: Program this configuration tunes.
        selectors: Per-transform algorithm selectors.
        tunables: Tunable parameter values.
        label: Optional provenance label (e.g. "Desktop Config").
    """

    __slots__ = ("program_name", "selectors", "tunables", "label", "_key", "_hash")

    program_name: str
    selectors: Mapping[str, Selector]
    tunables: Mapping[str, int]
    label: str

    def __init__(
        self,
        program_name: str,
        selectors: Optional[Mapping[str, Selector]] = None,
        tunables: Optional[Mapping[str, int]] = None,
        label: str = "",
    ) -> None:
        _set(self, "program_name", program_name)
        _set(self, "selectors", MappingProxyType(dict(selectors or {})))
        _set(self, "tunables", MappingProxyType(dict(tunables or {})))
        _set(self, "label", label)
        _set(self, "_key", None)
        _set(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise TypeError(
            f"Configuration is immutable: cannot set {name!r}; derive a new "
            "one with with_selector(), with_tunable() or relabelled()"
        )

    def __delattr__(self, name: str) -> None:
        raise TypeError(f"Configuration is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # The read-only mappings do not pickle: rebuild from plain dicts.
        return (
            Configuration,
            (self.program_name, dict(self.selectors), dict(self.tunables), self.label),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self.canonical_key()
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Configuration(program_name={self.program_name!r}, "
            f"selectors={dict(self.selectors)!r}, "
            f"tunables={dict(self.tunables)!r}, label={self.label!r})"
        )

    def with_selector(self, name: str, selector: Selector) -> "Configuration":
        """This configuration with transform ``name`` dispatched by
        ``selector``."""
        return Configuration(
            self.program_name,
            {**self.selectors, name: selector},
            self.tunables,
            self.label,
        )

    def with_tunable(self, name: str, value: int) -> "Configuration":
        """This configuration with tunable ``name`` set to ``value``."""
        return Configuration(
            self.program_name,
            self.selectors,
            {**self.tunables, name: value},
            self.label,
        )

    def relabelled(self, label: str) -> "Configuration":
        """This configuration under provenance ``label`` (itself when
        the label is unchanged)."""
        if label == self.label:
            return self
        return Configuration(self.program_name, self.selectors, self.tunables, label)

    def select_index(self, transform_name: str, size: int) -> int:
        """Resolve the execution-choice index for an invocation.

        Transforms without a selector entry default to algorithm 0
        (the first authored choice on the CPU backend).

        Args:
            transform_name: The invoked transform.
            size: Dynamic input size.
        """
        selector = self.selectors.get(transform_name)
        if selector is None:
            return 0
        return selector.select(size)

    def tunable(self, name: str, default: int = 0) -> int:
        """Value of a tunable, with a fallback default."""
        return int(self.tunables.get(name, default))

    def answer(self, question: Question) -> int:
        """This configuration's answer to one recorded :data:`Question`.

        The one place a question is answered: a
        :class:`ConfigurationView` records what this returns, and a
        decision-tree walk asks it again of a later candidate.
        """
        kind, name, argument = question
        if kind == "select":
            return self.select_index(name, argument)
        return self.tunable(name, argument)

    def validate(self, training: TrainingInfo) -> None:
        """Check the configuration against a program's search space.

        Raises:
            ConfigurationError: On unknown names, out-of-range
                algorithm indices, level overflow, or out-of-range
                tunable values.
        """
        for name, selector in self.selectors.items():
            spec = training.selectors.get(name)
            if spec is None:
                raise ConfigurationError(f"selector for unknown transform {name!r}")
            if selector.max_algorithm() >= spec.num_algorithms:
                raise ConfigurationError(
                    f"selector {name!r}: algorithm index "
                    f"{selector.max_algorithm()} out of range "
                    f"(num_algorithms={spec.num_algorithms})"
                )
            if selector.levels > spec.max_levels:
                raise ConfigurationError(
                    f"selector {name!r}: {selector.levels} levels exceed "
                    f"the maximum of {spec.max_levels}"
                )
        for name, value in self.tunables.items():
            spec = training.tunables.get(name)
            if spec is None:
                raise ConfigurationError(f"unknown tunable {name!r}")
            if not spec.lo <= value <= spec.hi:
                raise ConfigurationError(
                    f"tunable {name!r}={value} outside [{spec.lo}, {spec.hi}]"
                )

    def _payload(self) -> Dict[str, Any]:
        return {
            "program": self.program_name,
            "label": self.label,
            "selectors": {k: v.to_json() for k, v in self.selectors.items()},
            "tunables": dict(self.tunables),
        }

    def to_json(self) -> str:
        """Serialise to the on-disk choice configuration format."""
        return json.dumps(self._payload(), indent=2, sort_keys=True)

    def canonical_key(self) -> str:
        """Compact canonical serialisation: the identity behind
        equality and hashing, the text a by-name worker receives, and
        a tuning event's ``config_key``.

        Same content as :meth:`to_json` (and parseable by
        :meth:`from_json`), but without pretty-printing.  Built on the
        first call and stored with its hash, so later calls return the
        same string; two threads racing on the first call both build
        that string.  This is the only place a key is built.
        """
        key = self._key
        if key is None:
            key = _KEY_ENCODER.encode(self._payload())
            _set(self, "_hash", hash(key))
            _set(self, "_key", key)
        return key

    @staticmethod
    def from_json(text: str) -> "Configuration":
        """Inverse of :meth:`to_json` and :meth:`canonical_key`.

        Raises:
            ConfigurationError: If ``text`` is not a configuration's
                JSON: not JSON at all, not an object, no string
                ``program``, or a selector or tunable that does not
                decode.
        """
        try:
            payload = json.loads(text)
            program = payload["program"]
            label = payload.get("label", "")
            if not isinstance(program, str) or not isinstance(label, str):
                raise TypeError("program and label must be strings")
            return Configuration(
                program_name=program,
                label=label,
                selectors={
                    name: Selector.from_json(data)
                    for name, data in payload.get("selectors", {}).items()
                },
                tunables={k: int(v) for k, v in payload.get("tunables", {}).items()},
            )
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed configuration file: {type(exc).__name__}: {exc}"
            ) from exc


class ConfigurationView:
    """What one simulated run can read of its configuration.

    The runtime holds this view instead of the :class:`Configuration`,
    so a run can only ask :meth:`select_index` and :meth:`tunable`.  The
    view records each distinct question once, with its answer, in
    first-asked order (:attr:`path`).  A run is deterministic given its
    answers (the program, machine, inputs and seed are fixed outside
    the configuration), so a candidate that answers the same path the
    same way runs the same simulation.

    Args:
        config: The configuration the run is under.
    """

    __slots__ = ("_answer", "_answers")

    def __init__(self, config: Configuration) -> None:
        self._answer = config.answer
        self._answers: Dict[Question, int] = {}

    def select_index(self, transform_name: str, size: int) -> int:
        """As :meth:`Configuration.select_index`, recorded."""
        return self._ask(("select", transform_name, size))

    def tunable(self, name: str, default: int = 0) -> int:
        """As :meth:`Configuration.tunable`, recorded."""
        return self._ask(("tunable", name, default))

    def _ask(self, question: Question) -> int:
        answer = self._answers.get(question)
        if answer is None:
            answer = self._answers[question] = self._answer(question)
        return answer

    @property
    def path(self) -> DecisionPath:
        """Every question asked so far, with its answer."""
        return tuple(self._answers.items())


def default_configuration(training: TrainingInfo, label: str = "default") -> Configuration:
    """The seed configuration: algorithm 0 everywhere, default tunables.

    Algorithm 0 is always the first authored choice on the CPU backend,
    so the seed runs on any machine.
    """
    return Configuration(
        program_name=training.program_name,
        selectors={name: Selector.constant(0) for name in training.selectors},
        tunables={name: spec.default for name, spec in training.tunables.items()},
        label=label,
    )

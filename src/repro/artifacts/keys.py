"""Content-hash keys for the artifact derivation graph.

The cross-session result cache guards itself with two coarse tokens:
:func:`~repro.core.result_cache.execution_model_hash` (every source
file that can change virtual times, apps included) and
:func:`~repro.core.fitness.program_fingerprint` (everything the timing
model consumes for one compiled program).  Both are all-or-nothing —
editing a single rule of a single app invalidates every entry of every
program.

This module computes *fine-grained* keys instead, one per thing the
engine derives:

* :func:`rule_fingerprint` — one rule's behaviour: its metadata, its
  cost model (constants by value, callables by bytecode) and its body
  bytecode.  Editing a rule changes exactly its own fingerprint.
* :func:`choice_fingerprint` / :func:`transform_fingerprint` — the
  structural shell around the rules (steps, bindings, parameters,
  user tunables); rule bodies are deliberately *excluded* so the graph
  layer can compose them explicitly and dirty-propagate through them.
* :func:`machine_key` — the machine parameters the simulator reads
  (CPU, device, transfer model, JIT costs).
* :func:`engine_key` — the engine source itself (compiler, hardware,
  runtime, language and configuration/selector semantics) *excluding*
  ``apps/``: application content is covered rule by rule, which is the
  whole point of the graph.

Every fingerprint is a truncated SHA-256 over deterministic feeds, so
keys are stable across processes and machines; callables hash through
the same conservative token as the evaluation cache
(:func:`repro.core.fitness._callable_token`).
"""

from __future__ import annotations

from typing import Dict

from repro.core import atomic_json
from repro.core.fitness import (
    _callable_token,
    _feed_machine,
    _hasher,
    _stable_value_token,
)
from repro.core.result_cache import source_hash
from repro.lang.rule import Rule
from repro.lang.transform import Choice, Transform

#: Bump when the key grammar changes incompatibly (feeds added or
#: reordered) — stored graph nodes from older grammars must miss.
KEY_VERSION = 1


def _param_token(value) -> str:
    """Token for a :data:`~repro.lang.rule.ParamFn` — constants by
    value, callables by bytecode."""
    if value is None:
        return "<none>"
    if isinstance(value, (int, float)):
        return repr(value)
    return _callable_token(value, "<none>")


def rule_fingerprint(rule: Rule) -> str:
    """Content hash of one rule: metadata, cost model and body.

    Two rules with the same fingerprint are interchangeable to the
    virtual timing model; editing a body constant, a cost expression
    or any scheduling flag changes the fingerprint of exactly that
    rule and nothing else.
    """
    digest, feed = _hasher()
    feed(str(KEY_VERSION))
    feed(rule.name)
    feed(",".join(rule.reads))
    feed(",".join(rule.writes))
    feed(rule.pattern.value)
    cost = rule.cost
    feed(_param_token(cost.flops_per_item))
    feed(_param_token(cost.bytes_read_per_item))
    feed(_param_token(cost.bytes_written_per_item))
    feed(_param_token(cost.bounding_box))
    feed(repr(cost.sequential_fraction))
    feed(_param_token(cost.kernel_launches))
    feed(_param_token(cost.cpu_flops_per_item))
    feed(repr(cost.strided_access))
    feed(repr(rule.calls_external))
    feed(repr(rule.has_inline_native))
    feed(repr(rule.divisible))
    feed(",".join(rule.opencl_hostile_platforms))
    feed(repr(rule.touches_data))
    feed(repr(rule.data_independent))
    feed(_callable_token(rule.body, "<no-body>"))
    return digest.hexdigest()[:16]


def choice_fingerprint(choice: Choice) -> str:
    """Structural hash of one choice *without* its rule body.

    Leaf choices contribute only a marker — the rule itself is a
    separate graph node so a body edit dirties the rule node first and
    propagates, rather than being smeared into the transform hash.
    """
    digest, feed = _hasher()
    feed(str(KEY_VERSION))
    feed(choice.name)
    feed("leaf" if choice.is_leaf else "composite")
    feed(repr(choice.parallel_steps))
    for step in choice.steps:
        feed(step.transform)
        for callee, caller in sorted(step.bindings.items()):
            feed(f"{callee}={caller}")
        for name, value in sorted(step.param_overrides.items()):
            feed(f"{name}={value!r}")
        feed(repr(step.dynamic_consumer))
    for name, shape_fn in sorted(choice.intermediates.items()):
        feed(name)
        feed(_callable_token(shape_fn, "<no-shape>"))
    return digest.hexdigest()[:16]


def transform_fingerprint(transform: Transform) -> str:
    """Structural hash of one transform *without* its rule bodies.

    Covers the search-space shape: choice list, step wiring, default
    parameters, user tunables and the size metric.  The graph layer
    composes this with the per-rule fingerprints, so "same structure,
    one edited rule" dirties one rule node and its dependents only.
    """
    digest, feed = _hasher()
    feed(str(KEY_VERSION))
    feed(transform.name)
    feed(",".join(transform.inputs))
    feed(",".join(transform.outputs))
    for name, value in sorted(transform.params.items()):
        feed(f"{name}={value!r}")
    feed(_callable_token(transform.size_of, "<no-size-of>"))
    feed(repr(transform.variable_accuracy))
    for name, spec in sorted(transform.user_tunables.items()):
        feed(f"{name}:{_stable_value_token(tuple(spec))}")
    for choice in transform.choices:
        feed(choice_fingerprint(choice))
    return digest.hexdigest()[:16]


def machine_key(machine) -> str:
    """Content hash of the machine parameters the simulator reads.

    The coarse program fingerprint's machine section
    (:func:`repro.core.fitness.program_fingerprint`), isolated so a
    machine-parameter change dirties the compiled-program node without
    touching any rule or transform node.
    """
    digest, feed = _hasher()
    feed(str(KEY_VERSION))
    _feed_machine(feed, machine)
    return digest.hexdigest()[:16]


def engine_key() -> str:
    """Content hash of the engine source, *excluding* ``apps/``.

    The cost-model-version input of every graph node: mirrors
    :func:`~repro.core.result_cache.execution_model_hash` but leaves
    the application layer out — app content enters the graph through
    per-rule fingerprints, so an app edit must *not* shift this key
    (that would re-dirty every program, defeating the graph).
    """
    return source_hash(("compiler", "hardware", "runtime", "lang"))


def digest_of(key: Dict[str, object]) -> str:
    """Deterministic digest of a JSON-safe key dict.

    The composition primitive: a node's digest becomes one input of
    every dependent node's key, so key changes chain through the graph
    without any dependent having to re-hash its transitive inputs.
    """
    return atomic_json.json_checksum(key)

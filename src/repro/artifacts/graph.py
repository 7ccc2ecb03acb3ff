"""The memoized artifact derivation graph.

One :class:`DerivationGraph` describes everything the engine derives
for a ``(program, machine, size, seed)`` tuning session, as explicit
nodes with explicit inputs:

.. code-block:: text

    rule:T/c ──► transform:T ──► compiled ──► plans ───────► outcomes ──► report
                                                             ▲
    input-master ────────────────────────────────────────────┘

* ``rule:<transform>/<choice>`` — one rule's behaviour (body bytecode
  plus cost model), keyed by :func:`~repro.artifacts.keys.rule_fingerprint`;
* ``transform:<name>`` — the structural shell composed with its rule
  digests;
* ``compiled`` — the compiled program: every transform digest plus the
  machine parameters and the engine source key;
* ``plans`` — the prepared execution plans derived from the compiled
  program;
* ``input-master`` — the deterministic test-input master, keyed by the
  environment factory's callable token, the size and the seed;
* ``outcomes`` — the pure evaluation outcomes (a function of plans,
  inputs, size, seed);
* ``report`` — the tuning report (outcomes plus the search strategy
  and its seed).

Each node's key is a content hash of *exactly its inputs*; a parent's
digest is one field of every child's key, so any input change chains
through digests automatically.  :meth:`DerivationGraph.sync` compares
each node against the :class:`~repro.artifacts.store.DerivationStore`
and runs the explicit dirty-propagation pass: nodes whose own stored
digest diverged are roots, everything downstream of a dirty node is
dirty, and the **frontier** — the minimal set of dirty nodes whose
inputs are all clean — names exactly what must be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.artifacts.keys import (
    KEY_VERSION,
    digest_of,
    engine_key,
    machine_key,
    rule_fingerprint,
    transform_fingerprint,
)
from repro.artifacts.store import DerivationStore
from repro.compiler.compile import CompiledProgram
from repro.core.fitness import _callable_token

#: Bump when the node layout or location grammar changes incompatibly.
#: Version 2 entries carry a checksum of their content.
GRAPH_VERSION = 2


@dataclass
class DerivationNode:
    """One derivation in the graph.

    Attributes:
        name: Unique node name (``rule:Sort/insertion``, ``compiled``,
            ``report``, ...).
        kind: Node class (``rule``/``transform``/``compiled``/``plans``/
            ``input-master``/``outcomes``/``report``).
        key: The content key — a JSON-safe dict of exactly this node's
            inputs (fingerprints, parent digests, size, seed).
        inputs: Names of the nodes this one derives from.
        clean: Set by :meth:`DerivationGraph.sync`: True when the store
            holds this node under its current digest, False when it
            must be recomputed, None before any sync.
        stored: The store payload found at this node's location (even
            when stale — a stale ``report`` payload is the warm-start
            donor), None when the location was empty.
    """

    name: str
    kind: str
    key: Dict[str, object]
    inputs: Tuple[str, ...] = ()
    clean: Optional[bool] = None
    stored: Optional[Dict[str, object]] = None

    @property
    def digest(self) -> str:
        """The node's content digest (chains into dependents' keys)."""
        return digest_of(self.key)


@dataclass
class GraphSync:
    """Outcome of one :meth:`DerivationGraph.sync` pass.

    Attributes:
        hits: Nodes served memoized (stored digest matches — clean).
        misses: Nodes with no stored record at all.
        stale: Nodes whose stored digest diverged (an input changed).
        dirty: Names of every node that must be recomputed, in
            topological order.
        frontier: The minimal invalidated frontier — dirty nodes whose
            inputs are all clean (the root causes), topological order.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    dirty: List[str] = field(default_factory=list)
    frontier: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the whole graph was served memoized."""
        return not self.dirty


class DerivationGraph:
    """The derivation graph of one ``(program, machine, size, seed)``
    tuning session.

    Build with :meth:`build`, then :meth:`sync` against a
    :class:`~repro.artifacts.store.DerivationStore` to classify every
    node clean/dirty, and :meth:`record` after recomputing to memoize
    the current keys.
    """

    def __init__(
        self,
        nodes: Dict[str, DerivationNode],
        order: List[str],
        program_name: str,
        machine_codename: str,
        size: int,
        seed: int,
        strategy: str,
    ) -> None:
        self._nodes = nodes
        self._order = order
        self._program = program_name
        self._machine = machine_codename
        self._size = size
        self._seed = seed
        self._strategy = strategy

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        compiled: CompiledProgram,
        env_factory=None,
        *,
        size: int,
        seed: int = 0,
        strategy: str = "evolutionary",
    ) -> "DerivationGraph":
        """Derive the graph for one compiled program.

        Args:
            compiled: Compiler output for the target machine.
            env_factory: The deterministic test-environment builder
                (keys the ``input-master`` node through its callable
                token); ``None`` records a factory-less master.
            size: The final (tuning) input size of the session.
            seed: The search seed.
            strategy: The search strategy name (keys the report node —
                a different strategy derives a different report).
        """
        nodes: Dict[str, DerivationNode] = {}
        order: List[str] = []

        def add(node: DerivationNode) -> DerivationNode:
            nodes[node.name] = node
            order.append(node.name)
            return node

        program = compiled.program
        machine = compiled.machine
        transform_digests: Dict[str, str] = {}
        for transform in program.iter_transforms():
            rule_names: List[str] = []
            rule_digests: Dict[str, str] = {}
            for choice in transform.choices:
                if choice.rule is None:
                    continue
                rule_node = add(
                    DerivationNode(
                        name=f"rule:{transform.name}/{choice.name}",
                        kind="rule",
                        key={
                            "version": KEY_VERSION,
                            "rule": rule_fingerprint(choice.rule),
                        },
                    )
                )
                rule_names.append(rule_node.name)
                rule_digests[choice.name] = rule_node.digest
            transform_node = add(
                DerivationNode(
                    name=f"transform:{transform.name}",
                    kind="transform",
                    key={
                        "version": KEY_VERSION,
                        "structure": transform_fingerprint(transform),
                        "rules": rule_digests,
                    },
                    inputs=tuple(rule_names),
                )
            )
            transform_digests[transform.name] = transform_node.digest
        compiled_node = add(
            DerivationNode(
                name="compiled",
                kind="compiled",
                key={
                    "version": KEY_VERSION,
                    "machine": machine_key(machine),
                    "engine": engine_key(),
                    "transforms": transform_digests,
                },
                inputs=tuple(
                    f"transform:{name}" for name in sorted(transform_digests)
                ),
            )
        )
        plans_node = add(
            DerivationNode(
                name="plans",
                kind="plans",
                key={"version": KEY_VERSION, "compiled": compiled_node.digest},
                inputs=("compiled",),
            )
        )
        master_node = add(
            DerivationNode(
                name="input-master",
                kind="input-master",
                key={
                    "version": KEY_VERSION,
                    "env": _callable_token(env_factory, "<no-env>"),
                    "size": size,
                    "seed": seed,
                },
            )
        )
        outcomes_node = add(
            DerivationNode(
                name="outcomes",
                kind="outcomes",
                key={
                    "version": KEY_VERSION,
                    "plans": plans_node.digest,
                    "inputs": master_node.digest,
                    "size": size,
                    "seed": seed,
                },
                inputs=("plans", "input-master"),
            )
        )
        add(
            DerivationNode(
                name="report",
                kind="report",
                key={
                    "version": KEY_VERSION,
                    "outcomes": outcomes_node.digest,
                    "strategy": strategy,
                    "seed": seed,
                },
                inputs=("outcomes",),
            )
        )
        return cls(
            nodes,
            order,
            program.name,
            machine.codename,
            size,
            seed,
            strategy,
        )

    # -- access ---------------------------------------------------------

    @property
    def order(self) -> List[str]:
        """Node names in topological order."""
        return list(self._order)

    def node(self, name: str) -> DerivationNode:
        """One node by name (raises ``KeyError`` when absent)."""
        return self._nodes[name]

    def nodes(self) -> List[DerivationNode]:
        """Every node, topological order."""
        return [self._nodes[name] for name in self._order]

    def dirty_transforms(self) -> List[str]:
        """Transform names whose node (or any of its rules) is dirty.

        The affected *choice sites*: re-tuning restricts its mutator
        set to these transforms' selectors and tunables.
        """
        return sorted(
            node.name.split(":", 1)[1]
            for node in self.nodes()
            if node.kind == "transform" and node.clean is False
        )

    def _location(self, node: DerivationNode) -> Dict[str, object]:
        """The node's stable store key (its identity, not its content).

        Structure-level nodes (rules, transforms) are program-wide;
        compile-level nodes add the machine; session-level nodes add
        size and seed (and the report its strategy) — so one store
        serves every machine and size without cross-talk.
        """
        location: Dict[str, object] = {
            "graph": GRAPH_VERSION,
            "node": node.name,
            "program": self._program,
        }
        if node.kind in ("compiled", "plans"):
            location["machine"] = self._machine
        elif node.kind == "input-master":
            location["size"] = self._size
            location["seed"] = self._seed
        elif node.kind in ("outcomes", "report"):
            location["machine"] = self._machine
            location["size"] = self._size
            location["seed"] = self._seed
            if node.kind == "report":
                location["strategy"] = self._strategy
        return location

    # -- sync / dirty propagation ---------------------------------------

    def sync(self, store: DerivationStore) -> GraphSync:
        """Classify every node clean/dirty against the store.

        One pass in topological order: look each node up at its stable
        location, compare the stored content digest with the current
        one, then run dirty propagation — a node is dirty when its own
        digest diverged (or was never recorded) *or* when any input is
        dirty.  Because parent digests are embedded in child keys the
        two conditions coincide on healthy stores; the explicit
        propagation also covers a store whose downstream record was
        lost or quarantined.

        Stale payloads stay readable on ``node.stored`` — that is how
        a re-tune finds the prior report to warm-start from.
        """
        outcome = GraphSync()
        for name in self._order:
            node = self._nodes[name]
            dirty_input = any(
                self._nodes[parent].clean is False for parent in node.inputs
            )
            payload = store.get(self._location(node))
            node.stored = payload
            if payload is None:
                node.clean = False
                outcome.misses += 1
            elif payload.get("digest") != node.digest or dirty_input:
                node.clean = False
                outcome.stale += 1
            else:
                node.clean = True
                outcome.hits += 1
            if not node.clean:
                outcome.dirty.append(name)
                if not dirty_input:
                    outcome.frontier.append(name)
        return outcome

    def record(self, store: DerivationStore, only_dirty: bool = True) -> int:
        """Memoize the current digests (after recomputation).

        Args:
            store: The derivation store to write to.
            only_dirty: Skip nodes already recorded clean (the default;
                pass False to force a full re-record).

        Returns:
            Number of nodes written.
        """
        written = 0
        for node in self.nodes():
            if only_dirty and node.clean is True:
                continue
            store.put(
                self._location(node),
                {"digest": node.digest, "kind": node.kind, "key": node.key},
            )
            node.clean = True
            written += 1
        return written

    def attach(
        self, store: DerivationStore, name: str, extra: Dict[str, object]
    ) -> None:
        """Re-record one node with extra payload fields (e.g. the
        finished tuning report on the ``report`` node)."""
        node = self._nodes[name]
        payload: Dict[str, object] = {
            "digest": node.digest,
            "kind": node.kind,
            "key": node.key,
        }
        payload.update(extra)
        store.put(self._location(node), payload)
        node.clean = True

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Human-readable graph listing, one line per node.

        Shows clean/dirty status (``?`` before any sync), kind, name,
        content digest and input provenance — the ``graph`` CLI
        subcommand prints exactly these lines.
        """
        lines = [
            f"derivation graph: {self._program} @ {self._machine} "
            f"size={self._size} seed={self._seed} strategy={self._strategy}"
        ]
        width = max(len(node.name) for node in self.nodes())
        for node in self.nodes():
            status = (
                "?    " if node.clean is None
                else "clean" if node.clean
                else "DIRTY"
            )
            provenance = ", ".join(
                f"{field_name}={self._brief(value)}"
                for field_name, value in sorted(node.key.items())
                if field_name != "version"
            )
            arrows = (
                f"  <- {', '.join(node.inputs)}" if node.inputs else ""
            )
            lines.append(
                f"[{status}] {node.kind:<12} {node.name:<{width}} "
                f"{node.digest}  {provenance}{arrows}"
            )
        return "\n".join(lines)

    @staticmethod
    def _brief(value) -> str:
        if isinstance(value, dict):
            return "{" + ",".join(sorted(value)) + "}"
        return str(value)

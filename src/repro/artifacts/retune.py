"""Incremental re-tuning on top of the derivation graph.

:func:`retune_session` is the engine behind
:meth:`repro.api.Session.retune`, the service ``retune`` verb and the
``--retune`` CLI flag.  One call:

1. compiles the benchmark and builds its
   :class:`~repro.artifacts.graph.DerivationGraph`;
2. syncs the graph against the
   :class:`~repro.artifacts.store.DerivationStore` — the dirty
   frontier names exactly which derivations an edit invalidated;
3. when everything is clean and a prior report is memoized on the
   ``report`` node, returns it outright (zero evaluations);
4. otherwise re-tunes: the search **warm-starts** from the prior
   report's best configuration (the fig7 migration path, now
   automatic) and — when only rule/transform nodes changed — restricts
   its mutator set to the *affected choice sites*, so the budget goes
   to the transforms the edit touched instead of re-exploring the
   whole space;
5. records the recomputed nodes (and the fresh report) back into the
   store, and refreshes the process-wide session cache.

The re-tuned report carries ``warm_start_from`` provenance — which
report seeded it, and which graph nodes were dirty — and stays
byte-identical for a fixed seed across serial/thread/process backends
like every other report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.api.config import TunerConfig
from repro.apps.registry import benchmark, canonical_env_factory
from repro.artifacts.graph import DerivationGraph, GraphSync
from repro.artifacts.store import DerivationStore
from repro.compiler.compile import compile_program
from repro.core.driver import CandidateEvent, CheckpointStore, RoundEvent
from repro.core.mutators import Mutator, mutators_for
from repro.core.report import TuningReport, report_from_payload, report_to_payload
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner
from repro.errors import ConfigurationError
from repro.experiments import runner as _runner
from repro.experiments.runner import TunedSession
from repro.hardware.machines import MachineSpec

#: Node kinds whose invalidation is *structural* (a rule or transform
#: edit): only these allow the mutator set to narrow to the affected
#: choice sites.  A machine/engine/input change dirties everything.
_STRUCTURAL_KINDS = frozenset(("rule", "transform"))


@dataclass
class RetuneResult:
    """Everything one :func:`retune_session` call decided and produced.

    Attributes:
        session: The (re)tuned session, installed process-wide.
        report: Its tuning report (``session.report``, for symmetry).
        clean: True when the graph was fully memoized and the prior
            report was served without a single evaluation.
        warm_started: Whether the search was seeded from a prior
            report's best configuration.
        affected: Transform names whose choice sites were re-tuned
            (empty on a clean serve or a full cold run).
        sync: The graph sync outcome (hit/miss/stale counters, dirty
            set, minimal frontier).
    """

    session: TunedSession
    report: TuningReport
    clean: bool
    warm_started: bool
    affected: List[str] = field(default_factory=list)
    sync: Optional[GraphSync] = None


def _mutator_transform(mutator: Mutator, transforms) -> Optional[str]:
    """The transform one mutator manipulates, or None for program-wide
    tunables (``seq_par_cutoff``), which every re-tune keeps.

    Selector mutators are named after their transform; compiler-derived
    tunables prefix it (``lws_<t>``, ``gpu_ratio_<t>``, ``split_<t>``);
    user tunables are declared on their transform.
    """
    name = getattr(mutator, "name", "")
    if name in transforms:
        return name
    for tname in transforms:
        if name in (f"lws_{tname}", f"gpu_ratio_{tname}", f"split_{tname}"):
            return tname
    for tname, transform in transforms.items():
        if name in transform.user_tunables:
            return tname
    return None


def affected_mutators(
    mutators: List[Mutator], transforms, affected: List[str]
) -> List[Mutator]:
    """Restrict a mutator set to the affected choice sites.

    Keeps every mutator that manipulates an affected transform plus
    all program-wide tunables.  Falls back to the full set when the
    restriction would leave nothing to mutate (the tuner requires a
    non-empty set, and an empty restriction means the edit touched
    nothing searchable anyway).
    """
    wanted = set(affected)
    kept = [
        mutator
        for mutator in mutators
        if _mutator_transform(mutator, transforms) in wanted
        or _mutator_transform(mutator, transforms) is None
    ]
    return kept if kept else list(mutators)


def retune_session(
    app: str,
    machine: MachineSpec,
    seed: int,
    config: TunerConfig,
    result_cache: Optional[ResultCache] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    on_candidate: Optional[Callable[[CandidateEvent], None]] = None,
    on_round: Optional[Callable[[RoundEvent], None]] = None,
) -> RetuneResult:
    """Incrementally re-tune one registered benchmark for one machine.

    Args:
        app: Registry benchmark name.
        machine: Target machine (already resolved).
        seed: Tuning seed.
        config: The resolved service-level configuration; the
            derivation store lives under ``config.cache_dir``.
        result_cache: Shared evaluation-cache handle (``None`` opens
            one on ``config.cache_dir``).
        checkpoint_store: Shared checkpoint store, same default.
        on_candidate: Streaming observer (re-tune runs only).
        on_round: Streaming observer (re-tune runs only).
    """
    spec = benchmark(app)
    compiled = compile_program(spec.build_program(), machine)
    env_factory = canonical_env_factory(app)
    store = DerivationStore.for_cache_dir(config.cache_dir)
    graph = DerivationGraph.build(
        compiled,
        env_factory,
        size=spec.tuning_size,
        seed=seed,
        strategy=config.strategy,
    )
    sync = graph.sync(store)
    label = f"{machine.codename} Config"

    report_node = graph.node("report")
    prior_payload = None
    if report_node.stored is not None:
        prior_payload = report_node.stored.get("report")
    prior_report: Optional[TuningReport] = None
    if isinstance(prior_payload, dict):
        try:
            prior_report = report_from_payload(prior_payload)
        except (ConfigurationError, KeyError, TypeError, ValueError):
            prior_report = None  # stale layout: fall back to a cold run

    if sync.clean and prior_report is not None:
        # Every derivation is memoized: serve the stored report whole.
        prior_report.best = prior_report.best.relabelled(label)
        session = TunedSession(
            spec=spec, machine=machine, compiled=compiled,
            report=prior_report,
        )
        _install(app, machine, seed, config.strategy, session)
        return RetuneResult(
            session=session,
            report=prior_report,
            clean=True,
            warm_started=False,
            sync=sync,
        )

    affected = graph.dirty_transforms()
    frontier_kinds = {graph.node(name).kind for name in sync.frontier}
    structural_only = bool(frontier_kinds) and frontier_kinds <= _STRUCTURAL_KINDS

    mutators = None
    warm_seeds = None
    warm_start = None
    if prior_report is not None:
        # fig7 migration path, automatic: the prior winner joins the
        # seed population (relabelled "default" so its descendants
        # share disk-cache entries with ordinary runs).
        warm_seeds = [prior_report.best.relabelled("default")]
        warm_start = {
            "program": compiled.program.name,
            "machine": machine.codename,
            "strategy": prior_report.strategy,
            "seed": prior_report.seed,
            "best": prior_report.best.canonical_key(),
            "best_time_s": prior_report.best_time_s,
            "frontier": list(sync.frontier),
            "dirty": list(sync.dirty),
        }
        if structural_only and affected:
            # Only rule/transform edits: re-tune the affected choice
            # sites, let the warm seed carry everything else.
            mutators = affected_mutators(
                mutators_for(compiled.training_info),
                compiled.program.transforms,
                affected,
            )

    with EvolutionaryTuner(
        compiled,
        env_factory,
        max_size=spec.tuning_size,
        seed=seed,
        accuracy_fn=spec.accuracy_fn,
        accuracy_target=spec.accuracy_target,
        mutators=mutators,
        config=config,
        result_cache=result_cache,
        checkpoint_store=checkpoint_store,
        on_candidate=on_candidate,
        on_round=on_round,
        warm_seeds=warm_seeds,
        warm_start=warm_start,
    ) as tuner:
        report = tuner.tune(label=label)

    graph.record(store)
    graph.attach(store, "report", {"report": report_to_payload(report)})
    session = TunedSession(
        spec=spec, machine=machine, compiled=compiled, report=report
    )
    _install(app, machine, seed, config.strategy, session)
    return RetuneResult(
        session=session,
        report=report,
        clean=False,
        warm_started=warm_seeds is not None,
        affected=affected if mutators is not None else [],
        sync=sync,
    )


def _install(
    app: str, machine: MachineSpec, seed: int, strategy: str,
    session: TunedSession,
) -> None:
    """Refresh the process-wide session cache with the re-tuned
    session (plain install would keep serving the stale one)."""
    with _runner._SESSIONS_LOCK:
        _runner._SESSIONS[(app, machine.codename, seed, strategy)] = session

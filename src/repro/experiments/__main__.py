"""Regenerate every paper artefact from the command line.

Usage::

    python -m repro.experiments                      # all figures/tables
    python -m repro.experiments fig2 fig9            # a subset
    python -m repro.experiments --backend=process    # shard across processes
    python -m repro.experiments --strategy=hillclimb # swap the search
    python -m repro.experiments --resume fig6        # rerun a killed run
    python -m repro.experiments config               # resolved TunerConfig
    python -m repro.experiments bench                # hot-path benchmark
    python -m repro.experiments bench --tier=tiny --check=benchmarks/perf/BENCH_baseline.json
    python -m repro.experiments graph Strassen Desktop   # derivation graph
    python -m repro.experiments graph Sort Desktop --record  # + memoize

The run is driven by one :class:`repro.api.TunerConfig`, resolved as
``built-in defaults < REPRO_* environment < repro.toml < flags`` —
flags always win (``--quiet`` beats ``REPRO_TUNER_PROGRESS=1``).  The
``config`` subcommand prints the fully resolved configuration with
each field's provenance, which is the debugging story for mis-set
environment variables.  A flag's value reads as its variable's does
(:func:`repro.api.config.parse_text`), so ``--cluster-workers=1_0`` is
refused like ``REPRO_CLUSTER_WORKERS=1_0``.

Flags:
    --backend=<name>              evaluation backend: ``serial``,
                                  ``thread``, ``process``, ``cluster``
                                  or ``auto``.  Applies to per-tuner
                                  evaluation and batch scheduling
                                  (including shard children).  Results
                                  are bit-for-bit identical on every
                                  backend.
    --cluster-address=<host:port> coordinator for ``--backend=cluster``
                                  (start one with ``python -m
                                  repro.cluster coordinator``); absent,
                                  the cluster backend self-hosts a
                                  loopback fleet.
    --cluster-workers=<n>         size of the self-hosted loopback
                                  fleet (default 2).
    --strategy=<name>             search strategy: ``evolutionary``
                                  (default), ``hillclimb``, ``random``
                                  or ``bandit``.
    --service-address=<host:port> bind address used by ``python -m
                                  repro.service`` (and recorded by the
                                  ``config`` subcommand); defaults to
                                  ``127.0.0.1:7734``.
    --service-max-jobs=<n>        admission-control ceiling on jobs
                                  tuning at once inside the service
                                  daemon (0 = the tune_many_workers
                                  pool width).
    --service-rate-limit=<n>      per-client submissions per minute
                                  inside the daemon (0 = unlimited).
    --resume                      serve finished sessions' stored
                                  reports from the cache directory;
                                  unfinished ones rerun from its
                                  evaluation log.  Reports are
                                  byte-identical to uninterrupted
                                  runs.
    --retune                      tune incrementally through the
                                  artifact derivation graph: clean
                                  graphs serve memoized reports, dirty
                                  ones re-tune only the affected
                                  choice sites, warm-started from the
                                  prior best (requires a cache
                                  directory).
    --quiet                       suppress the per-round tuning
                                  progress lines (on by default on
                                  this CLI).
    --config-file=<path>          read knobs from this TOML file
                                  instead of auto-discovering
                                  ``./repro.toml``.

Environment (see ``repro.api.config``; the ``config`` subcommand
shows what actually resolved):
    REPRO_FULL_SCALE=1            the paper's exact input sizes.
    REPRO_SEED=<int>              deterministic experiment seed.
    REPRO_CACHE_DIR=<dir>         cross-session evaluation cache; a
                                  warm cache regenerates the tuning
                                  figures without re-simulating.
                                  Finished sessions' reports live in
                                  its ``checkpoints/`` subdirectory.
    REPRO_TUNER_BACKEND=<name>    same as --backend (the flag wins).
    REPRO_TUNER_STRATEGY=<name>   same as --strategy (the flag wins).
    REPRO_TUNER_RESUME=1          same as --resume.
    REPRO_TUNER_PROGRESS=0        same as --quiet (the flag wins).
    REPRO_TUNE_MANY_WORKERS=<n>   concurrent tuning sessions or shard
                                  processes (default 4).
    REPRO_TUNER_WORKERS=<n>       speculative evaluation workers per
                                  tuner (default 1; results identical).
    REPRO_TUNER_CHECKPOINT_EVERY=<n>  commits between evaluation-log
                                  syncs (0: only at close).
    REPRO_CONFIG_FILE=<path>      same as --config-file.
    REPRO_CLUSTER_ADDRESS=<a>     same as --cluster-address.
    REPRO_CLUSTER_WORKERS=<n>     same as --cluster-workers.
    REPRO_CLUSTER_HEARTBEAT_S=<s> cluster worker heartbeat interval.
    REPRO_CLUSTER_TIMEOUT_S=<s>   cluster connect timeout / dead-worker
                                  threshold.
    REPRO_SERVICE_ADDRESS=<a>     same as --service-address.
    REPRO_SERVICE_MAX_JOBS=<n>    same as --service-max-jobs.
    REPRO_SERVICE_RATE_LIMIT=<n>  same as --service-rate-limit.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.api.config import TunerConfig, _Integer, parse_text
from repro.errors import ConfigError
from repro.experiments.fig2_convolution import run_fig2
from repro.experiments.fig6_configs import render_fig6, run_fig6
from repro.experiments.fig7_migration import run_fig7
from repro.experiments.fig8_properties import render_fig8, run_fig8
from repro.experiments.fig9_machines import render_fig9
from repro.experiments.runner import ExperimentSettings


def _fig2(settings: ExperimentSettings, session) -> None:
    size = 3520 if settings.full_scale else 704
    panels = run_fig2(size=size, seed=settings.seed, config=session.config)
    for panel in panels.values():
        print(panel.render())
        print()


def _fig6(settings: ExperimentSettings, session) -> None:
    print(render_fig6(run_fig6(seed=settings.seed, session=session)))
    print()


def _fig7(settings: ExperimentSettings, session) -> None:
    for panel in run_fig7(settings, session=session).values():
        print(panel.render())
        print()


def _fig8(settings: ExperimentSettings, session) -> None:
    print(render_fig8(run_fig8(seed=settings.seed, session=session)))
    print()


def _fig9(settings: ExperimentSettings, session) -> None:
    print(render_fig9())
    print()


_ARTEFACTS = {
    "fig2": _fig2,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
}

#: ``--<field>=<value>`` flags, each named after its field
#: (``--cluster-workers`` sets ``cluster_workers``).
_VALUE_FLAGS = {
    "--" + name.replace("_", "-"): name
    for name in (
        "backend",
        "cluster_address",
        "cluster_workers",
        "strategy",
        "service_address",
        "service_max_jobs",
        "service_rate_limit",
    )
}

#: Source labels for the `config` subcommand's provenance column.
_SOURCE_LABELS = {
    "default": "built-in default",
    "arg": "command-line flag",
}


def _render_config(config: TunerConfig) -> str:
    """The ``config`` subcommand: resolved fields with provenance."""
    rows = config.provenance_rows()
    name_width = max(len(name) for name, _, _ in rows)
    value_width = max(len(value) for _, value, _ in rows)
    lines = [
        "Resolved TunerConfig "
        "(defaults < REPRO_* environment < repro.toml < flags):",
        "",
    ]
    for name, value, source in rows:
        kind, _, detail = source.partition(":")
        label = _SOURCE_LABELS.get(source) or {
            "env": f"environment ({detail})",
            "file": f"config file ({detail})",
        }.get(kind, source)
        lines.append(f"  {name:<{name_width}}  {value:<{value_width}}  {label}")
    return "\n".join(lines)


def _graph_main(argv: list) -> int:
    """The ``graph`` subcommand: print one (app, machine, size)
    derivation graph with per-node clean/dirty status, key provenance,
    and the sync counters the incremental-smoke CI leg asserts on.

    With ``--record``, dirty nodes are memoized into the store
    afterwards (the report node only gets a payload when a tuning
    session attaches one, so recording here marks structure clean
    without fabricating results)."""
    positional = []
    size: Optional[int] = None
    overrides = {}
    record = False
    for arg in argv:
        if arg.startswith("--size="):
            try:
                size = _Integer(1).read(arg.split("=", 1)[1])
            except ConfigError as error:
                print(f"invalid {arg}: {error}")
                return 2
        elif arg.startswith("--seed="):
            overrides["seed"] = parse_text("seed", arg.split("=", 1)[1])
        elif arg == "--record":
            record = True
        else:
            positional.append(arg)
    if len(positional) != 2:
        print(
            "usage: python -m repro.experiments graph <app> <machine> "
            "[--size=N] [--seed=N] [--record]"
        )
        return 2
    app, machine_name = positional
    try:
        config = TunerConfig.resolve(**overrides)
    except ConfigError as error:
        print(error)
        return 2
    from repro.apps.registry import benchmark, canonical_env_factory
    from repro.artifacts import DerivationGraph, DerivationStore
    from repro.compiler.compile import compile_program
    from repro.errors import ExperimentError
    from repro.hardware.machines import machine_by_name

    try:
        spec = benchmark(app)
        machine = machine_by_name(machine_name)
    except (ExperimentError, KeyError) as error:
        message = error.args[0] if error.args else error
        print(message)
        return 2
    compiled = compile_program(spec.build_program(), machine)
    graph = DerivationGraph.build(
        compiled,
        canonical_env_factory(app),
        size=size if size is not None else spec.tuning_size,
        seed=config.seed,
        strategy=config.strategy,
    )
    store = DerivationStore.for_cache_dir(config.cache_dir)
    sync = graph.sync(store)
    print(graph.render())
    print()
    print(
        f"sync: hits={sync.hits} misses={sync.misses} stale={sync.stale} "
        f"dirty={len(sync.dirty)} frontier={len(sync.frontier)}"
    )
    if not store.enabled:
        print("store: disabled (set REPRO_CACHE_DIR to memoize derivations)")
    elif record:
        written = graph.record(store)
        print(f"recorded: {written} node(s)")
    return 0


def main(argv: list) -> int:
    if argv and argv[0] == "bench":
        # The benchmark harness has its own flags (--tier, --repeats,
        # --out, --check); `bench` must come first and everything after
        # it is forwarded.
        from repro.experiments.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "graph":
        # Same shape as `bench`: its own positional arguments and
        # flags, everything after the verb is forwarded.
        return _graph_main(argv[1:])
    requested = []
    overrides = {}
    config_file: Optional[str] = None
    for arg in argv:
        flag, has_value, text = arg.partition("=")
        if has_value and flag in _VALUE_FLAGS:
            field_name = _VALUE_FLAGS[flag]
            overrides[field_name] = parse_text(field_name, text)
        elif arg == "--resume":
            overrides["resume"] = True
        elif arg == "--retune":
            overrides["retune"] = True
        elif arg == "--quiet":
            # Explicit flags land in the argument layer, so --quiet
            # wins over REPRO_TUNER_PROGRESS=1 by construction.
            overrides["progress"] = False
        elif arg.startswith("--config-file="):
            config_file = arg.split("=", 1)[1]
        else:
            requested.append(arg)
    try:
        config = TunerConfig.resolve(config_file=config_file, **overrides)
    except ConfigError as error:
        print(error)
        return 2
    # Long tunes report one line per strategy round on stderr instead
    # of running silently; an explicit environment/file/flag choice
    # wins over this CLI-only default.
    config = config.with_defaults(progress=True)
    if "config" in requested:
        print(_render_config(config))
        requested = [name for name in requested if name != "config"]
        if not requested:
            return 0
        print()
    settings = ExperimentSettings.from_config(config)
    requested = requested or list(_ARTEFACTS)
    unknown = [name for name in requested if name not in _ARTEFACTS]
    if unknown:
        print(
            f"unknown artefact(s): {unknown}; "
            f"available: {sorted(_ARTEFACTS) + ['bench', 'config', 'graph']}"
        )
        return 2
    # One Session drives the whole run: the tuning harnesses (fig6/7/8)
    # each batch-tune through it and share one process-wide session
    # cache, so no extra warm-up pass is needed here.
    from repro.api.session import Session

    with Session(config) as session:
        for name in requested:
            _ARTEFACTS[name](settings, session)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

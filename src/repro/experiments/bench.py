"""Perf-trajectory benchmark harness for the evaluation hot path.

The autotuner's throughput is bounded by the wall-clock cost of one
*cache-miss* evaluation — a candidate no result cache has seen, paying
the full simulation.  This harness measures that cost per benchmark,
through the same :class:`~repro.core.fitness.Evaluator` path the tuner
uses (every measured evaluation runs on a fresh evaluator with the
disk cache off, so nothing is served from the disk cache or a decision
tree), and emits
``BENCH_runtime.json`` so every PR lands with a measured before/after
instead of a claim.  Three measurements per app (on the Desktop
machine model, which exercises the GPU quartet path):

* ``first_eval_s`` — best of ``repeats`` first evaluations, each on a
  freshly compiled program with the test-input memo cleared:
  test-input generation, prepared invocation plans and row partitions
  are all cold, as at the start of a tuning session.
* ``cold_eval_s`` — best cache-miss evaluation in the tuning steady
  state: the simulation runs in full, while successive candidates
  share the prepared-plan layer and the memoised test inputs.  This
  is the number tuning time is proportional to.
* ``virtual_time_s`` — the simulated time of the run (a determinism
  canary: it must not change when only the hot path is optimised).

Plus one end-to-end tuning-generation benchmark: a small tuning
session with the disk cache disabled, reported as wall-clock per
physically computed evaluation — run once per registered search
strategy (``strategies`` section), so every PR lands with a measured
per-strategy tuning throughput trajectory.  The ``tuning`` entry
remains the evolutionary strategy's end-to-end session, directly
comparable against pre-strategy baselines.

Usage::

    python -m repro.experiments bench                       # fast tier
    python -m repro.experiments bench --tier=tiny --repeats=2
    python -m repro.experiments bench --out=BENCH_runtime.json \
        --check=benchmarks/perf/BENCH_baseline.json

``--check`` compares against a committed baseline and exits non-zero
when any app's per-evaluation time regresses more than
:data:`REGRESSION_FACTOR` (with a small absolute slack so micro-second
entries don't trip on timer noise) — the tier-1 test
``benchmarks/perf/test_perf_trajectory.py`` applies the same gate to
the tiny tier.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.api.config import TunerConfig, _Integer
from repro.apps.registry import benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.configuration import Configuration, default_configuration
from repro.core.fitness import Evaluator, clear_env_memo
from repro.core.result_cache import ResultCache
from repro.core.search import EvolutionaryTuner
from repro.errors import ConfigError
from repro.hardware.machines import machine_by_name

#: Schema version of BENCH_runtime.json.  2 added
#: computed_evaluations_per_s; 3 dropped the per-strategy "batched"
#: entries, which ran the serial session a second time.
BENCH_SCHEMA = 3

#: A regression is flagged when current > factor * baseline ...
REGRESSION_FACTOR = 3.0
#: ... and the absolute growth also exceeds this slack (seconds), so
#: sub-millisecond entries don't trip on scheduler/timer noise.
REGRESSION_SLACK_S = 0.025

#: Machine model used for the runtime benchmarks (has a discrete GPU,
#: so the measurement covers the GPU-manager path too).
BENCH_MACHINE = "Desktop"

#: Input sizes per tier.  ``tiny`` is the CI smoke tier (seconds of
#: wall-clock end to end); ``fast`` matches the repo's fast test tier.
TIER_SIZES: Dict[str, Dict[str, int]] = {
    "tiny": {
        "Black-Sholes": 512,
        "Poisson2D SOR": 64,
        "SeparableConv.": 64,
        "Sort": 4096,
        "Strassen": 64,
        "SVD": 64,
        "Tridiagonal Solver": 256,
    },
    "fast": {
        "Black-Sholes": 4096,
        "Poisson2D SOR": 256,
        "SeparableConv.": 256,
        "Sort": 65536,
        "Strassen": 256,
        "SVD": 128,
        "Tridiagonal Solver": 1024,
    },
}

#: Tuning-generation benchmark settings per tier.
TIER_TUNING = {
    "tiny": ("SeparableConv.", 128),
    "fast": ("SeparableConv.", 512),
}


def _config_variant(compiled, index: int) -> Configuration:
    """The default configuration, made unique per ``index``.

    Nudging ``seq_par_cutoff`` (every program has it) produces a
    distinct candidate whose evaluation no disk cache has seen.  A run that never asks for ``seq_par_cutoff`` (Strassen and
    the Tridiagonal Solver at their bench sizes) answers every variant
    alike, so only a fresh evaluator keeps it from a decision-tree hit.
    """
    spec = compiled.training_info.tunables["seq_par_cutoff"]
    return default_configuration(compiled.training_info).with_tunable(
        "seq_par_cutoff", min(spec.hi, spec.default + index)
    )


def _bench_app(name: str, size: int, machine_name: str, repeats: int) -> Dict[str, float]:
    """Measure one app's cache-miss per-evaluation wall-clock."""
    spec = benchmark(name)
    machine = machine_by_name(machine_name)

    def fresh_evaluator(compiled) -> Evaluator:
        # Built outside the timed span, one per measured evaluation:
        # its decision trees start empty and the disk cache is
        # off, so every evaluation simulates.  The env memo and the
        # prepared plans are shared, so they stay warm.
        return Evaluator(
            compiled,
            canonical_env_factory(name),
            accuracy_fn=spec.accuracy_fn,
            accuracy_target=spec.accuracy_target,
            result_cache=ResultCache(None),
        )

    # Best of `repeats`, each paying every cold cost again, so one
    # scheduler stall cannot fail the gate; a real regression shows on
    # every repeat.
    first_times: List[float] = []
    for _ in range(max(1, repeats)):
        clear_env_memo()
        compiled = compile_program(spec.build_program(), machine)
        evaluator = fresh_evaluator(compiled)
        start = time.perf_counter()
        pure = evaluator.compute(_config_variant(compiled, 0), size)
        first_times.append(time.perf_counter() - start)
    miss_times: List[float] = []
    for index in range(1, 1 + 2 * max(1, repeats)):
        config = _config_variant(compiled, index)
        evaluator = fresh_evaluator(compiled)
        start = time.perf_counter()
        evaluator.compute(config, size)
        miss_times.append(time.perf_counter() - start)
    return {
        "size": size,
        "first_eval_s": min(first_times),
        "cold_eval_s": min(miss_times),
        "virtual_time_s": pure.time_s,
    }


def _bench_tuning(
    name: str,
    max_size: int,
    seed: int = 3,
    strategy: str = "evolutionary",
) -> Dict[str, float]:
    """One small tuning session, disk cache off, serial backend."""
    spec = benchmark(name)
    machine = machine_by_name(BENCH_MACHINE)
    compiled = compile_program(spec.build_program(), machine)
    # A fully explicit config: serial backend, disk cache and
    # checkpointing off, silent — the measurement must not depend on
    # the caller's environment.
    tuner = EvolutionaryTuner(
        compiled,
        canonical_env_factory(name),
        max_size=max_size,
        seed=seed,
        config=TunerConfig(
            backend="serial",
            strategy=strategy,
            cache_dir=None,
            resume=False,
            progress=False,
        ),
    )
    start = time.perf_counter()
    try:
        report = tuner.tune()
    finally:
        tuner.close()
    wall = time.perf_counter() - start
    computed = max(1, report.computed_evaluations)
    return {
        "app": name,
        "strategy": strategy,
        "max_size": max_size,
        "wall_s": wall,
        "evaluations": report.evaluations,
        "computed_evaluations": report.computed_evaluations,
        "s_per_computed_evaluation": wall / computed,
        # Generation throughput: committed candidate tests per second
        # of wall clock, the number the strategy bench tracks per PR.
        "evaluations_per_s": report.evaluations / wall if wall > 0 else 0.0,
        # Physical-simulation throughput: how fast the evaluator chews
        # through cache misses.  Serial sessions never speculate, but
        # decision-tree hits commit without simulating, so it sits
        # below the committed rate.
        "computed_evaluations_per_s": (
            report.computed_evaluations / wall if wall > 0 else 0.0
        ),
        "rounds": len(report.history),
    }


def bench_runtime(
    tier: str = "fast", repeats: int = 3, include_tuning: bool = True
) -> Dict[str, object]:
    """Run the benchmark suite and return the BENCH_runtime payload."""
    if tier not in TIER_SIZES:
        raise ValueError(f"unknown tier {tier!r}; available: {sorted(TIER_SIZES)}")
    apps = {
        name: _bench_app(name, size, BENCH_MACHINE, repeats)
        for name, size in TIER_SIZES[tier].items()
    }
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "tier": tier,
        "machine": BENCH_MACHINE,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "apps": apps,
    }
    if include_tuning:
        from repro.core.strategies import strategy_names

        tuning_app, tuning_size = TIER_TUNING[tier]
        payload["tuning"] = _bench_tuning(tuning_app, tuning_size)
        # Per-strategy generation throughput (the evolutionary entry
        # reuses the measurement above rather than tuning twice).
        strategies: Dict[str, Dict[str, float]] = {
            "evolutionary": payload["tuning"]  # type: ignore[dict-item]
        }
        for name in strategy_names():
            if name not in strategies:
                strategies[name] = _bench_tuning(
                    tuning_app, tuning_size, strategy=name
                )
        payload["strategies"] = strategies
    return payload


def check_regressions(
    current: Dict[str, object],
    baseline: Dict[str, object],
    factor: float = REGRESSION_FACTOR,
    slack_s: float = REGRESSION_SLACK_S,
) -> List[str]:
    """Compare a fresh run against a committed baseline.

    Returns:
        One message per regression: an app whose first or cache-miss
        per-evaluation time grew beyond ``factor`` times the baseline
        *and* by more than ``slack_s`` seconds absolute.  Apps present
        on only one side are skipped (tier/app-set drift is handled by
        re-committing the baseline, not by failing CI).
    """
    problems: List[str] = []
    baseline_apps = baseline.get("apps", {})
    for name, entry in current.get("apps", {}).items():
        base = baseline_apps.get(name)
        if not isinstance(base, dict):
            continue
        for field in ("first_eval_s", "cold_eval_s"):
            now_s = entry.get(field)
            base_s = base.get(field)
            if not isinstance(now_s, float) or not isinstance(base_s, (int, float)):
                continue
            if now_s > factor * base_s and now_s - base_s > slack_s:
                problems.append(
                    f"{name}: {field} regressed {now_s * 1e3:.2f}ms vs "
                    f"baseline {base_s * 1e3:.2f}ms (>{factor:.1f}x)"
                )
    return problems


def render_bench(payload: Dict[str, object]) -> str:
    """Human-readable summary table."""
    lines = [
        f"Evaluation hot-path benchmark — tier={payload['tier']} "
        f"machine={payload['machine']} (best of {payload['repeats']})",
        f"{'app':24s} {'size':>8s} {'first ms':>10s} {'miss ms':>10s}",
    ]
    for name, entry in payload["apps"].items():
        lines.append(
            f"{name:24s} {entry['size']:8d} "
            f"{entry['first_eval_s'] * 1e3:10.3f} "
            f"{entry['cold_eval_s'] * 1e3:10.3f}"
        )
    tuning = payload.get("tuning")
    if tuning:
        lines.append(
            f"tuning: {tuning['app']} max_size={tuning['max_size']} "
            f"wall={tuning['wall_s']:.2f}s "
            f"computed={tuning['computed_evaluations']} "
            f"({tuning['s_per_computed_evaluation'] * 1e3:.2f} ms/eval)"
        )
    strategies = payload.get("strategies")
    if strategies:
        for name, entry in strategies.items():
            lines.append(
                f"strategy {name:13s} wall={entry['wall_s']:.2f}s "
                f"evals={entry['evaluations']} "
                f"({entry['evaluations_per_s']:.1f} evals/s)"
            )
    return "\n".join(lines)


def write_bench(path: str, payload: Dict[str, object]) -> None:
    """Write the payload as pretty JSON (the committed trajectory file)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: List[str]) -> int:
    """CLI entry point for ``python -m repro.experiments bench``."""
    tier = "fast"
    repeats = 3
    out: Optional[str] = "BENCH_runtime.json"
    check: Optional[str] = None
    for arg in argv:
        if arg.startswith("--tier="):
            tier = arg.split("=", 1)[1]
        elif arg.startswith("--repeats="):
            try:
                repeats = _Integer(1).read(arg.split("=", 1)[1])
            except ConfigError as error:
                print(f"invalid {arg}: {error}")
                return 2
        elif arg.startswith("--out="):
            out = arg.split("=", 1)[1] or None
        elif arg.startswith("--check="):
            check = arg.split("=", 1)[1]
        else:
            print(f"unknown bench flag {arg!r}")
            return 2
    if tier not in TIER_SIZES:
        print(f"unknown tier {tier!r}; available: {sorted(TIER_SIZES)}")
        return 2
    payload = bench_runtime(tier=tier, repeats=repeats)
    print(render_bench(payload))
    if out:
        write_bench(out, payload)
        print(f"wrote {out}")
    if check:
        with open(check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_regressions(payload, baseline)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print(f"no regressions vs {check}")
    return 0

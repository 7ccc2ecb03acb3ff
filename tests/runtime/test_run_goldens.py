"""The exact outcome of single simulated runs.

Tuning reports only show the configurations that win, so a change to
the runtime that moves the outcome of a losing candidate (its time,
its statistics, the questions it asks) can slip past every report
golden.  This file pins the full outcome of individual runs instead:
for each of the seven apps, on Desktop, Server and Laptop, at two
small sizes, under the default configuration and :data:`MUTANTS`
configurations drawn through the app's own mutators with a fixed seed
(and, for lane-batchable apps, elided as well as numeric), it records

* the virtual time, as ``float.hex``;
* ``RunStats.as_dict()``, floats as hex;
* the decision path, question by question in asked order;
* the SHA-256 of every entry output array's bytes.

``goldens/run_digests.json`` is the recording.  To record it again
(only after a change that is meant to move run outcomes)::

    PYTHONPATH=src python tests/runtime/test_run_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro.apps.registry import all_benchmarks, benchmark, canonical_env_factory
from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.fitness import lane_batchable
from repro.core.mutators import TunableMutator, mutators_for
from repro.hardware.machines import DESKTOP, LAPTOP, SERVER
from repro.runtime.executor import run_program

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "goldens" / "run_digests.json"

#: Two small sizes per app: each reaches recursion or chunking, and
#: the whole file runs in a few seconds.
SIZES = {
    "Black-Sholes": (2000, 9000),
    "Poisson2D SOR": (16, 32),
    "SeparableConv.": (32, 64),
    "Sort": (700, 3000),
    "Strassen": (64, 128),
    "SVD": (8, 16),
    "Tridiagonal Solver": (16, 64),
}

MACHINES = (DESKTOP, SERVER, LAPTOP)

#: Drawn configurations per (app, machine), after the default one.
MUTANTS = 8
#: Seed of the configuration draws and of every run's scheduler.
SEED = 27


def _configurations(compiled, sizes):
    """The default configuration plus :data:`MUTANTS` drawn ones.

    Later draws take longer mutation chains, and every second step
    mutates a selector, so that some configurations recurse and switch
    algorithms between sizes (tunable mutators outnumber selector ones).
    """
    rng = random.Random(SEED)
    base = default_configuration(compiled.training_info)
    mutators = mutators_for(compiled.training_info)
    selectors = [m for m in mutators if not isinstance(m, TunableMutator)]
    configs = [base]
    for index in range(MUTANTS):
        config = base
        for step in range(4 + 3 * index):
            pool = selectors if step % 2 and selectors else mutators
            config = rng.choice(pool).mutate(config, rng, rng.choice(sizes)) or config
        configs.append(config)
    return configs


def _outcome(compiled, config, master, numeric):
    """One run's outcome in JSON-ready form."""
    env = {name: array.copy() for name, array in master.items()}
    try:
        result = run_program(compiled, config, env, seed=SEED, numeric=numeric)
    except Exception as exc:  # a failing candidate's outcome is its error
        return {"error": f"{type(exc).__name__}: {exc}"}
    stats = {
        name: value.hex() if isinstance(value, float) else value
        for name, value in result.stats.as_dict().items()
    }
    outputs = {
        name: hashlib.sha256(result.env[name].tobytes()).hexdigest()
        for name in compiled.program.entry_transform.outputs
    }
    return {
        "time_s": result.time_s.hex(),
        "stats": stats,
        "path": [[list(question), answer] for question, answer in result.path],
        "outputs": outputs,
    }


def record(app: str, machine) -> dict:
    """Every case of one (app, machine) pair, keyed by case name."""
    compiled = compile_program(benchmark(app).build_program(), machine)
    sizes = SIZES[app]
    modes = (True, False) if lane_batchable(compiled) else (True,)
    cases = {}
    for size in sizes:
        master = canonical_env_factory(app)(size)
        for index, config in enumerate(_configurations(compiled, sizes)):
            for numeric in modes:
                name = f"{size}/{index}/{'numeric' if numeric else 'elided'}"
                cases[name] = _outcome(compiled, config, master, numeric)
    return cases


def _pair_name(app: str, machine) -> str:
    return f"{app} @ {machine.codename}"


PAIRS = [(app, machine) for app in SIZES for machine in MACHINES]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "app,machine", PAIRS, ids=[_pair_name(app, machine) for app, machine in PAIRS]
)
def test_runs_match_recorded_outcomes(goldens, app, machine):
    expected = goldens[_pair_name(app, machine)]
    actual = record(app, machine)
    assert sorted(actual) == sorted(expected)
    for case, outcome in expected.items():
        assert actual[case] == outcome, case


def test_goldens_cover_every_app():
    assert {spec.name for spec in all_benchmarks()} == set(SIZES)


if __name__ == "__main__":
    recorded = {_pair_name(app, machine): record(app, machine) for app, machine in PAIRS}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, recorded.values()))} runs to {GOLDEN_PATH}")

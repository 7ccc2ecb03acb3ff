"""The fault plane itself: spec grammar, determinism, lifecycle."""

from __future__ import annotations

import ast
import errno
import pathlib

import pytest

import repro
from repro import faults
from repro.api.config import TunerConfig
from repro.errors import ConfigError


class TestSpecGrammar:
    def test_full_clause_parses(self):
        plan = faults.parse_fault_plan(
            "seed=42; cluster.send_frame=drop@0.25#3; worker.compute=delay:0.05"
        )
        assert plan.seed == 42
        drop = plan.actions["cluster.send_frame"]
        assert (drop.kind, drop.rate, drop.limit) == ("drop", 0.25, 3)
        delay = plan.actions["worker.compute"]
        assert delay.kind == "delay"
        assert delay.seconds == pytest.approx(0.05)
        assert delay.rate == 1.0 and delay.limit is None

    def test_default_delay_seconds(self):
        plan = faults.parse_fault_plan("a=delay")
        assert plan.actions["a"].seconds == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "bad",
        [
            "just-a-word",
            "point=",
            "=drop",
            "seed=notanint",
            "p=frobnicate",  # unknown kind
            "p=drop@0",  # rate out of (0, 1]
            "p=drop@1.5",
            "p=drop@x",
            "p=drop#0",  # limit must be >= 1
            "p=drop#x",
            # Numbers outside the config grammar.
            "seed=1_0",
            "seed=\u0663",  # ARABIC-INDIC DIGIT THREE
            "p=drop#1_0",
            "p=drop@1_0",
            "p=drop@inf",
            "p=drop@nan",
            "p=drop@\u0660.5",
            # Action arguments that used to fail only when the fault fired.
            "worker.compute=delay:abc",
            "p=delay:-5",
            "p=delay:0",
            "p=delay:inf",
            "p=slow:1e400",
            "p=delay:nan",
            "p=oserror:EBOGUS",
            "p=oserror:errorcode",
            "p=drop:1",  # kinds that take no argument
            "p=crash:now",
        ],
    )
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ConfigError):
            faults.parse_fault_plan(bad)

    def test_empty_clauses_are_ignored(self):
        plan = faults.parse_fault_plan(";;seed=1;;p=drop;;")
        assert plan.seed == 1
        assert set(plan.actions) == {"p"}

    def test_config_validates_fault_spec(self):
        with pytest.raises(ConfigError):
            TunerConfig(fault_spec="p=frobnicate")
        config = TunerConfig(fault_spec="seed=9;cache.put=oserror#1")
        assert config.fault_spec == "seed=9;cache.put=oserror#1"
        # Falsy-style strings mean "off", same grammar as the other
        # on/off knobs.
        assert TunerConfig(fault_spec="off").fault_spec is None
        assert TunerConfig(fault_spec="  ").fault_spec is None


class TestInjector:
    def test_noop_by_default(self):
        assert faults.fault_point("anything") is None
        assert faults.installed_plan() is None
        assert faults.snapshot() == {}

    def test_install_and_uninstall(self):
        faults.install("seed=1;p=drop")
        assert faults.installed_plan().seed == 1
        assert faults.fault_point("p").kind == "drop"
        assert faults.fault_point("other") is None
        faults.uninstall()
        assert faults.fault_point("p") is None

    def test_install_falsy_clears(self):
        faults.install("seed=1;p=drop")
        faults.install(None)
        assert faults.installed_plan() is None
        faults.install("seed=1;p=drop")
        faults.install("")
        assert faults.installed_plan() is None

    def test_reinstalling_identical_spec_keeps_counters(self):
        injector = faults.install("seed=1;p=drop#1")
        assert faults.fault_point("p") is not None
        assert faults.fault_point("p") is None  # limit exhausted
        again = faults.install("seed=1;p=drop#1")
        assert again is injector
        assert faults.fault_point("p") is None  # still exhausted

    def test_limit_bounds_firings(self):
        faults.install("p=drop#2")
        fired = [faults.fault_point("p") for _ in range(5)]
        assert [f is not None for f in fired] == [True, True, False, False, False]
        assert faults.snapshot()["p"] == {"checks": 5, "fired": 2}

    def test_rate_pattern_is_a_pure_function_of_seed(self):
        def pattern(seed, checks=200):
            faults.uninstall()
            faults.install(f"seed={seed};p=drop@0.3")
            return [faults.fault_point("p") is not None for _ in range(checks)]

        first = pattern(7)
        second = pattern(7)
        other = pattern(8)
        assert first == second
        assert first != other  # overwhelmingly likely for 200 draws
        fired = sum(first)
        assert 30 <= fired <= 90  # ~0.3 * 200, generous bounds

    def test_cross_point_interleaving_cannot_change_a_points_pattern(self):
        """The property the whole plane rests on: point A's firing
        pattern depends only on A's own check count, no matter how
        checks of other points interleave."""

        def pattern_of_a(interleave):
            faults.uninstall()
            faults.install("seed=3;a=drop@0.5;b=drop@0.5")
            out = []
            for i in range(100):
                if interleave:
                    faults.fault_point("b")  # noise between A's checks
                out.append(faults.fault_point("a") is not None)
            return out

        assert pattern_of_a(False) == pattern_of_a(True)

    def test_injected_oserror_maps_errno_names(self):
        plain = faults.injected_oserror(faults.FaultAction(kind="oserror"))
        assert plain.errno == errno.ENOSPC
        named = faults.injected_oserror(
            faults.FaultAction(kind="oserror", arg="EIO")
        )
        assert named.errno == errno.EIO

    def test_thread_safety_under_hammering(self):
        import threading

        faults.install("p=drop@0.5")
        counts = []

        def hammer():
            fired = sum(
                1 for _ in range(500) if faults.fault_point("p") is not None
            )
            counts.append(fired)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        snap = faults.snapshot()["p"]
        assert snap["checks"] == 2000
        assert snap["fired"] == sum(counts)


class TestSessionWiring:
    def test_session_installs_the_config_plan(self, tmp_path):
        from repro.api.session import Session

        config = TunerConfig.resolve(
            backend="serial", progress=False, fault_spec="seed=5;p=drop#1"
        )
        with Session(config):
            plan = faults.installed_plan()
            assert plan is not None and plan.seed == 5

    def test_session_without_spec_leaves_plane_untouched(self):
        from repro.api.session import Session

        faults.install("seed=5;p=drop#1")
        with Session(TunerConfig.resolve(backend="serial", progress=False)):
            assert faults.installed_plan() is not None  # not cleared
        faults.uninstall()
        with Session(TunerConfig.resolve(backend="serial", progress=False)):
            assert faults.installed_plan() is None  # not invented


def _documented_points():
    """First-column names of the point table in the faults docstring."""
    lines = faults.__doc__.splitlines()
    borders = [i for i, line in enumerate(lines) if set(line) == {"=", " "}]
    body = lines[borders[1] + 1 : borders[2]]
    return {line.split()[0] for line in body if line and not line[0].isspace()}


def _points_in_source():
    """Point names in ``fault_point("...")`` calls, ``FAULT_POINT = "..."``
    constants and ``atomic_json.write(...)`` arguments."""
    root = pathlib.Path(repro.__file__).resolve().parent
    points = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func.endswith("fault_point"):
                    values = node.args[:1]
                elif func == "atomic_json.write":
                    values = node.args + [kw.value for kw in node.keywords]
                else:
                    continue
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "FAULT_POINT"
                for target in node.targets
            ):
                values = [node.value]
            else:
                continue
            points.update(
                value.value for value in values
                if isinstance(value, ast.Constant) and isinstance(value.value, str)
            )
    return points


def test_the_point_table_lists_every_point_in_the_source():
    points = _points_in_source()
    # One name from each kind of source, so the scan cannot go blind.
    assert {"worker.compute", "graph.put", "checkpoint.save"} <= points
    assert _documented_points() == points

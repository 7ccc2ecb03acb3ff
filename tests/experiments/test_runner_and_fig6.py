"""Tests for the experiment runner's session cache, the Figure 6
description helpers and the CLI entry point."""

import pytest

from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.experiments.fig6_configs import (
    describe_choice_at,
    describe_polyalgorithm,
)
from repro.api import Session, TunerConfig
from repro.experiments.runner import ExperimentSettings, clear_sessions
from repro.hardware.machines import DESKTOP

from tests.conftest import make_stencil_program


class TestSettings:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        settings = ExperimentSettings.from_config(TunerConfig.resolve())
        assert not settings.full_scale
        assert settings.seed == 3

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        monkeypatch.setenv("REPRO_SEED", "7")
        settings = ExperimentSettings.from_config(TunerConfig.resolve())
        assert settings.full_scale
        assert settings.seed == 7

    def test_eval_size_scaling(self):
        from repro.apps.registry import benchmark
        spec = benchmark("SeparableConv.")
        assert ExperimentSettings(full_scale=True).eval_size(spec) == 3520
        assert ExperimentSettings(full_scale=False).eval_size(spec) == 1024


class TestSessionCache:
    def test_sessions_cached_per_key(self):
        clear_sessions()
        with Session(TunerConfig.resolve()) as api_session:
            first = api_session.tune("Black-Sholes", DESKTOP, seed=41)
            second = api_session.tune("Black-Sholes", DESKTOP, seed=41)
            assert first is second
            different = api_session.tune("Black-Sholes", DESKTOP, seed=42)
            assert different is not first
        clear_sessions()

    def test_session_carries_compiled_program(self):
        clear_sessions()
        with Session(TunerConfig.resolve()) as api_session:
            tuned = api_session.tune("Black-Sholes", DESKTOP, seed=41)
        assert tuned.compiled.machine is DESKTOP
        assert tuned.report.best.label == "Desktop Config"
        clear_sessions()


class TestDescriptions:
    @pytest.fixture
    def compiled(self):
        return compile_program(make_stencil_program(5), DESKTOP)

    def test_describe_constant_choice(self, compiled):
        config = default_configuration(compiled.training_info)
        text = describe_choice_at(compiled, config, "Stencil", 1000)
        assert text == "direct/cpu"

    def test_describe_opencl_choice_includes_tunables(self, compiled):
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Stencil",
            Selector.constant(
                compiled.transform("Stencil").choice_index("direct/opencl")
            ),
        )
        config = config.with_tunable("gpu_ratio_Stencil", 6)
        text = describe_choice_at(compiled, config, "Stencil", 1000)
        assert "direct/opencl" in text
        assert "gpu 6/8" in text

    def test_describe_polyalgorithm_chain(self, compiled):
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Stencil",
            Selector(
                cutoffs=(256, 65536),
                algorithms=(0, 1, 2),
            ),
        )
        text = describe_polyalgorithm(compiled, config, "Stencil", 10**6)
        assert "< 256: direct/cpu" in text
        assert "< 65536: direct/opencl" in text
        assert ">= 65536: direct/opencl_local" in text

    def test_describe_polyalgorithm_constant_falls_back(self, compiled):
        config = default_configuration(compiled.training_info)
        text = describe_polyalgorithm(compiled, config, "Stencil", 10**6)
        assert text == "direct/cpu"


class TestCli:
    def test_fig9_artefact(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Tesla C2070" in out

    def test_unknown_artefact(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig99"]) == 2

    @pytest.mark.parametrize("repeats", ["x", "1_0", "0"])
    def test_bench_repeats_outside_the_config_grammar_is_a_usage_error(
        self, capsys, repeats
    ):
        from repro.experiments.__main__ import main
        assert main(["bench", f"--repeats={repeats}"]) == 2
        assert f"invalid --repeats={repeats}: " in capsys.readouterr().out

    def test_bad_backend_flag_is_a_usage_error(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--backend=bogus", "fig9"]) == 2
        assert "unknown backend" in capsys.readouterr().out

    def test_config_subcommand_reports_provenance(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main
        monkeypatch.setenv("REPRO_TUNER_STRATEGY", "bandit")
        assert main(["config", "--backend=process"]) == 0
        out = capsys.readouterr().out
        assert "bandit" in out
        assert "environment (REPRO_TUNER_STRATEGY)" in out
        assert "command-line flag" in out
        # The CLI defaults progress on without claiming a source.
        assert "progress" in out

    def test_quiet_flag_beats_progress_env(self, monkeypatch, capsys):
        """Regression: explicit CLI choice wins over the environment."""
        from repro.experiments.__main__ import main
        monkeypatch.setenv("REPRO_TUNER_PROGRESS", "1")
        assert main(["config", "--quiet"]) == 0
        out = capsys.readouterr().out
        progress_line = next(
            line for line in out.splitlines()
            if line.strip().startswith("progress")
        )
        assert "False" in progress_line
        assert "command-line flag" in progress_line

"""Figure 2: the four OpenCL mappings of SeparableConvolution.

For kernel widths 3..17 on each test system, measure the execution
time of the four distinct OpenCL mappings the compiler generates —

* 2-D convolution, with and without local-memory prefetching,
* separable (two-pass) convolution, with and without local memory,

plus the autotuned configuration, which the paper reports "always
discovers the best configuration for each system and width".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import TunerConfig
from repro.apps import separable_convolution as conv
from repro.compiler.compile import CompiledProgram, compile_program
from repro.core.configuration import Configuration, default_configuration
from repro.core.search import EvolutionaryTuner
from repro.core.selector import Selector
from repro.errors import ExperimentError
from repro.hardware.machines import MachineSpec, standard_machines
from repro.reporting.tables import render_series
from repro.runtime.executor import run_program

#: The paper sweeps kernel widths 3..17 (odd).
PAPER_WIDTHS: Tuple[int, ...] = (3, 5, 7, 9, 11, 13, 15, 17)
#: Paper input size 3520x3520; the default harness uses 1024 for
#: wall-clock reasons (set full scale for 3520).
DEFAULT_SIZE = 1024

#: The four mappings of Figure 2's legend.
MAPPINGS: Tuple[str, ...] = (
    "2D Localmem",
    "2D No-local",
    "Separable Localmem",
    "Separable No-local",
)


def mapping_config(compiled: CompiledProgram, mapping: str) -> Configuration:
    """Build the forced configuration for one of the four mappings.

    Args:
        compiled: Compiled SeparableConvolution program.
        mapping: One of :data:`MAPPINGS`.

    Raises:
        ExperimentError: For unknown mapping names or when the machine
            lacks the required kernel variant.
    """
    default = default_configuration(compiled.training_info, label=mapping)
    selectors = dict(default.selectors)
    top = compiled.transform("SeparableConvolution")
    suffix = "opencl_local" if "Localmem" in mapping else "opencl"
    try:
        if mapping.startswith("2D"):
            selectors["SeparableConvolution"] = Selector.constant(
                top.choice_index("single_pass_2d")
            )
            conv2d = compiled.transform("Convolve2D")
            selectors["Convolve2D"] = Selector.constant(
                conv2d.choice_index(f"direct/{suffix}")
            )
        elif mapping.startswith("Separable"):
            selectors["SeparableConvolution"] = Selector.constant(
                top.choice_index("separable")
            )
            for name in ("ConvolveRows", "ConvolveColumns"):
                compiled_t = compiled.transform(name)
                selectors[name] = Selector.constant(
                    compiled_t.choice_index(f"direct/{suffix}")
                )
        else:
            raise ExperimentError(f"unknown mapping {mapping!r}")
    except KeyError as exc:
        raise ExperimentError(f"mapping {mapping!r} unavailable: {exc}") from exc
    return Configuration(default.program_name, selectors, default.tunables, mapping)


@dataclass
class Fig2Result:
    """Figure 2 data for one machine.

    Attributes:
        machine: Machine codename.
        size: Image side length used.
        widths: Kernel widths swept.
        series: Mapping name -> execution time per width (seconds);
            includes the ``"Autotuner"`` series.
    """

    machine: str
    size: int
    widths: Tuple[int, ...]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def best_mapping(self, width: int) -> str:
        """The fastest of the four forced mappings at one width."""
        index = self.widths.index(width)
        return min(MAPPINGS, key=lambda m: self.series[m][index])

    def render(self) -> str:
        """ASCII rendering of this machine's panel."""
        return render_series(
            "kernel width",
            list(self.widths),
            {name: values for name, values in self.series.items()},
            title=f"Figure 2 ({self.machine}): SeparableConvolution, "
            f"input {self.size}x{self.size}, times in seconds",
        )


def run_fig2_machine(
    machine: MachineSpec,
    widths: Sequence[int] = PAPER_WIDTHS,
    size: int = DEFAULT_SIZE,
    seed: int = 3,
    include_autotuner: bool = True,
    config: Optional[TunerConfig] = None,
) -> Fig2Result:
    """Measure the Figure 2 panel for one machine.

    Args:
        machine: Target machine.
        widths: Kernel widths to sweep.
        size: Image side length.
        seed: Scheduling/tuning seed.
        include_autotuner: Also tune per width and report the
            autotuner series (slower).
        config: Tuner knobs for the autotuner series; ``None``
            resolves them once with :meth:`TunerConfig.resolve`.
    """
    if include_autotuner and config is None:
        config = TunerConfig.resolve()
    result = Fig2Result(machine=machine.codename, size=size, widths=tuple(widths))
    for name in MAPPINGS:
        result.series[name] = []
    if include_autotuner:
        result.series["Autotuner"] = []

    for width in widths:
        program = conv.build_program(kernel_width=width)
        compiled = compile_program(program, machine)
        env_template = conv.make_env(size, kernel_width=width, seed=0)
        for name in MAPPINGS:
            mapping = mapping_config(compiled, name)
            env = {
                "In": env_template["In"],
                "Kernel": env_template["Kernel"],
                "Out": np.zeros_like(env_template["Out"]),
            }
            run = run_program(compiled, mapping, env, seed=seed)
            result.series[name].append(run.time_s)
        if include_autotuner:
            tuner = EvolutionaryTuner(
                compiled,
                lambda n, w=width: conv.make_env(n, kernel_width=w, seed=0),
                max_size=size,
                seed=seed,
                config=config,
            )
            report = tuner.tune(label=f"autotuned kw={width}")
            env = {
                "In": env_template["In"],
                "Kernel": env_template["Kernel"],
                "Out": np.zeros_like(env_template["Out"]),
            }
            run = run_program(compiled, report.best, env, seed=seed)
            result.series["Autotuner"].append(run.time_s)
    return result


def run_fig2(
    widths: Sequence[int] = PAPER_WIDTHS,
    size: int = DEFAULT_SIZE,
    seed: int = 3,
    include_autotuner: bool = True,
    config: Optional[TunerConfig] = None,
) -> Dict[str, Fig2Result]:
    """Run Figure 2 on all three standard machines."""
    return {
        machine.codename: run_fig2_machine(
            machine, widths, size, seed, include_autotuner, config=config
        )
        for machine in standard_machines()
    }

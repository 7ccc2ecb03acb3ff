"""Black-Scholes and the CPU/GPU workload ratio (paper Fig. 7(a)).

Sweeps the autotuner's GPU/CPU workload ratio (1/8 increments, paper
Section 4.3) for the Black-Scholes benchmark on all three machines.
On the Laptop — where the GPU is only a few times faster than the
CPU — splitting the data across both devices beats using either
alone; on the Desktop and Server the GPU/OpenCL backend wins outright.

Run:  python examples/heterogeneous_blackscholes.py
"""

from __future__ import annotations

import numpy as np

from repro import compile_program, default_configuration, run_program
from repro.apps import blackscholes as bs
from repro.core.selector import Selector
from repro.hardware.machines import standard_machines

OPTIONS = 500_000  # the paper's testing input size


def main() -> None:
    for machine in standard_machines():
        compiled = compile_program(bs.build_program(), machine)
        transform = compiled.transform("BlackScholes")
        opencl_index = transform.choice_index("formula/opencl")

        print(f"=== {machine.codename}: {OPTIONS} options, times in ms (virtual)")
        times = {}
        for ratio in range(9):
            config = default_configuration(compiled.training_info)
            if ratio > 0:
                config = config.with_selector(
                    "BlackScholes", Selector.constant(opencl_index)
                )
                config = config.with_tunable("gpu_ratio_BlackScholes", ratio)
            env = bs.make_env(OPTIONS, seed=0)
            result = run_program(compiled, config, env)
            assert np.allclose(env["Out"], bs.reference(env))
            times[ratio] = result.time_s
            bar = "#" * int(result.time_s / max(times.values()) * 40)
            label = "CPU only " if ratio == 0 else f"GPU {ratio}/8   "
            print(f"  {label} {result.time_s * 1e3:8.3f}  {bar}")

        best_ratio = min(times, key=times.get)
        gpu_only = times[8]
        cpu_only = times[0]
        print(f"  -> best split: {best_ratio}/8 on GPU "
              f"({gpu_only / times[best_ratio]:.2f}x vs GPU-only, "
              f"{cpu_only / times[best_ratio]:.2f}x vs CPU-only)\n")


if __name__ == "__main__":
    main()

"""Baseline configurations and hand-coded OpenCL comparators.

The paper compares its autotuned configurations against

* **CPU-only Config** — autotuned with the OpenCL choices disabled
  (Figure 7(a)/(b)); here: the authored CPU choices with default
  tunables, since disabling OpenCL removes every other axis.
* **GPU-only Config** — hand-written configuration using PetaBricks
  bitonic sort on the GPU (Figure 7(d)).
* **Hand-coded OpenCL** — standalone NVIDIA SDK / CUDPP programs that
  only run on Desktop.  We cannot ship NVIDIA's sources, so each is
  *modelled* as an explicit kernel sequence through the same device
  cost model, with parameters documented inline (DESIGN.md records
  this substitution).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.apps import sort as sort_app
from repro.compiler.compile import CompiledProgram
from repro.core.configuration import Configuration, default_configuration
from repro.core.selector import Selector
from repro.errors import ExperimentError
from repro.hardware.costmodel import KernelLaunch, kernel_time
from repro.hardware.machines import MachineSpec


def cpu_only_config(compiled: CompiledProgram, label: str = "CPU-only Config") -> Configuration:
    """A configuration that never dispatches to the OpenCL backend.

    Algorithm 0 of every transform is the first authored choice on the
    CPU backend, so the default configuration is exactly the CPU-only
    configuration.
    """
    default = default_configuration(compiled.training_info, label=label)
    tunables = {
        name: 0 if name.startswith("gpu_ratio_") else value
        for name, value in default.tunables.items()
    }
    return Configuration(default.program_name, default.selectors, tunables, label)


def gpu_only_sort_config(
    compiled: CompiledProgram, label: str = "GPU-only Config"
) -> Configuration:
    """The paper's hand-written bitonic-on-GPU Sort configuration."""
    if compiled.program.name != "Sort":
        raise ExperimentError("gpu_only_sort_config only applies to Sort")
    default = default_configuration(compiled.training_info, label=label)
    selectors = dict(default.selectors)
    sort_in_place = compiled.transform("SortInPlace")
    selectors["SortInPlace"] = Selector.constant(
        sort_in_place.choice_index("bitonic_sort/opencl")
    )
    copy = compiled.transform("Copy")
    try:
        selectors["Copy"] = Selector.constant(copy.choice_index("copy/opencl"))
    except KeyError:
        pass
    return Configuration(default.program_name, selectors, default.tunables, label)


def handcoded_radix_sort_time(machine: MachineSpec, n: int) -> float:
    """Modelled NVIDIA SDK OpenCL radix sort (Figure 7(d) baseline).

    Eight 4-bit passes; each pass runs histogram + scan + scatter
    kernels whose scattered writes achieve poor effective bandwidth on
    the 2011-era implementation (the paper measures it 8.4x slower
    than the autotuned CPU sort).

    Args:
        machine: Must have a discrete GPU (the SDK samples are
            NVIDIA-specific and "only run on our Desktop system").
        n: Elements to sort.
    """
    device = machine.opencl_device
    if device is None or not machine.has_discrete_gpu:
        raise ExperimentError("hand-coded OpenCL baselines need a discrete GPU")
    passes = 8
    per_pass = KernelLaunch(
        work_items=n,
        flops_per_item=6.0,
        # Scatter with ~1/8 effective coalescing on this implementation.
        bytes_read_per_item=256.0,
        bytes_written_per_item=256.0,
        local_work_size=128,
    )
    kernel_s = passes * (kernel_time(per_pass, device) + 2 * device.launch_overhead_s)
    transfer_s = machine.transfer.transfer_time(8 * n) * 2
    return kernel_s + transfer_s


def handcoded_convolution_time(machine: MachineSpec, size: int, width: int) -> float:
    """Modelled NVIDIA SDK separable convolution (Figure 7(c) baseline).

    The SDK kernel has each work-item compute *multiple* outputs — an
    optimisation that increases complexity and, per the paper, loses
    to the generated one-output-per-work-item code on the C2070 (they
    measured 2.3x).  Modelled as the separable local-memory algorithm
    with reduced effective occupancy.

    Args:
        machine: Must have a discrete GPU.
        size: Image side length.
        width: Kernel width.
    """
    device = machine.opencl_device
    if device is None or not machine.has_discrete_gpu:
        raise ExperimentError("hand-coded OpenCL baselines need a discrete GPU")
    out = (size - width + 1) ** 2
    per_pass = KernelLaunch(
        work_items=out // 4,  # 4 outputs per work-item
        flops_per_item=8.0 * width,
        bytes_read_per_item=8.0 * width * 4,
        bytes_written_per_item=32.0,
        bounding_box=width * 4,
        # Multi-output work-items cut occupancy: small groups.
        local_work_size=max(1, device.warp_width // 2),
        use_local_memory=True,
    )
    kernel_s = 2 * kernel_time(per_pass, device)
    transfer_s = machine.transfer.transfer_time(8 * size * size) + (
        machine.transfer.transfer_time(8 * out)
    )
    return kernel_s + transfer_s


def handcoded_matmul_time(machine: MachineSpec, n: int) -> float:
    """Modelled NVIDIA SDK OpenCL matrix multiply (Figure 7(e) baseline).

    The SDK code accumulates partial outputs in local memory shared
    between work-items — an optimisation the paper's generator does
    not perform — and beat the autotuned configuration by 1.4x on
    Desktop.  Modelled as a fully tiled kernel at high efficiency with
    no staging overhead.

    Args:
        machine: Must have a discrete GPU.
        n: Matrix side length.
    """
    device = machine.opencl_device
    if device is None or not machine.has_discrete_gpu:
        raise ExperimentError("hand-coded OpenCL baselines need a discrete GPU")
    launch = KernelLaunch(
        work_items=n * n,
        flops_per_item=2.0 * n,
        # Register/local blocking: near-minimal global traffic.
        bytes_read_per_item=24.0,
        bytes_written_per_item=8.0,
        local_work_size=device.preferred_local_size,
    )
    kernel_s = kernel_time(launch, device)
    transfer_s = machine.transfer.transfer_time(8 * n * n) * 3
    return kernel_s + transfer_s


def cudpp_tridiagonal_time(machine: MachineSpec, n: int) -> float:
    """Modelled CUDPP tridiagonal solver (Section 6.2 comparison).

    CUDPP's cyclic reduction kernel "guarantees the efficient use of
    shared memory without bank conflicts"; the paper's generated
    kernel is 3.5x slower at input size 512.  Modelled as conflict-free
    cyclic reduction in local memory.
    """
    device = machine.opencl_device
    if device is None or not machine.has_discrete_gpu:
        raise ExperimentError("hand-coded OpenCL baselines need a discrete GPU")
    steps = max(1, int(math.log2(max(2, n))))
    launch = KernelLaunch(
        work_items=n,
        flops_per_item=17.0 * steps,
        bytes_read_per_item=56.0,  # staged once, no conflicts
        bytes_written_per_item=8.0,
        local_work_size=device.preferred_local_size,
        use_local_memory=False,
    )
    kernel_s = kernel_time(launch, device) + 2 * steps * device.launch_overhead_s
    transfer_s = machine.transfer.transfer_time(8 * n * 5)
    return kernel_s + transfer_s

"""Kernel and task execution-time estimation.

This is the analytic heart of the hardware substitution: given a
description of one kernel launch (work-items, arithmetic intensity,
memory traffic, stencil reuse, work-group size, scratchpad usage) and a
device, produce a virtual execution time whose *shape* across devices
and parameters matches the effects the paper measures:

* fixed launch overhead makes small kernels unprofitable on the GPU;
* bandwidth-bound kernels benefit from local-memory prefetching exactly
  when the device has a real scratchpad and the stencil's bounding box
  is large (paper Sections 2.2 and 3.1);
* on CPU-hosted OpenCL runtimes the prefetch phase is wasted work;
* work-group sizes below the warp width waste lanes.

CPU (work-stealing backend) task costs use a roofline of per-core
arithmetic throughput against shared memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import DeviceError
from repro.hardware.device import CPUDevice, Device, GPUDevice


@dataclass(frozen=True)
class KernelLaunch:
    """Static description of one kernel launch.

    Attributes:
        work_items: Number of work-items (one per output element in the
            code our kernel generator emits; Section 6.2 notes each
            work-item computes exactly one entry of the output).
        flops_per_item: Arithmetic operations per work-item.
        bytes_read_per_item: Global-memory bytes read per work-item in
            the *naive* (no local memory) version, including stencil
            redundancy — a KWIDTH² convolution reads KWIDTH² elements.
        bytes_written_per_item: Global-memory bytes written per item.
        bounding_box: Number of input elements in the rectangular region
            feeding one output element (paper Section 3.1).  1 for
            elementwise kernels; > 1 enables the local-memory variant
            and determines its reuse factor.
        local_work_size: Work-group size chosen by the autotuner.
        use_local_memory: Whether this launch runs the local-memory
            variant of the kernel.
        sequential: True when the kernel's work is inherently ordered
            (e.g. an insertion sort mapped to one work-item): it runs
            at the device's scalar throughput, which on GPUs is
            catastrophic — exactly why the autotuner never places such
            rules there.
    """

    work_items: int
    flops_per_item: float
    bytes_read_per_item: float
    bytes_written_per_item: float
    bounding_box: int = 1
    local_work_size: int = 128
    use_local_memory: bool = False
    sequential: bool = False
    strided_access: bool = False

    def __post_init__(self) -> None:
        if self.work_items < 0:
            raise DeviceError("work_items must be non-negative")
        if self.bounding_box < 1:
            raise DeviceError("bounding_box must be >= 1")

    def with_local_memory(self, enabled: bool) -> "KernelLaunch":
        """Copy of this launch with the local-memory flag replaced."""
        return replace(self, use_local_memory=enabled)


#: Barrier synchronisation cost per work-group for cooperative loads.
_GROUP_SYNC_S = 2.0e-7


def kernel_time(launch: KernelLaunch, device: Device) -> float:
    """Virtual seconds for one kernel launch on an accelerator device.

    Args:
        launch: The launch description.
        device: Target accelerator (GPU or CPU-hosted OpenCL device).

    Returns:
        Execution time in virtual seconds, including launch overhead.

    Raises:
        DeviceError: If the device is not an accelerator.
    """
    if not device.is_accelerator:
        raise DeviceError(f"kernel_time: {device.name} is not an OpenCL device")
    if launch.work_items == 0:
        return device.launch_overhead_s

    # Work-group sizes are clamped to the device's limit: a configuration
    # migrated from a device with larger groups runs with the local
    # maximum (the OpenCL runtime rejects oversized requests).
    local_size = max(1, min(int(launch.local_work_size), device.max_local_size))

    if launch.sequential:
        compute_s = launch.work_items * launch.flops_per_item / (
            device.sequential_gflops * 1e9
        )
    else:
        efficiency = device.local_size_efficiency(local_size)
        compute_s = launch.work_items * launch.flops_per_item / (
            device.compute_gflops * 1e9 * efficiency
        )

    per_item_read = launch.bytes_read_per_item
    if launch.strided_access:
        per_item_read *= device.strided_penalty
    read_bytes = launch.work_items * per_item_read
    write_bytes = launch.work_items * launch.bytes_written_per_item
    extra_s = 0.0

    if launch.use_local_memory:
        group_count = max(1, launch.work_items // local_size)
        if device.local_memory_effective and launch.bounding_box > 1:
            # Cooperative loads fetch each input element once per
            # work-group instead of once per work-item: traffic drops by
            # the reuse factor (bounded by the group size).
            reuse = min(launch.bounding_box, local_size)
            read_bytes = read_bytes / reuse
            # The staging pass through the scratchpad is not free.
            extra_s += (
                launch.work_items
                * launch.bytes_read_per_item
                * device.local_memory_load_cost
                / (device.memory_bandwidth_gbs * 1e9)
            )
            extra_s += group_count * _GROUP_SYNC_S
        else:
            # On a cache-backed "scratchpad" the prefetch phase moves the
            # same bytes twice: pure overhead (paper Section 2.2).
            extra_s += (
                launch.work_items
                * launch.bytes_read_per_item
                * (1.0 + device.local_memory_load_cost)
                / (device.memory_bandwidth_gbs * 1e9)
            )
            extra_s += group_count * _GROUP_SYNC_S

    memory_s = (read_bytes + write_bytes) / (device.memory_bandwidth_gbs * 1e9)
    return device.launch_overhead_s + max(compute_s, memory_s) + extra_s


#: Per-occupancy CPU rates of each device :func:`cpu_task_time` has
#: costed, keyed by identity; each entry holds its device, so no id is
#: reused while its entry lives.
_CPU_RATES: Dict[int, Tuple[CPUDevice, Tuple[Tuple[float, float], ...]]] = {}
_CPU_RATES_CAP = 256


def _build_cpu_rates(device: CPUDevice) -> Tuple[Tuple[float, float], ...]:
    """``(flop/s, bytes/s)`` of one task's core for each count of busy
    cores, built once per device.

    Entry ``k`` holds the rates with ``k`` cores busy: each core's
    arithmetic throughput, with turbo headroom, and its share of the
    memory bandwidth.  Entry 0 repeats entry 1, as fewer than one busy
    core counts as one.
    """
    bandwidth = device.memory_bandwidth_gbs * 1e9
    rates = tuple(
        (device.per_core_gflops(active) * 1e9, bandwidth / active)
        for active in (1, *range(1, device.core_count + 1))
    )
    if len(_CPU_RATES) >= _CPU_RATES_CAP:  # unbounded growth guard
        _CPU_RATES.clear()
    _CPU_RATES[id(device)] = (device, rates)
    return rates


def cpu_task_time(
    flops: float,
    bytes_touched: float,
    device: CPUDevice,
    active_cores: int = 1,
    sequential: bool = False,
) -> float:
    """Virtual seconds for one task on one CPU core.

    Args:
        flops: Arithmetic operations in the task.
        bytes_touched: Bytes read + written by the task.
        device: The host CPU.
        active_cores: How many cores are concurrently busy — memory
            bandwidth is shared among them and turbo headroom shrinks.
            Counts below one count as one, above the core count as the
            core count.
        sequential: True for inherently sequential code (insertion sort
            base cases, direct tridiagonal solves): it runs at the
            scalar, not the SIMD, throughput.

    Returns:
        Execution time in virtual seconds.
    """
    if flops < 0 or bytes_touched < 0:
        raise DeviceError("flops and bytes_touched must be non-negative")
    entry = _CPU_RATES.get(id(device))
    if entry is not None and entry[0] is device:
        rates = entry[1]
    else:
        rates = _build_cpu_rates(device)
    if not 0 <= active_cores < len(rates):
        active_cores = 0 if active_cores < 0 else len(rates) - 1
    rate, share = rates[active_cores]
    if sequential:
        rate = device.sequential_gflops * 1e9
    compute_s = flops / rate
    memory_s = bytes_touched / share
    return memory_s if memory_s > compute_s else compute_s  # max(), inlined


def transfer_bytes(shape, itemsize: int = 8) -> int:
    """Bytes occupied by a dense array of the given shape.

    Args:
        shape: Iterable of dimension sizes.
        itemsize: Bytes per element (default: float64).
    """
    total = 1
    for dim in shape:
        total *= int(dim)
    return total * itemsize

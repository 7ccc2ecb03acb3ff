"""GPU memory management (paper Section 4.3).

The GPU management thread keeps a table of information about data
stored on the GPU.  Each entry pairs a host numpy array with a device
buffer (also a numpy array, so kernels execute for real) plus
freshness metadata.  The manager implements the paper's optimisations:

* **Copy-in management** — before executing a copy-in task, check
  whether the data is already on the GPU (copied in earlier, or
  produced there by a previous kernel); if so, the copy-in completes
  without a transfer.
* **Copy-out management** — one consolidated buffer per matrix, with
  region (row-range) tracking so several rules can fill parts of the
  same matrix; the matrix only becomes host-visible when all regions
  arrived.
* **Lazy copy-out** — regions classified *may copy-out* stay on the
  device; a residency check runs before any potential CPU consumer and
  pays the transfer only when actually needed.
* **Staleness** — when the host copy is written, the device buffer is
  released (it no longer reflects main memory).

Until a run creates its first device buffer the table is empty, so
every residency check and invalidation would find nothing: the
manager's :attr:`~GpuMemoryManager.has_buffers` flag lets CPU tasks
skip those loops outright (most runs of CPU-only configurations never
create a buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.hardware.transfer import TransferModel


@dataclass(slots=True)
class DeviceBuffer:
    """Device-side shadow of one host array.

    Attributes:
        host: The host numpy array this buffer shadows (strong
            reference: keys in the manager table stay valid).
        device: Device-side copy (same shape/dtype).
        host_current: True when the host array reflects every write.
        device_current: True when the device copy reflects the host.
        pending_rows: Row ranges computed on the device but not yet
            copied back (lazy copy-out candidates).
        available_at: Virtual time at which the most recent kernel
            writing this buffer finishes; lazy consumers must wait for
            it before their copy-back can begin.
    """

    host: np.ndarray
    device: np.ndarray
    host_current: bool = True
    device_current: bool = False
    pending_rows: List[Tuple[int, int]] = field(default_factory=list)
    available_at: float = 0.0

    @property
    def nbytes(self) -> int:
        """Allocation size in bytes."""
        return int(self.device.nbytes)


class GpuMemoryManager:
    """Buffer table plus the copy-in/copy-out policies of Section 4.3.

    All virtual-time costs are *returned* to the caller (the GPU
    manager actor or a lazily-copying CPU task) rather than tracked
    here, so this class stays a pure policy + data layer.

    Attributes:
        has_buffers: False until the first device buffer is created
            (buffers are never freed).  While it is False,
            :meth:`ensure_host` returns 0.0 and :meth:`invalidate_device`
            does nothing for any array, so callers may skip them.
    """

    def __init__(
        self,
        transfer: TransferModel,
        dedup_copy_ins: bool = True,
        numeric: bool = True,
    ) -> None:
        """Create a manager.

        Args:
            transfer: Host/device transfer model.
            dedup_copy_ins: Disable to re-transfer data on every
                copy-in even when the device copy is current (the
                ablation baseline for the paper's copy-in management
                optimisation, Section 4.3).
            numeric: False when the run is an elided batched lane: all
                freshness bookkeeping, counters and virtual transfer
                times stay identical, but the *physical* byte movement
                (device allocation, ``np.copyto``, host row writes) is
                skipped — kernels never ran, so device buffers hold no
                meaningful data and must not clobber host arrays
                (batched lanes share input masters).
        """
        self._transfer = transfer
        self._dedup_copy_ins = dedup_copy_ins
        self._numeric = numeric
        self._table: Dict[int, DeviceBuffer] = {}
        self.has_buffers = False
        self.allocations = 0
        self.copy_in_transfers = 0
        self.copy_in_dedups = 0
        self.eager_copy_outs = 0
        self.lazy_copy_outs = 0
        self.bytes_copied_in = 0
        self.bytes_copied_out = 0

    def lookup(self, host: np.ndarray) -> Optional[DeviceBuffer]:
        """The device buffer shadowing ``host``, if one exists (buffers
        are keyed by the host array's identity)."""
        return self._table.get(id(host))

    def get_or_create(self, host: np.ndarray) -> Tuple[DeviceBuffer, bool]:
        """Fetch or allocate the consolidated buffer for a host array.

        One big buffer is created for the entire matrix even when
        individual rules only produce regions of it (the paper's
        buffer-consolidation optimisation).

        Returns:
            ``(buffer, created)`` — ``created`` is True on allocation.
        """
        key = id(host)
        buffer = self._table.get(key)
        if buffer is not None:
            return buffer, False
        if self._numeric:
            device = np.zeros_like(host)
        else:
            # Elided lane: a read-only broadcast view keeps the shape,
            # dtype and (virtual) nbytes without allocating — any
            # accidental physical write raises instead of corrupting.
            device = np.broadcast_to(np.zeros(1, dtype=host.dtype), host.shape)
        buffer = DeviceBuffer(host=host, device=device)
        self._table[key] = buffer
        self.has_buffers = True
        self.allocations += 1
        return buffer, True

    def copy_in(self, host: np.ndarray) -> float:
        """Ensure the device copy of ``host`` is current.

        Device-only results pending in the buffer (from a hybrid
        GPU/CPU split) are merged back into the host first so the full
        copy does not clobber them.

        Returns:
            Virtual seconds of transfer time paid (0.0 when the
            copy-in was deduplicated because the data is already on
            the device).
        """
        buffer, _ = self.get_or_create(host)
        if buffer.device_current and self._dedup_copy_ins:
            self.copy_in_dedups += 1
            return 0.0
        merge_s = 0.0
        if buffer.pending_rows:
            merge_s = self.ensure_host(host)
        if self._numeric:
            np.copyto(buffer.device, host)
        buffer.device_current = True
        self.copy_in_transfers += 1
        self.bytes_copied_in += buffer.nbytes
        return merge_s + self._transfer.transfer_time(buffer.nbytes)

    def device_has_current(self, host: np.ndarray) -> bool:
        """Copy-in dedup check (paper: skip the task when data is there)."""
        if not self._dedup_copy_ins:
            return False
        buffer = self.lookup(host)
        return buffer is not None and buffer.device_current

    def record_device_write(
        self, host: np.ndarray, rows: Tuple[int, int], available_at: float = 0.0
    ) -> None:
        """Note that a kernel produced rows ``[r0, r1)`` on the device.

        The host copy becomes stale for those rows until a copy-out.

        Args:
            host: Host array the buffer shadows.
            rows: Row range written.
            available_at: Virtual time the producing kernel finishes.
        """
        buffer, _ = self.get_or_create(host)
        buffer.device_current = True
        buffer.host_current = False
        buffer.pending_rows.append(rows)
        buffer.available_at = max(buffer.available_at, available_at)

    def eager_copy_out(self, host: np.ndarray, rows: Tuple[int, int]) -> float:
        """Copy rows back to the host now (must-copy-out strategy).

        Returns:
            Virtual transfer seconds for the row payload.
        """
        buffer = self.lookup(host)
        if buffer is None:
            raise RuntimeFault("eager copy-out of a matrix with no device buffer")
        r0, r1 = rows
        if self._numeric:
            host[r0:r1] = buffer.device[r0:r1]
        buffer.pending_rows = [p for p in buffer.pending_rows if p != rows]
        if not buffer.pending_rows:
            buffer.host_current = True
        self.eager_copy_outs += 1
        nbytes = int(buffer.device[r0:r1].nbytes)
        self.bytes_copied_out += nbytes
        return self._transfer.transfer_time(nbytes)

    def ensure_host(self, host: np.ndarray, now: float = float("inf")) -> float:
        """Residency check before a CPU consumer (lazy copy-out).

        If device-computed rows are pending, copy them back now and
        pay the transfer (plus any wait for the producing kernel to
        finish on the device timeline); otherwise this is a cheap
        no-op check.

        Args:
            host: Host array about to be read on the CPU.
            now: Virtual time of the consumer; waits are charged when
                the kernel has not finished by then.

        Returns:
            Virtual seconds spent waiting and copying (0.0 when
            nothing was pending).
        """
        buffer = self.lookup(host)
        if buffer is None or buffer.host_current or not buffer.pending_rows:
            return 0.0
        total_bytes = 0
        for r0, r1 in buffer.pending_rows:
            if self._numeric:
                host[r0:r1] = buffer.device[r0:r1]
            total_bytes += int(buffer.device[r0:r1].nbytes)
        buffer.pending_rows.clear()
        buffer.host_current = True
        self.lazy_copy_outs += 1
        self.bytes_copied_out += total_bytes
        wait_s = max(0.0, buffer.available_at - now) if now != float("inf") else 0.0
        return wait_s + self._transfer.transfer_time(total_bytes)

    def invalidate_device(self, host: np.ndarray) -> None:
        """Host write detected: the device copy no longer reflects memory.

        Device-only pending results are preserved — hybrid GPU/CPU
        splits write disjoint row ranges, so a CPU write elsewhere in
        the matrix must not discard rows computed on the device.
        """
        buffer = self.lookup(host)
        if buffer is not None:
            buffer.device_current = False

    def table_size(self) -> int:
        """Number of live device buffers (diagnostics)."""
        return len(self._table)
